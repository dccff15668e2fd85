import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timebinsim import (PhysicalParams, PulseSequence, ResonantPulse,
                        ValidationError, expected_visibility, generate_state,
                        sequence_drives, sequence_for_pgen, two_pulse_sequence,
                        visibility_curve)

import oracle_mpmath
from oracle_values import (C_HALF_PI, C_PI, DEPHASING, EXPECTED_VISIBILITY,
                           IDEAL_COHERENCE)


def _single_drive(intensity, params):
    """sequence_drives of an early pulse at ``intensity`` (late pulse off)."""
    seq = PulseSequence(pulses=(ResonantPulse(intensity=intensity),
                                ResonantPulse(intensity=0.0)))
    return sequence_drives(seq, params)[0]


def test_excitation_probability_landmarks(params):
    d1, d2 = sequence_drives(two_pulse_sequence(), params)
    assert (d1.excitation, d2.excitation) == pytest.approx((0.5, 1.0))
    assert _single_drive(0.0, params).excitation == 0.0


@given(st.floats(0.0, 64.0))
def test_excitation_probability_stays_in_unit_interval(intensity):
    # pulse areas up to 4 pi, past the clamp at the pi pulse
    assert 0.0 <= _single_drive(intensity, PhysicalParams()).excitation <= 1.0


def test_derive_drive_bundles_consistently(params):
    # each record belongs to its own pulse: reversing the pulses reverses
    # the records, and a record holds exactly the two drive numbers
    d1, d2 = sequence_drives(two_pulse_sequence(), params)
    p1, p2 = two_pulse_sequence().pulses
    assert sequence_drives(PulseSequence(pulses=(p2, p1)), params) == (d2, d1)
    assert d1._fields == ("excitation", "coherent_fraction")


def test_coherent_fraction_against_frozen_values(params):
    d1, d2 = sequence_drives(two_pulse_sequence(), params)
    assert d1.coherent_fraction == pytest.approx(C_HALF_PI, abs=1e-15)
    assert d2.coherent_fraction == pytest.approx(C_PI, abs=1e-15)
    # the weak-drive limit is fully coherent
    assert _single_drive(0.0, params).coherent_fraction == 1.0


@settings(derandomize=True, max_examples=300)
@given(st.floats(0.0, 16.0))
def test_sequence_drives_match_the_mpmath_closed_forms(intensity):
    # the oracle's coherent_fraction holds the default T1 and pulse width
    drive = _single_drive(intensity, PhysicalParams())
    theta = mp.pi / 2 * mp.sqrt(mp.mpf(intensity))
    # sin^2 vanishes at theta = 2 pi (intensity 16), where only an absolute
    # accuracy of a few ulps of theta is possible
    assert drive.excitation == pytest.approx(float(mp.sin(theta / 2) ** 2),
                                             rel=1e-13, abs=1e-15)
    assert drive.coherent_fraction == pytest.approx(
        float(oracle_mpmath.coherent_fraction(theta)), rel=1e-13)
    assert 0.0 <= drive.excitation <= 1.0


def test_coherent_fraction_monotone_in_drive(params):
    # Rabi rates from 0 to about 0.05 rad/ps with the 1000 ps pulse, where C
    # has fallen to about 0.013
    vals = [_single_drive(i, params).coherent_fraction
            for i in np.linspace(0.0, 1024.0, 40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_coherent_fraction_rejects_bad_rates(params):
    # Gamma = 1/T1 must be positive and the Rabi rate finite and >= 0
    for t1 in (0.0, -250.0):
        with pytest.raises(ValidationError, match="t1_radiative"):
            sequence_drives(two_pulse_sequence(), PhysicalParams(t1_radiative=t1))
    for intensity in (-1.0, math.inf):
        with pytest.raises(ValidationError, match="intensity"):
            _single_drive(intensity, params)


def test_sequence_drives_rejects_bad_inputs(params):
    with pytest.raises(ValidationError, match="two pulses"):
        sequence_drives(PulseSequence(pulses=(ResonantPulse(intensity=1.0),) * 3),
                        params)
    with pytest.raises(ValidationError, match="t1_radiative"):
        generate_state(two_pulse_sequence(), PhysicalParams(t1_radiative=-250.0))
    with pytest.raises(ValidationError, match="t1_radiative"):
        expected_visibility(0.5, PhysicalParams(t1_radiative=-250.0))


def test_two_pulse_sequence_shape():
    seq = two_pulse_sequence(scale=0.5, phase2=0.3)
    assert seq.pulses[0].intensity == pytest.approx(0.5)
    assert seq.pulses[1].intensity == pytest.approx(2.0)  # 1:4 ratio preserved
    assert seq.pulses[1].phase == 0.3


def test_sequence_for_pgen_hits_requested_probability(params):
    for p_gen in (0.1, 0.37, 0.9, 1.0):
        seq = sequence_for_pgen(p_gen)
        _, d2 = sequence_drives(seq, params)
        assert d2.excitation == pytest.approx(p_gen, abs=1e-12)
    with pytest.raises(ValueError):
        sequence_for_pgen(1.2)


def test_generate_state_full_drive(clean_params):
    state = generate_state(two_pulse_sequence(), clean_params)
    assert state.p_early == pytest.approx(0.5, abs=1e-12)
    assert state.p_late == pytest.approx(0.5, abs=1e-12)
    assert abs(state.coherence) == pytest.approx(IDEAL_COHERENCE, abs=1e-12)
    assert state.coherence.imag == 0.0


def test_generate_state_phase_lands_in_coherence_argument(clean_params):
    state = generate_state(two_pulse_sequence(phase2=0.58 * math.pi), clean_params)
    assert np.angle(state.coherence) == pytest.approx(-0.58 * math.pi)


def test_generate_state_scales_with_hole_preparation(params, clean_params):
    full = generate_state(two_pulse_sequence(), clean_params)
    half = generate_state(two_pulse_sequence(), params)  # p_hole_init = 0.5
    assert half.p_early == pytest.approx(0.5 * full.p_early)
    assert half.p_late == pytest.approx(0.5 * full.p_late)


def test_generate_state_covers_two_colour_sequences(params):
    from timebinsim import WdmSpec, build_wdm_sequence
    free = generate_state(build_wdm_sequence(), params)
    locked = generate_state(build_wdm_sequence(WdmSpec(locked_phase=0.7)), params)
    assert free.coherence == 0j
    assert (free.p_early, free.p_late) == (locked.p_early, locked.p_late)
    assert np.angle(locked.coherence) == pytest.approx(-0.7, abs=1e-12)


def test_expected_visibility_frozen_values(params):
    for p_gen, vis in EXPECTED_VISIBILITY.items():
        assert expected_visibility(p_gen, params) == pytest.approx(vis, abs=1e-15)


def test_expected_visibility_weak_drive_ceiling(params):
    # as the drive vanishes only spin dephasing remains
    assert expected_visibility(1e-9, params) == pytest.approx(DEPHASING, abs=1e-9)
    assert expected_visibility(0.0, params) == pytest.approx(DEPHASING, abs=1e-15)


@given(st.floats(0, 1), st.floats(0, 1))
def test_expected_visibility_monotone_decreasing(p1, p2):
    params = PhysicalParams()
    lo, hi = sorted((p1, p2))
    assert expected_visibility(lo, params) >= expected_visibility(hi, params)


def test_visibility_curve_orders_rows_by_lifetime(params):
    rows = visibility_curve([0.2, 0.8], [100.0, 250.0], params)
    assert [(r[0], r[1]) for r in rows] == [
        (0.2, 100.0), (0.8, 100.0), (0.2, 250.0), (0.8, 250.0)]
    # longer T1 -> slower emitter -> less coherent under the same drive
    assert rows[0][2] > rows[2][2]
