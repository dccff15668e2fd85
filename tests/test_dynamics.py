import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from timebinsim import (PhysicalParams, coherent_fraction,
                        derive_drive, excitation_probability,
                        expected_visibility, generate_state,
                        intensity_for_angle, rotation_angle, sequence_drives,
                        sequence_for_pgen, two_pulse_sequence,
                        visibility_curve)
from timebinsim.dynamics import write_visibility_csv

from oracle_values import (C_HALF_PI, C_PI, DEPHASING, EXPECTED_VISIBILITY,
                           IDEAL_COHERENCE)


def test_rotation_angle_reference_points():
    assert rotation_angle(1.0) == pytest.approx(math.pi / 2)
    assert rotation_angle(4.0) == pytest.approx(math.pi)
    assert rotation_angle(0.0) == 0.0


@given(st.floats(1e-6, 1e3))
def test_intensity_for_angle_inverts_rotation_angle(intensity):
    theta = rotation_angle(intensity)
    assert intensity_for_angle(theta) == pytest.approx(intensity, rel=1e-12)


def test_excitation_probability_landmarks():
    assert excitation_probability(0.0) == 0.0
    assert excitation_probability(math.pi / 2) == pytest.approx(0.5)
    assert excitation_probability(math.pi) == pytest.approx(1.0)


@given(st.floats(0, 4 * math.pi))
def test_excitation_probability_stays_in_unit_interval(theta):
    assert 0.0 <= excitation_probability(theta) <= 1.0


def test_coherent_fraction_against_frozen_values(params):
    assert coherent_fraction(params.gamma, (math.pi / 2) / 1000.0) == \
        pytest.approx(C_HALF_PI, abs=1e-15)
    assert coherent_fraction(params.gamma, math.pi / 1000.0) == \
        pytest.approx(C_PI, abs=1e-15)
    assert coherent_fraction(params.gamma, 0.0) == 1.0


def test_coherent_fraction_monotone_in_drive(params):
    rabis = np.linspace(0.0, 0.05, 40)
    vals = [coherent_fraction(params.gamma, r) for r in rabis]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_coherent_fraction_rejects_bad_rates():
    with pytest.raises(ValueError):
        coherent_fraction(0.0, 1.0)
    with pytest.raises(ValueError):
        coherent_fraction(1.0, -1.0)


def test_derive_drive_bundles_consistently(params):
    seq = two_pulse_sequence()
    d1, d2 = sequence_drives(seq, params)
    assert d1.theta == pytest.approx(math.pi / 2)
    assert d2.theta == pytest.approx(math.pi)
    assert d2.rabi == pytest.approx(math.pi / params.pulse_duration)
    assert (d1.excitation, d2.excitation) == pytest.approx((0.5, 1.0))


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
    from timebinsim import WdmSpec, build_wdm_sequence, wdm_state
    free = generate_state(build_wdm_sequence(), params)
    assert free.coherence == 0j
    assert free.p_total == pytest.approx(wdm_state(params=params).combined.p_total)
    spec = WdmSpec(locked_phase=0.7)
    assert generate_state(build_wdm_sequence(spec), params) == \
        wdm_state(spec, params).combined


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


def test_visibility_curve_orders_rows_by_lifetime(params, tmp_path):
    rows = visibility_curve([0.2, 0.8], [100.0, 250.0], params)
    assert [(r[0], r[1]) for r in rows] == [
        (0.2, 100.0), (0.8, 100.0), (0.2, 250.0), (0.8, 250.0)]
    # longer T1 -> slower emitter -> less coherent under the same drive
    assert rows[0][2] > rows[2][2]

    out = tmp_path / "curve.csv"
    write_visibility_csv(rows, out)
    header, *lines = out.read_text().splitlines()
    assert header == "p_gen,t1_ps,visibility"
    assert len(lines) == 4
