import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from timebinsim import (BlochVector, TimeBinState, bloch_of_state,
                        direction_fidelity, fidelity, fit_fringe,
                        generate_state, qubit_phase, reconstruct,
                        two_pulse_sequence, unwrap_phases)
from timebinsim.tomography import _wrap

from oracle_values import IDEAL_COHERENCE


def _synthetic_scan(amplitude, visibility, phase0, n=12):
    phases = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return phases, amplitude * (1 + visibility * np.cos(phases + phase0))


def test_noiseless_fit_recovers_the_fringe_exactly():
    phases, counts = _synthetic_scan(500.0, 0.737, 0.58 * math.pi)
    fit = fit_fringe(phases, counts)
    assert fit.amplitude == pytest.approx(500.0, abs=1e-6)
    assert fit.visibility == pytest.approx(0.737, abs=1e-9)
    assert fit.phase == pytest.approx(0.58 * math.pi, abs=1e-9)
    assert fit.phase_defined


def test_fit_canonicalises_negative_visibility():
    phases, counts = _synthetic_scan(100.0, 0.5, 0.0)
    # the same data described with V < 0 and the phase shifted by pi
    fit = fit_fringe(phases, counts)
    flipped = fit_fringe(phases + math.pi, counts)
    assert flipped.visibility == pytest.approx(fit.visibility, abs=1e-9)
    assert abs(_wrap(flipped.phase - fit.phase - math.pi)) < 1e-6


def test_flat_counts_have_no_phase():
    fit = fit_fringe(np.linspace(0, 6, 8), np.full(8, 42.0))
    assert fit.visibility == 0.0
    assert not fit.phase_defined
    with pytest.raises(ValueError, match="defined fringe"):
        qubit_phase(fit, fit)


def test_fit_input_validation():
    with pytest.raises(ValueError, match="at least 4"):
        fit_fringe([0, 1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="non-negative"):
        fit_fringe([0, 1, 2, 3], [1, -2, 3, 4])
    with pytest.raises(ValueError, match="equal length"):
        fit_fringe([0, 1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError, match="distinct setpoints"):
        fit_fringe([0, 0, 2 * math.pi, 0], [1, 2, 3, 4])


def _iterative_fit(phases, counts):
    """Reference: Levenberg-Marquardt on the nonlinear fringe model."""
    from scipy.optimize import curve_fit

    def model(phi, amplitude, visibility, phase0):
        return amplitude * (1.0 + visibility * np.cos(phi + phase0))

    c1 = 2.0 * np.mean(counts * np.cos(phases))
    s1 = 2.0 * np.mean(counts * np.sin(phases))
    p0 = [counts.mean(), np.hypot(c1, s1) / counts.mean(), np.arctan2(-s1, c1)]
    popt, pcov = curve_fit(model, phases, counts, p0=p0,
                           sigma=np.sqrt(np.maximum(counts, 1.0)),
                           absolute_sigma=True, xtol=1e-14, ftol=1e-14,
                           gtol=1e-14, maxfev=20000)
    amp, vis, ph = popt
    if vis < 0:
        vis, ph = -vis, ph + math.pi
    return vis, math.sqrt(pcov[1, 1]), ph


def test_closed_form_fit_matches_an_iterative_fit_on_poisson_fringes():
    rng = np.random.default_rng(2018)
    phases = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
    for _ in range(50):
        amplitude = rng.uniform(50.0, 5000.0)
        visibility = rng.uniform(0.1, 0.95)
        phase0 = rng.uniform(-math.pi, math.pi)
        counts = rng.poisson(amplitude * (1 + visibility * np.cos(phases + phase0)))
        fit = fit_fringe(phases, counts)
        vis, vis_err, ph = _iterative_fit(phases, counts.astype(float))
        assert fit.visibility == pytest.approx(vis, rel=1e-5)
        assert fit.visibility_err == pytest.approx(vis_err, rel=1e-5)
        assert abs(math.remainder(fit.phase - ph, 2 * math.pi)) < 1e-6


def test_qubit_phase_is_reference_minus_modulated():
    phases, ref_counts = _synthetic_scan(200.0, 0.7, 0.2)
    _, mod_counts = _synthetic_scan(200.0, 0.7, 0.2 - 0.58 * math.pi)
    ref, mod = fit_fringe(phases, ref_counts), fit_fringe(phases, mod_counts)
    assert qubit_phase(ref, mod) == pytest.approx(0.58 * math.pi, abs=1e-9)


def test_qubit_phase_wraps_large_modulations():
    phases, ref_counts = _synthetic_scan(200.0, 0.7, 0.0)
    _, mod_counts = _synthetic_scan(200.0, 0.7, -2.94 * math.pi)
    ref, mod = fit_fringe(phases, ref_counts), fit_fringe(phases, mod_counts)
    assert qubit_phase(ref, mod) == pytest.approx(0.94 * math.pi, abs=1e-9)


def test_unwrap_restores_a_monotone_sweep():
    programmed = np.linspace(0.0, 2.94 * math.pi, 15)
    wrapped = [_wrap(p) for p in programmed]
    recovered = unwrap_phases(wrapped)
    assert np.allclose(recovered, programmed, atol=1e-12)


@given(st.floats(-50, 50))
def test_wrap_lands_in_the_half_open_interval(phi):
    w = _wrap(phi)
    assert -math.pi < w <= math.pi
    assert math.cos(w) == pytest.approx(math.cos(phi), abs=1e-9)


# -- reconstruction -----------------------------------------------------------

def test_reconstruct_plus_state():
    vec = reconstruct(0.5, 0.5, 1.0, 0.0)
    assert (vec.x, vec.y, vec.z) == pytest.approx((1.0, 0.0, 0.0))


def test_reconstruct_scales_with_visibility():
    vec = reconstruct(0.5, 0.5, 0.778, 0.0)
    assert (vec.x, vec.y, vec.z) == pytest.approx((0.778, 0.0, 0.0))


def test_reconstruct_pole_state():
    vec = reconstruct(1.0, 0.0, 0.0, 0.0)
    assert (vec.x, vec.y, vec.z) == pytest.approx((0.0, 0.0, 1.0))


def test_reconstruct_equator_phase_sweep():
    for phase in (0.0, 0.5, 2.0, -2.5):
        vec = reconstruct(0.3, 0.3, 0.9, phase)
        assert math.atan2(vec.y, vec.x) == pytest.approx(phase if phase > -math.pi
                                                          else phase + 2 * math.pi)
        assert vec.z == 0.0


def test_reconstruct_input_validation():
    with pytest.raises(ValueError):
        reconstruct(-0.1, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        reconstruct(0.0, 0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        reconstruct(0.7, 0.4, 0.5, 0.0)
    with pytest.raises(ValueError):
        reconstruct(0.5, 0.5, 1.2, 0.0)


def test_fidelity_examples():
    target = BlochVector(1.0, 0.0, 0.0)
    assert fidelity(BlochVector(0.778, 0, 0), target) == pytest.approx(0.889)
    assert fidelity(target, target) == pytest.approx(1.0)
    assert fidelity(BlochVector(-1.0, 0, 0), target) == pytest.approx(0.0)
    assert fidelity(BlochVector(0, 0, 0), target) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="unit"):
        fidelity(target, BlochVector(0.5, 0, 0))


def test_direction_fidelity_ignores_length():
    measured = BlochVector(0.4, 0.0, 0.0)
    assert direction_fidelity(measured, BlochVector(1, 0, 0)) == pytest.approx(1.0)


def test_bloch_of_state_conventions(clean_params):
    state = generate_state(two_pulse_sequence(phase2=0.3), clean_params)
    vec = bloch_of_state(state)
    assert math.atan2(vec.y, vec.x) == pytest.approx(0.3)
    assert vec.z == pytest.approx(0.0, abs=1e-12)
    assert np.hypot(vec.x, vec.y) == pytest.approx(2 * IDEAL_COHERENCE, abs=1e-12)
    with pytest.raises(ValueError):
        bloch_of_state(TimeBinState(p_early=0.0, p_late=0.0))


def test_analytic_round_trip_is_exact(clean_params):
    """State -> predicted fringes -> fit -> reconstruction, all noiseless."""
    from timebinsim import michelson_expected
    for delta in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
        state = generate_state(two_pulse_sequence(phase2=delta), clean_params)
        phases = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
        middles = np.array([michelson_expected(state, phi)[1]
                            for phi in phases]) * 1e6
        ref_state = generate_state(two_pulse_sequence(), clean_params)
        ref_middles = np.array([michelson_expected(ref_state, phi)[1]
                                for phi in phases]) * 1e6
        fit = fit_fringe(phases, middles)
        ref = fit_fringe(phases, ref_middles)
        recovered = qubit_phase(ref, fit)
        vec = reconstruct(state.p_early, state.p_late, fit.visibility, recovered)
        target = bloch_of_state(state)
        assert abs(vec.x - target.x) < 1e-6
        assert abs(vec.y - target.y) < 1e-6
        assert abs(vec.z - target.z) < 1e-6
