import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import exponnorm

from timebinsim import (HbtResult, InsufficientStatisticsError, Origin,
                        PhysicalParams, PulseSequence, ResonantPulse,
                        TimeBinState, ValidationError, background_rate_for_g2,
                        calibrate_background_for_g2, filter_transmission,
                        fringe_scan, gate, generate_state, hbt_g2, michelson,
                        michelson_expected, reject_reset_light, run,
                        sequence_for_pgen, spectral_filter,
                        two_pulse_sequence)
from timebinsim import measurement
from timebinsim.measurement import (_SLOT_LOST, _TAG_FRINGE, SLOT_MIDDLE,
                                    SLOT_SIDE_EARLY, SLOT_SIDE_LATE, _route,
                                    _routing_inputs, gated_photon_probability,
                                    lorentzian_line, measure_g2)
from timebinsim.montecarlo import derived_seed

from oracle_values import (INCOHERENT_LEAK, L2_AT_FULL_SPLIT, L2_AT_HALF_WIDTH,
                           L2_AT_SPLIT, LAMBDA_G2_001_P_HALF)


@pytest.fixture
def photon_stream(clean_params):
    return run(two_pulse_sequence(), clean_params, 6000, seed=21)


@pytest.fixture
def stray_stream(params):
    """Reset flash and background on top of a partly prepared spin."""
    return run(sequence_for_pgen(0.6, phase2=0.9),
               replace(params, background_rate=0.2), 6000, seed=30)


# -- gating -------------------------------------------------------------------

def test_gate_half_open_interval(photon_stream):
    full = gate(photon_stream, 0.0, float("inf"))
    assert len(full) == len(photon_stream)
    t = photon_stream.columns["timestamp_ps"]
    cut = float(np.median(t))
    kept = gate(photon_stream, cut, float("inf"))
    assert np.all(kept.columns["timestamp_ps"] >= cut)
    assert len(kept) + len(gate(photon_stream, 0.0, cut)) == len(photon_stream)
    with pytest.raises(ValueError):
        gate(photon_stream, 10.0, 10.0)


def test_reject_reset_light_only_touches_flash(params):
    stream = run(two_pulse_sequence(), params, 4000, seed=22)
    clean = reject_reset_light(stream)
    assert not np.any(clean.origin_mask(Origin.RESET_FLASH))
    n_flash = int(stream.origin_mask(Origin.RESET_FLASH).sum())
    assert len(clean) == len(stream) - n_flash
    assert n_flash > 0  # default reset_flash_rate produces some


# -- interferometer -----------------------------------------------------------

def test_michelson_conserves_every_photon(photon_stream):
    res = michelson(photon_stream, 0.3)
    assert res.n_input == len(photon_stream)
    assert res.n_detected + res.n_lost == res.n_input
    assert sum(res.slot_counts()) == res.n_detected
    assert set(np.unique(res.slots)) <= {SLOT_SIDE_EARLY, SLOT_MIDDLE, SLOT_SIDE_LATE}


def test_michelson_expected_plus_state():
    plus = TimeBinState(p_early=0.5, p_late=0.5, coherence=0.5)
    early, middle, late = michelson_expected(plus, 0.0)
    assert (early, late) == (0.125, 0.125)
    assert middle == pytest.approx(0.5)
    _, dark, _ = michelson_expected(plus, math.pi)
    assert dark == pytest.approx(0.0, abs=1e-15)


def test_michelson_histogram_three_peaks(photon_stream):
    res = michelson(photon_stream, 0.0)
    t = res.detections.columns["timestamp_ps"]
    counts, edges = np.histogram(t, bins=np.arange(0.0, t.max() + 200.0, 100.0))
    assert counts.sum() == res.n_detected
    # early side peak near 0, overlap near 1500 ps, late side near 3000 ps
    centers = 0.5 * (edges[:-1] + edges[1:])
    occupied = centers[counts > 0]
    assert occupied.min() < 1000
    assert occupied.max() > 2500


def test_michelson_side_peaks_ignore_the_phase(photon_stream):
    a = michelson(photon_stream, 0.0)
    b = michelson(photon_stream, math.pi / 2)
    n = len(photon_stream)
    sides = lambda r: r.slot_counts()[0] + r.slot_counts()[2]
    spread = 3 * math.sqrt(2 * n * 0.25 * 0.75)
    assert abs(sides(a) - sides(b)) < spread


def test_michelson_is_invariant_under_a_global_drive_phase(clean_params):
    base = run(two_pulse_sequence(phase2=0.7), clean_params, 4000, seed=23)
    shifted = run(
        PulseSequence(
            pulses=tuple(replace(p, phase=p.phase + 1.234) for p in
                         two_pulse_sequence(phase2=0.7).pulses)),
        clean_params, 4000, seed=23)
    ra, rb = michelson(base, 0.4), michelson(shifted, 0.4)
    assert ra.slot_counts() == rb.slot_counts()
    assert np.array_equal(ra.detections.columns["timestamp_ps"],
                          rb.detections.columns["timestamp_ps"])


def test_run_rejects_a_three_bin_sequence(clean_params):
    seq = PulseSequence(pulses=(ResonantPulse(intensity=1.0),
                                ResonantPulse(intensity=1.0),
                                ResonantPulse(intensity=4.0)))
    with pytest.raises(ValidationError, match="pulses"):
        run(seq, clean_params, 2000, seed=24)


def test_routing_kernel_slots_are_the_michelson_slots(stray_stream):
    stream = stray_stream
    slot = _route(*_routing_inputs(stream), stream.seed, 0.8, 5)
    res = michelson(stream, 0.8, salt=5)
    detected = slot != _SLOT_LOST
    assert res.n_input == len(stream) and res.n_detected == int(detected.sum())
    # detection order: the long arm delays late-bin side-peak photons and
    # early-bin overlap photons
    cols = stream.columns
    late = cols["bin_index"] >= 1
    delayed = np.where(slot == SLOT_MIDDLE, ~late, late)
    t = cols["timestamp_ps"] + stream.params.bin_separation_ps * delayed
    order = np.lexsort((t[detected], cols["trajectory_id"][detected]))
    assert np.array_equal(slot[detected][order], res.slots)
    assert np.array_equal(t[detected][order], res.detections.columns["timestamp_ps"])


def test_michelson_detection_is_reproducible(photon_stream):
    a = michelson(photon_stream, 0.2)
    b = michelson(photon_stream, 0.2)
    assert np.array_equal(a.slots, b.slots)
    c = michelson(photon_stream, 0.2, salt=1)
    assert not np.array_equal(a.slots, c.slots)


# -- fringe scans -------------------------------------------------------------

def test_fringe_scan_requires_enough_phases(photon_stream):
    with pytest.raises(ValueError, match="4 phase"):
        fringe_scan(photon_stream, [0.0, 1.0, 2.0])


def test_fringe_scan_sequence_source_needs_run_arguments(clean_params):
    with pytest.raises(ValueError, match="requires params"):
        fringe_scan(two_pulse_sequence(), np.linspace(0, 6, 8))


def test_fringe_scan_csv(photon_stream, tmp_path):
    scan = fringe_scan(photon_stream, np.linspace(0, 2 * math.pi, 8, endpoint=False))
    assert len(scan.phases) == 8
    out = tmp_path / "scan.csv"
    scan.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "phase_rad,middle_counts,side_counts"
    assert len(lines) == 9


def _michelson_counts(stream, phases, salt):
    """(early side, middle, late side, n_input) per setpoint, from full
    michelson runs."""
    rows = []
    for phi in phases:
        res = michelson(reject_reset_light(stream), float(phi), salt=salt)
        rows.append((*res.slot_counts(), res.n_input))
    return rows


def _scan_counts(scan):
    return list(zip(scan.early_side_counts.tolist(), scan.middle_counts.tolist(),
                    scan.late_side_counts.tolist(), scan.n_input.tolist()))


def test_fringe_scan_counts_what_michelson_detects(stray_stream):
    assert stray_stream.origin_mask(Origin.RESET_FLASH).any()
    assert stray_stream.origin_mask(Origin.BACKGROUND).any()
    phases = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
    scan = fringe_scan(stray_stream, phases, salt=11)
    assert _scan_counts(scan) == _michelson_counts(stray_stream, phases, 11)


def test_live_fringe_scan_counts_what_michelson_detects(params):
    seq = sequence_for_pgen(0.6, phase2=0.9)
    noisy = replace(params, background_rate=0.2)
    phases = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
    scan = fringe_scan(seq, phases, params=noisy, n_trajectories=3000,
                       seed=31, salt=4)
    expected = [_michelson_counts(
        run(seq, noisy, 3000, derived_seed(31, _TAG_FRINGE, k)), [phi], 4)[0]
        for k, phi in enumerate(phases)]
    assert _scan_counts(scan) == expected


@pytest.mark.parametrize("p_hole_init", [1.0, 0.5])
def test_live_scan_side_peaks_match_michelson_expected(params, p_hole_init):
    noisy = replace(params, p_hole_init=p_hole_init)  # reset flash is on
    seq = sequence_for_pgen(0.6, phase2=0.9)
    phases = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
    scan = fringe_scan(seq, phases, params=noisy, n_trajectories=20_000, seed=32)
    windows = 20_000 * phases.size
    state = generate_state(seq, noisy)
    for counts, slot in ((scan.early_side_counts, 0), (scan.late_side_counts, 2)):
        p = michelson_expected(state, 0.0)[slot]
        assert abs(counts.sum() / windows - p) < 3.0 * math.sqrt(p * (1.0 - p) / windows)


def test_live_scan_middle_slot_matches_michelson_expected(clean_params):
    # equal intensities give both pulses one coherent fraction, so the
    # state's sqrt(C_0 C_1) is the routing's C_min; the bins hold 1/2 and 1/4
    seq = PulseSequence(pulses=(ResonantPulse(intensity=1.0),
                                ResonantPulse(intensity=1.0, phase=0.9)))
    state = generate_state(seq, clean_params)
    assert state.p_early == pytest.approx(2.0 * state.p_late)
    phases = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
    n = 50_000
    scan = fringe_scan(seq, phases, params=clean_params, n_trajectories=n, seed=33)
    for phi, count in zip(phases, scan.middle_counts):
        p = michelson_expected(state, phi)[1]
        assert abs(count / n - p) < 3.0 * math.sqrt(p * (1.0 - p) / n), phi


def test_fringe_scan_modulates_middle_counts(photon_stream):
    scan = fringe_scan(photon_stream, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    bright, dark = scan.middle_counts[0], scan.middle_counts[2]
    assert bright > dark  # constructive vs destructive quadrature


# -- spectral filtering -------------------------------------------------------

def test_filter_transmission_frozen_values():
    assert filter_transmission(0.0, 0.0, 5.0, extinction=0.0) == 1.0
    assert filter_transmission(2.5, 0.0, 5.0, extinction=0.0) == \
        pytest.approx(L2_AT_HALF_WIDTH, abs=1e-15)
    assert filter_transmission(9.55, 0.0, 5.0, extinction=0.0) == \
        pytest.approx(L2_AT_SPLIT, abs=1e-15)
    assert filter_transmission(19.1, 0.0, 5.0, extinction=0.0) == \
        pytest.approx(L2_AT_FULL_SPLIT, abs=1e-15)
    # the leakage floor takes over once the line has fallen below it
    assert filter_transmission(19.1, 0.0, 5.0, extinction=1e-3) == 1e-3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fwhm", [5e-324, 2.2250738585072014e-308, 1e-200,
                                  5.0, 1e308])
def test_lorentzian_line_never_overflows(fwhm):
    line = lorentzian_line(np.array([0.0, 1.0, -1.4e5, 1e300]), 0.0, fwhm)
    assert line[0] == 1.0
    assert np.all((line >= 0.0) & (line <= 1.0))
    assert filter_transmission(0.0, 0.0, fwhm) == 1.0


def test_lorentzian_cap_leaves_the_line_below_it_alone():
    assert lorentzian_line(2.0 ** 499, 0.0, 1.0) == 1.0 / (1.0 + 2.0 ** 1000)
    assert 0.0 < lorentzian_line(2.0 ** 510, 0.0, 1.0) <= 2.0 ** -1000


def test_filter_transmission_monotone_in_detuning():
    offsets = np.linspace(0, 30, 200)
    trans = filter_transmission(offsets, 0.0, 5.0, extinction=0.0)
    assert np.all(np.diff(trans) < 0)
    assert lorentzian_line(0.0, 0.0, 5.0) == 1.0


def test_spectral_filter_statistics_and_determinism(photon_stream):
    wide = spectral_filter(photon_stream, 0.0, 1e9, extinction=0.0)
    assert len(wide) / len(photon_stream) > 0.999

    tight = spectral_filter(photon_stream, -9.55, 5.0, extinction=1e-3)
    again = spectral_filter(photon_stream, -9.55, 5.0, extinction=1e-3)
    assert np.array_equal(tight.columns["timestamp_ps"],
                          again.columns["timestamp_ps"])

    # coherent photons sit at energy 0 and leak the frozen off-center value;
    # the incoherent ones follow their Lorentzian line, which leaks more
    n = len(photon_stream)
    n_coh = int(photon_stream.origin_mask(Origin.COHERENT_RAMAN).sum())
    n_inc = int(photon_stream.origin_mask(Origin.INCOHERENT_DECAY).sum())
    assert n_coh + n_inc == n
    p = (n_coh * L2_AT_SPLIT + n_inc * INCOHERENT_LEAK) / n
    assert abs(len(tight) / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    with pytest.raises(ValueError):
        spectral_filter(photon_stream, 0.0, -1.0)
    with pytest.raises(ValueError):
        spectral_filter(photon_stream, 0.0, 5.0, extinction=1.5)


# -- intensity correlations ---------------------------------------------------

def _windowed(stream):
    """Standard correlator preparation: each event inside its own window."""
    window = stream.params.window_ps(stream.sequence.n_bins)
    return gate(reject_reset_light(stream), 0.0, window)


def test_g2_vanishes_for_a_single_photon_stream(photon_stream):
    res = hbt_g2(_windowed(photon_stream))
    assert res.zero_lag == 0.0
    assert res.lags.tolist() == list(range(-5, 6))
    assert np.all(res.g2 >= 0)


def test_g2_decay_tails_motivate_the_window_gate(photon_stream):
    # ungated, the rare > 3 ns decay tail spills into the next window and
    # fakes a tiny zero-lag signal; the gate removes it entirely
    raw = hbt_g2(photon_stream).zero_lag
    assert 0.0 < raw < 0.01


def test_g2_csv_and_window_argument(photon_stream, tmp_path):
    res = hbt_g2(photon_stream, window=3)
    assert len(res.g2) == 7
    out = tmp_path / "g2.csv"
    res.to_csv(out)
    assert out.read_text().splitlines()[0] == "lag_periods,g2"
    with pytest.raises(ValueError):
        hbt_g2(photon_stream, window=0)


def test_g2_poissonian_control(clean_params):
    cfg = replace(clean_params, p_hole_init=0.0, background_rate=0.5)
    stream = run(two_pulse_sequence(), cfg, 50_000, seed=26)
    res = hbt_g2(_windowed(stream))
    mid = len(res.g2) // 2
    assert abs(res.zero_lag - 1.0) < 3 * res.se[mid]


def test_g2_background_raises_zero_lag(clean_params):
    cfg = replace(clean_params, background_rate=0.05)
    stream = run(two_pulse_sequence(), cfg, 50_000, seed=27)
    res = hbt_g2(_windowed(stream))
    assert res.zero_lag > 0.0
    assert res.zero_lag < 0.5


def test_g2_insufficient_statistics(clean_params):
    stream = run(two_pulse_sequence(), clean_params, 1, seed=28)
    with pytest.raises(InsufficientStatisticsError):
        hbt_g2(stream)


def test_analytic_background_rate_inverts_the_g2_formula():
    assert background_rate_for_g2(0.5, 0.01) == \
        pytest.approx(LAMBDA_G2_001_P_HALF, abs=1e-15)
    for p, target in ((0.3, 0.02), (1.0, 0.05), (0.5, 0.2)):
        lam = background_rate_for_g2(p, target)
        assert lam * (2 * p + lam) / (p + lam) ** 2 == pytest.approx(target)
    with pytest.raises(ValueError):
        background_rate_for_g2(0.5, 0.0)
    with pytest.raises(ValueError):
        background_rate_for_g2(0.0, 0.01)


def test_closed_form_calibration_hits_the_target(clean_params):
    target, seq = 0.05, two_pulse_sequence()
    rate = calibrate_background_for_g2(seq, clean_params, target,
                                       n_trajectories=40_000, seed=29)
    assert rate == background_rate_for_g2(
        gated_photon_probability(seq, clean_params), target)
    measured = measure_g2(seq, replace(clean_params, background_rate=rate),
                          40_000, seed=30).zero_lag
    assert measured == pytest.approx(target, abs=0.01)


@pytest.mark.parametrize("zero_lag,ok", [(0.099, True), (0.101, False),
                                         (-0.001, False)])
def test_calibration_check_run_beyond_5_sigma_raises(clean_params, monkeypatch,
                                                     zero_lag, ok):
    # a check run at target 0.05 with a zero-lag sigma of 0.01
    def measured(stream, **_):
        return HbtResult(lags=np.arange(-1, 2), g2=np.array([1.0, zero_lag, 1.0]),
                         coincidences=np.full(3, 1e4), norm=1e4,
                         se=np.full(3, 0.01))

    def calibrate():
        return calibrate_background_for_g2(two_pulse_sequence(), clean_params,
                                           0.05, n_trajectories=2000, seed=1)

    monkeypatch.setattr(measurement, "hbt_g2", measured)
    if ok:
        assert calibrate() > 0
    else:
        with pytest.raises(InsufficientStatisticsError, match="sigma off"):
            calibrate()


def test_calibration_makes_exactly_one_run(params, monkeypatch):
    runs, windows = [], []
    real_run, real_hbt = measurement.run, measurement.hbt_g2
    monkeypatch.setattr(measurement, "run",
                        lambda *a, **k: runs.append(a) or real_run(*a, **k))
    monkeypatch.setattr(measurement, "hbt_g2",
                        lambda s, **k: windows.append(k) or real_hbt(s, **k))
    rate = calibrate_background_for_g2(two_pulse_sequence(), params, 0.05,
                                       n_trajectories=20_000, seed=3, window=4)
    assert len(runs) == 1
    _, run_params, n, seed = runs[0]
    assert (run_params.background_rate, n, seed) == (rate, 20_000, 3)
    assert windows == [{"window": 4}]


# (params overrides, sequence): each gated photon fraction within a
# binomial 4 sigma of the closed form, with no stray light
@pytest.mark.parametrize("overrides,seq", [
    ({}, two_pulse_sequence()),
    ({"detector_jitter": 0.0}, two_pulse_sequence()),
    ({"p_hole_init": 0.2, "t1_radiative": 900.0, "detector_jitter": 300.0},
     two_pulse_sequence()),
    ({"t1_radiative": 2000.0, "detector_jitter": 0.0}, sequence_for_pgen(0.3)),
    ({"t1_radiative": 20.0, "detector_jitter": 1000.0}, two_pulse_sequence()),
    ({"bin_separation": 1.2, "pulse_duration": 500.0, "t1_radiative": 600.0},
     two_pulse_sequence(scale=0.6)),
])
def test_gated_photon_probability_matches_the_simulation(params, overrides, seq):
    cfg = replace(params, background_rate=0.0, reset_flash_rate=0.0, **overrides)
    n = 40_000
    stream = run(seq, cfg, n, seed=31)
    gated = len(gate(stream, 0.0, cfg.window_ps(seq.n_bins))) / n
    p = gated_photon_probability(seq, cfg)
    assert abs(gated - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("t1,jitter", [(250.0, 30.0), (900.0, 300.0),
                                       (20.0, 1000.0), (2000.0, 5.0)])
def test_delay_cdf_matches_scipy_exponnorm(t1, jitter):
    # both branches of the stable form against scipy's own EMG CDF
    for x in (100.0, 1500.0, 3000.0):
        assert measurement._delay_cdf(x, t1, jitter) == pytest.approx(
            exponnorm.cdf(x, t1 / jitter, scale=jitter), rel=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t1", [1e-100, 1e100])
@pytest.mark.parametrize("jitter", [0.0, 1e-100, 30.0, 1e100])
@pytest.mark.parametrize("bin_separation", [1e-95, 1.5, 1e100])
def test_gated_photon_probability_is_finite_at_the_parameter_bounds(
        t1, jitter, bin_separation):
    params = PhysicalParams(t1_radiative=t1, detector_jitter=jitter,
                            bin_separation=bin_separation,
                            pulse_duration=min(1000.0, bin_separation))
    p = gated_photon_probability(two_pulse_sequence(), params)
    assert 0.0 <= p <= params.p_hole_init
