import math

import numpy as np
import pytest

from timebinsim import (InsufficientStatisticsError, LaserId, Origin,
                        PhysicalParams, ValidationError, WdmSpec,
                        build_wdm_sequence, fit_fringe, fringe_scan,
                        recovery_report, run, wdm_state)

from oracle_values import (BLUE_FILTER_LATE_FRACTION, BLUE_FILTER_TRANSMISSION,
                           EXPECTED_VISIBILITY, IDEAL_COHERENCE,
                           RED_FILTER_EARLY_FRACTION, RED_FILTER_TRANSMISSION)


def binom_3sigma(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


# -- spec and sequence construction -------------------------------------------

def test_default_spec_straddles_the_spin_splitting():
    spec = WdmSpec()
    assert spec == WdmSpec.for_splitting(19.1)
    assert spec.red_detuning == -9.55
    assert spec.blue_detuning == 9.55
    assert spec.locked_phase is None
    assert spec.violations() == []


def test_spec_rejects_misordered_detunings():
    bad = WdmSpec(red_detuning=2.0, blue_detuning=9.55)
    assert any("red_detuning" in v for v in bad.violations())
    with pytest.raises(ValidationError):
        build_wdm_sequence(bad)


def test_spec_rejects_non_finite_locked_phase():
    bad = WdmSpec(locked_phase=float("nan"))
    assert any("locked_phase" in v for v in bad.violations())


def test_sequence_shape_free_running():
    seq = build_wdm_sequence()
    assert seq.random_interlaser_phase
    first, second = seq.pulses
    assert (first.intensity, second.intensity) == (1.0, 4.0)
    assert first.laser_id is LaserId.RED and second.laser_id is LaserId.BLUE
    assert first.detuning == -9.55 and second.detuning == 9.55
    assert first.phase == 0.0 and second.phase == 0.0


def test_sequence_shape_locked():
    seq = build_wdm_sequence(WdmSpec(locked_phase=0.3))
    assert not seq.random_interlaser_phase
    assert seq.pulses[1].phase == 0.3


# -- analytic channel states ---------------------------------------------------

def test_channel_states_at_full_preparation(clean_params):
    ws = wdm_state(params=clean_params)
    assert ws.red.p_early == pytest.approx(0.5, abs=1e-12)
    assert ws.red.p_late == 0.0
    assert ws.blue.p_early == 0.0
    assert ws.blue.p_late == pytest.approx(0.5, abs=1e-12)
    assert ws.combined.p_early == pytest.approx(0.5, abs=1e-12)
    assert ws.combined.p_late == pytest.approx(0.5, abs=1e-12)
    assert ws.combined.coherence == 0j
    assert not ws.relative_phase_known


def test_channel_states_scale_with_hole_occupation(params):
    ws = wdm_state(params=params)  # p_hole_init = 0.5
    assert ws.red.p_early == pytest.approx(0.25, abs=1e-12)
    assert ws.blue.p_late == pytest.approx(0.25, abs=1e-12)


def test_locked_lasers_keep_the_cross_bin_coherence(clean_params):
    ws = wdm_state(WdmSpec(locked_phase=0.0), clean_params)
    assert ws.relative_phase_known
    assert ws.combined.coherence.real == pytest.approx(IDEAL_COHERENCE, abs=1e-12)
    assert ws.combined.coherence.imag == pytest.approx(0.0, abs=1e-12)

    delta = 0.58 * math.pi
    ws2 = wdm_state(WdmSpec(locked_phase=delta), clean_params)
    assert np.angle(ws2.combined.coherence) == pytest.approx(-delta, abs=1e-12)
    assert abs(ws2.combined.coherence) == pytest.approx(IDEAL_COHERENCE, abs=1e-12)


# -- demultiplexing reports ----------------------------------------------------

@pytest.fixture(scope="module")
def clean_report():
    clean = PhysicalParams(p_hole_init=1.0, background_rate=0.0,
                           reset_flash_rate=0.0)
    return recovery_report(params=clean, n_trajectories=60_000, seed=7)


def test_unfiltered_bins_are_balanced(clean_report):
    row = clean_report.row("none")
    assert row.total == 60_000  # exactly one photon per window at full drive
    assert row.transmitted == row.total
    assert abs(row.early_frac - 0.5) < binom_3sigma(0.5, row.total)


def test_red_filter_recovers_the_early_bin(clean_report):
    row = clean_report.row("red")
    trans = row.transmitted / row.total
    assert abs(trans - RED_FILTER_TRANSMISSION) < binom_3sigma(
        RED_FILTER_TRANSMISSION, row.total)
    assert row.early_frac >= 0.99
    assert abs(row.early_frac - RED_FILTER_EARLY_FRACTION) < binom_3sigma(
        RED_FILTER_EARLY_FRACTION, row.transmitted)


def test_blue_filter_recovers_the_late_bin(clean_report):
    row = clean_report.row("blue")
    trans = row.transmitted / row.total
    assert abs(trans - BLUE_FILTER_TRANSMISSION) < binom_3sigma(
        BLUE_FILTER_TRANSMISSION, row.total)
    assert row.late_frac >= 0.99
    assert abs(row.late_frac - BLUE_FILTER_LATE_FRACTION) < binom_3sigma(
        BLUE_FILTER_LATE_FRACTION, row.transmitted)


def test_report_reanalyzes_a_given_stream(clean_params):
    stream = run(build_wdm_sequence(), clean_params, 4000, seed=5)
    report = recovery_report(stream=stream)
    assert report.n_trajectories == 4000
    assert report.seed == 5
    assert report.row("none").total == len(stream)


def test_report_drops_reset_light_first(params):
    stream = run(build_wdm_sequence(), params, 4000, seed=9)
    n_flash = int(stream.origin_mask(Origin.RESET_FLASH).sum())
    assert n_flash > 0
    report = recovery_report(stream=stream)
    assert report.row("none").total == len(stream) - n_flash


def test_report_csv_format(clean_params, tmp_path):
    stream = run(build_wdm_sequence(), clean_params, 2000, seed=3)
    report = recovery_report(stream=stream)
    out = tmp_path / "recovery.csv"
    report.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "filter,early_frac,late_frac,transmitted,total"
    assert len(lines) == 4
    assert [ln.split(",")[0] for ln in lines[1:]] == ["none", "red", "blue"]


def test_report_raises_when_a_channel_is_empty():
    dark = PhysicalParams(p_hole_init=0.0, background_rate=0.0,
                          reset_flash_rate=0.0)
    with pytest.raises(InsufficientStatisticsError, match="transmitted no events"):
        recovery_report(params=dark, n_trajectories=50, seed=1)


# -- cross-bin coherence in the interferometer ----------------------------------

def test_free_running_lasers_wash_out_the_fringe(clean_params):
    phases = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    scan = fringe_scan(build_wdm_sequence(), phases, params=clean_params,
                       n_trajectories=8000, seed=31)
    fit = fit_fringe(scan)
    assert fit.visibility < 0.03
    assert fit.visibility < 3.0 * fit.visibility_err + 0.01


def test_locked_lasers_show_the_fringe_at_the_programmed_phase(clean_params):
    delta = 0.58 * math.pi
    phases = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    scan = fringe_scan(build_wdm_sequence(WdmSpec(locked_phase=delta)), phases,
                       params=clean_params, n_trajectories=8000, seed=33)
    fit = fit_fringe(scan)
    assert abs(fit.visibility - EXPECTED_VISIBILITY[1.0]) < \
        3.0 * fit.visibility_err
    assert abs(math.remainder(fit.phase + delta, 2.0 * math.pi)) < \
        3.0 * fit.phase_err + 0.01
