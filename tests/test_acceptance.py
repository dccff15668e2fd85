"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
``criterion N: PASS/FAIL`` line (run with ``pytest -s`` to see them on
success).  Tolerances are pinned in the assertions; statistical checks use
3 sigma with the sigma stated next to the check.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import SeedSequence

from timebinsim import (PhysicalParams, bloch_of_state,
                        calibrate_background_for_g2, direction_fidelity,
                        expected_visibility, fit_fringe, fringe_scan, gate,
                        generate_state, hbt_g2, michelson_expected,
                        qubit_phase, reconstruct, recovery_report,
                        reject_reset_light, run, sequence_for_pgen,
                        two_pulse_sequence, unwrap_phases)
from timebinsim.cli import main
from timebinsim.wdm import build_wdm_sequence

from oracle_values import EXPECTED_VISIBILITY

CLEAN = PhysicalParams(p_hole_init=1.0, background_rate=0.0,
                       reset_flash_rate=0.0)
SCAN_PHASES = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)


def subseed(*entropy):
    return int(SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def conclude(n, ok, detail):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def measure(p_gen, phase2, n_per_point, seed, params=CLEAN):
    scan = fringe_scan(sequence_for_pgen(p_gen, phase2=phase2), SCAN_PHASES,
                       params=params, n_trajectories=n_per_point, seed=seed)
    return fit_fringe(scan)


def windowed_g2(params, n_trajectories, seed, scale=1.0):
    seq = two_pulse_sequence(scale=scale)
    stream = run(seq, params, n_trajectories, seed)
    prepared = gate(reject_reset_light(stream), 0.0,
                    params.window_ps(seq.n_bins))
    return hbt_g2(prepared, window=5)


def test_criterion_1_visibility_ceiling():
    ceiling = expected_visibility(1e-12, PhysicalParams())
    ok = abs(ceiling - 0.7788) < 0.0005
    conclude(1, ok, f"expected_visibility(p->0) = {ceiling:.6f} "
                    f"(target 0.7788 +- 0.0005)")


def test_criterion_2_monte_carlo_matches_the_analytic_visibility():
    powers = [0.1, 0.325, 0.55, 0.775, 1.0]
    t0 = time.perf_counter()
    pulls = []
    for k, p_gen in enumerate(powers):
        analytic = expected_visibility(p_gen, CLEAN)
        assert analytic == pytest.approx(EXPECTED_VISIBILITY[p_gen], abs=1e-12)
        fit = measure(p_gen, 0.0, 100_000, subseed(2, k))
        pulls.append(abs(fit.visibility - analytic) / fit.visibility_err)
    elapsed = time.perf_counter() - t0
    ok = max(pulls) < 3.0 and elapsed < 120.0
    conclude(2, ok, f"max pull {max(pulls):.2f} sigma over {len(powers)} "
                    f"drive powers at 1e5 trajectories/point ({elapsed:.0f} s)")


def test_criterion_3_programmed_phase_is_recovered():
    delta = 0.58 * math.pi
    reference = measure(1.0, 0.0, 100_000, subseed(3, 0))
    modulated = measure(1.0, delta, 100_000, subseed(3, 1))
    recovered = qubit_phase(reference, modulated)
    phase_ok = abs(recovered - delta) < 0.02 * math.pi

    programmed = np.linspace(0.0, 2.94 * math.pi, 8)
    fits = [measure(1.0, d, 20_000, subseed(3, 10 + i))
            for i, d in enumerate(programmed)]
    wrapped = [qubit_phase(reference, f) for f in fits]
    unwrapped = unwrap_phases(wrapped)
    monotone = bool(np.all(np.diff(unwrapped) > 0))

    vis = np.array([f.visibility for f in fits])
    err = np.array([f.visibility_err for f in fits])
    mean_v = float(np.average(vis, weights=1.0 / err**2))
    v_pull = float(np.max(np.abs(vis - mean_v) / err))
    ok = phase_ok and monotone and v_pull < 3.0
    conclude(3, ok, f"0.58pi recovered as {recovered / math.pi:.4f}pi "
                    f"(+-0.02pi), sweep to 2.94pi monotone={monotone}, "
                    f"visibility spread {v_pull:.2f} sigma")


def test_criterion_4_deterministic_single_photon_generation():
    n = 1_000_000
    stream = run(two_pulse_sequence(), CLEAN, n, seed=44)
    per_window = np.bincount(stream.columns["trajectory_id"], minlength=n)
    one_each = per_window.min() == per_window.max() == 1
    early = int(np.sum(stream.columns["bin_index"] == 0))
    sigma = math.sqrt(0.25 / n)
    split_ok = abs(early / n - 0.5) < 3.0 * sigma
    conclude(4, one_each and split_ok,
             f"{len(stream)} photons in {n} windows (exactly one each: "
             f"{one_each}), early fraction {early / n:.4f} "
             f"(0.5 +- {3 * sigma:.4f})")


def test_criterion_5_wdm_recovery():
    report = recovery_report(params=CLEAN, n_trajectories=100_000, seed=55,
                             fwhm_uev=5.0, extinction=1e-3)
    none_row = report.row("none")
    sigma = math.sqrt(0.25 / none_row.transmitted)
    balanced = abs(none_row.early_frac - 0.5) < 3.0 * sigma
    red_ok = report.row("red").early_frac >= 0.99
    blue_ok = report.row("blue").late_frac >= 0.99

    scan = fringe_scan(build_wdm_sequence(), SCAN_PHASES, params=CLEAN,
                       n_trajectories=20_000, seed=56)
    fit = fit_fringe(scan)
    washed = fit.visibility < 3.0 * fit.visibility_err
    ok = balanced and red_ok and blue_ok and washed
    conclude(5, ok, f"unfiltered early {none_row.early_frac:.4f} "
                    f"(0.5 +- {3 * sigma:.4f}), red early "
                    f"{report.row('red').early_frac:.4f} >= 0.99, blue late "
                    f"{report.row('blue').late_frac:.4f} >= 0.99, free-running "
                    f"cross-bin V {fit.visibility:.4f} < "
                    f"{3 * fit.visibility_err:.4f}")


def test_criterion_6_single_photon_purity():
    clean_g2 = windowed_g2(CLEAN, 100_000, seed=66).zero_lag
    exact_zero = clean_g2 == 0.0

    defaults = PhysicalParams()
    rate = calibrate_background_for_g2(two_pulse_sequence(), defaults, 0.01,
                                       n_trajectories=200_000, seed=67)
    measured = windowed_g2(replace(defaults, background_rate=rate),
                           200_000, seed=68).zero_lag
    calibrated_ok = abs(measured - 0.01) < 0.005

    poisson = replace(CLEAN, p_hole_init=0.0, background_rate=0.5)
    control = windowed_g2(poisson, 100_000, seed=69)
    mid = len(control.g2) // 2
    control_ok = abs(control.zero_lag - 1.0) < 3.0 * control.se[mid]
    ok = exact_zero and calibrated_ok and control_ok
    conclude(6, ok, f"background-free g2(0) = {clean_g2} (exact 0), "
                    f"calibrated g2(0) = {measured:.4f} (0.01 +- 0.005, rate "
                    f"{rate:.5f}/window), Poisson control "
                    f"{control.zero_lag:.3f} +- {control.se[mid]:.3f}")


def test_criterion_7_tomography_round_trip():
    deltas = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)

    # analytic pipeline, no noise anywhere
    worst = 0.0
    for delta in deltas:
        seq = sequence_for_pgen(1.0, phase2=float(delta))
        state = generate_state(seq, CLEAN)
        counts = {}
        for tag, st in (("ref", generate_state(sequence_for_pgen(1.0), CLEAN)),
                        ("mod", state)):
            counts[tag] = [1e6 * michelson_expected(st, float(phi))[1]
                           for phi in SCAN_PHASES]
        ref = fit_fringe(SCAN_PHASES, counts["ref"])
        mod = fit_fringe(SCAN_PHASES, counts["mod"])
        total = state.p_early + state.p_late
        vec = reconstruct(state.p_early / total, state.p_late / total,
                          mod.visibility, qubit_phase(ref, mod))
        target = bloch_of_state(state)
        worst = max(worst, abs(vec.x - target.x), abs(vec.y - target.y),
                    abs(vec.z - target.z))
    analytic_ok = worst <= 1e-6

    # Monte-Carlo pipeline at 1e6 trajectories per setpoint
    per_point = 83_334  # 12 phase points ~ 1e6 windows per fringe scan
    reference = measure(1.0, 0.0, per_point, subseed(7, 0))
    fidelities = []
    for i, delta in enumerate(deltas):
        seq = sequence_for_pgen(1.0, phase2=float(delta))
        fit = measure(1.0, float(delta), per_point, subseed(7, 1 + i))
        pop = run(seq, CLEAN, 1_000_000, subseed(7, 100 + i))
        pop = pop.subset(pop.photon_mask)
        bins = pop.columns["bin_index"]
        p_e = float(np.sum(bins == 0)) / pop.n_trajectories
        p_l = float(np.sum(bins >= 1)) / pop.n_trajectories
        vec = reconstruct(p_e, p_l, fit.visibility, qubit_phase(reference, fit))
        fidelities.append(direction_fidelity(
            vec, bloch_of_state(generate_state(seq, CLEAN))))
    mc_ok = min(fidelities) >= 0.99
    conclude(7, analytic_ok and mc_ok,
             f"noiseless round trip max error {worst:.2e} (<= 1e-6), MC "
             f"fidelity >= {min(fidelities):.4f} over 8 equator setpoints "
             f"at 1e6 trajectories each")


def test_criterion_8_byte_identical_determinism(tmp_path, capsys):
    args = ["simulate", "--trajectories", "500", "--seed", "88"]
    pair = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(args + ["--out", str(out)]) == 0
        pair.append({name: (out / name).read_bytes()
                     for name in ("events.csv", "simulate.meta.json")})
    capsys.readouterr()
    cli_ok = pair[0] == pair[1]

    seq = two_pulse_sequence()
    chunked = [run(seq, PhysicalParams(), 50_000, 888, chunk_size=c)
               for c in (50_000, 4096, 999)]
    mc_ok = all(
        s.columns.keys() == chunked[0].columns.keys()
        and all(s.columns[k].tobytes() == chunked[0].columns[k].tobytes()
                for k in s.columns)
        for s in chunked[1:])
    conclude(8, cli_ok and mc_ok,
             f"CLI rerun byte-identical: {cli_ok}, chunk sizes "
             f"(50000, 4096, 999) bit-identical: {mc_ok}")
