"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed in :meth:`setup`,
runs one experiment per :meth:`op` call (the timed part), and checks the
op's result against the acceptance-criterion tolerances in :meth:`check`,
which returns ``None`` when the result is correct and a reason otherwise.
:meth:`work` gives the windows and events one op handled, for the
throughput metrics.

Package functions are called through their modules (``measurement.gate``,
not a name bound here) so that the span recorder's wrappers see every call.

``scale`` shrinks every size for the benchmark's own tests; the benchmark
itself always runs at ``scale=1``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import shutil
from dataclasses import replace

import numpy as np
from numpy.random import SeedSequence

from timebinsim import cli, dynamics, measurement, montecarlo, tomography, wdm
from timebinsim.core import PhysicalParams


def derive(*entropy: int) -> int:
    """Seed for one input, derived from the benchmark seed and a path."""
    return int(SeedSequence([int(e) for e in entropy]).generate_state(1, np.uint64)[0])


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _wrapped(x: float) -> float:
    return math.remainder(x, 2.0 * math.pi)


class PhaseReadout:
    """``phase-qubits`` at its defaults: p_gen=1, a reference and 8 phases,
    12 setpoints x 20 000 windows per scan, 8 population runs (criterion 7
    at CLI size, about 116 small ``run()`` calls)."""

    name = "phase_readout"

    def __init__(self, scale: float = 1.0):
        self.trajectories = max(1, int(20_000 * scale))

    def setup(self, seed: int, workdir: str) -> dict:
        return {"seed": seed, "workdir": workdir}

    def op(self, inputs: dict, k: int):
        out = os.path.join(inputs["workdir"], f"phase-{k}")
        code, _ = _cli(["phase-qubits", "--out", out,
                        "--seed", str(derive(inputs["seed"], k)),
                        "--p-gen", "1", "--scan-points", "12",
                        "--trajectories", str(self.trajectories)])
        return code, out

    def check(self, inputs: dict, result) -> str | None:
        code, out = result
        try:
            if code != 0:
                return f"phase-qubits exited {code}"
            fits = _read_csv(os.path.join(out, "fits.csv"))
            bloch = _read_csv(os.path.join(out, "bloch.csv"))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if len(fits) != 8 or len(bloch) != 8:
            return f"expected 8 setpoints, got {len(fits)} fits, {len(bloch)} states"
        err = max(abs(_wrapped(float(r["recovered_rad"]) - float(r["programmed_rad"])))
                  for r in fits)
        fid = min(float(r["fidelity"]) for r in bloch)
        if not err <= 0.02 * math.pi:
            return f"phase error {err / math.pi:.4f}pi > 0.02pi"
        if not fid >= 0.99:
            return f"direction fidelity {fid:.5f} < 0.99"
        return None

    def work(self, inputs: dict, counter) -> tuple[int, int]:
        return counter.traj, counter.events


class G2Calibration:
    """``g2 --calibrate-g2 0.01`` at defaults (about 16 bisection ``run()``
    calls of 2e5 windows), then a Poisson-only control at 5e5 windows
    (criterion 6)."""

    name = "g2_calibration"
    _G2_LINE = re.compile(r"g2\(0\) = (\S+) \+- (\S+)")

    def __init__(self, scale: float = 1.0):
        self.trajectories = max(1, int(200_000 * scale))
        self.control_trajectories = max(1, int(500_000 * scale))

    def setup(self, seed: int, workdir: str) -> dict:
        return {"seed": seed, "workdir": workdir}

    def op(self, inputs: dict, k: int):
        base = os.path.join(inputs["workdir"], f"g2-{k}")
        calibrated = _cli(["g2", "--out", os.path.join(base, "calibrated"),
                           "--seed", str(derive(inputs["seed"], k, 0)),
                           "--calibrate-g2", "0.01",
                           "--trajectories", str(self.trajectories)])
        control = _cli(["g2", "--out", os.path.join(base, "control"),
                        "--seed", str(derive(inputs["seed"], k, 1)),
                        "--background", "0.5", "--param", "p_hole_init=0",
                        "--param", "reset_flash_rate=0",
                        "--trajectories", str(self.control_trajectories)])
        return base, calibrated, control

    def check(self, inputs: dict, result) -> str | None:
        base, (code_cal, out_cal), (code_ctl, out_ctl) = result
        try:
            if code_cal != 0 or code_ctl != 0:
                return f"g2 exited {code_cal} (calibration), {code_ctl} (control)"
            rows = _read_csv(os.path.join(base, "calibrated", "g2.csv"))
        finally:
            shutil.rmtree(base, ignore_errors=True)
        g2_cal = next(float(r["g2"]) for r in rows if int(r["lag_periods"]) == 0)
        if not abs(g2_cal - 0.01) <= 0.005:
            return f"calibrated g2(0) = {g2_cal:.5f}, not 0.01 +- 0.005"
        match = self._G2_LINE.search(out_ctl)
        if match is None:
            return "control printed no g2(0) line"
        g2_ctl, se = float(match.group(1)), float(match.group(2))
        if not abs(g2_ctl - 1.0) <= 5.0 * se:
            return f"Poisson control g2(0) = {g2_ctl} +- {se}, not within 5 sigma of 1"
        return None

    def work(self, inputs: dict, counter) -> tuple[int, int]:
        return counter.traj, counter.events


class Remeasure:
    """Re-measure two recorded 1e6-window streams (two-pulse and two-colour,
    default params, background 0.05) with no simulation inside the op:
    reset-light rejection, a 12-setpoint fringe scan and fit, gate + HBT,
    and the two-colour recovery report."""

    name = "remeasure"
    BACKGROUND = 0.05

    def __init__(self, scale: float = 1.0):
        self.trajectories = max(1, int(1_000_000 * scale))

    def setup(self, seed: int, workdir: str) -> dict:
        params = replace(PhysicalParams(), background_rate=self.BACKGROUND)
        seq = dynamics.sequence_for_pgen(1.0)
        spec = wdm.WdmSpec.for_splitting(params.spin_splitting)
        two_pulse = montecarlo.run(seq, params, self.trajectories, derive(seed, 1))
        two_colour = montecarlo.run(wdm.build_wdm_sequence(spec), params,
                                    self.trajectories, derive(seed, 2))
        # Background counts land in the overlap slot like photons but never
        # interfere, so they dilute the fringe by p / (p + background).
        p = dynamics.generate_state(seq, params).p_total
        lam = self.BACKGROUND
        return {"seed": seed, "params": params, "spec": spec,
                "two_pulse": two_pulse, "two_colour": two_colour,
                "visibility": dynamics.expected_visibility(1.0, params) * p / (p + lam),
                "g2": lam * (2.0 * p + lam) / (p + lam) ** 2}

    def op(self, inputs: dict, k: int):
        salt = derive(inputs["seed"], 3, k)
        prepared = measurement.reject_reset_light(inputs["two_pulse"])
        scan = measurement.fringe_scan(
            prepared, np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False), salt=salt)
        fit = tomography.fit_fringe(scan)
        gated = measurement.gate(prepared, 0.0, inputs["params"].window_ps(2))
        g2 = measurement.hbt_g2(gated, window=5, salt=salt)
        report = wdm.recovery_report(inputs["spec"], inputs["params"],
                                     stream=inputs["two_colour"])
        return fit, g2, report

    def check(self, inputs: dict, result) -> str | None:
        fit, g2, report = result
        if not abs(fit.visibility - inputs["visibility"]) <= 5.0 * fit.visibility_err:
            return (f"visibility {fit.visibility:.5f} +- {fit.visibility_err:.5f}, "
                    f"expected {inputs['visibility']:.5f}")
        se = float(g2.se[len(g2.se) // 2])
        if not abs(g2.zero_lag - inputs["g2"]) <= 5.0 * se:
            return f"g2(0) {g2.zero_lag:.5f} +- {se:.5f}, expected {inputs['g2']:.5f}"
        if len(report.rows) != 3:
            return f"recovery report has {len(report.rows)} rows, expected 3"
        return None

    def work(self, inputs: dict, counter) -> tuple[int, int]:
        streams = (inputs["two_pulse"], inputs["two_colour"])
        return sum(s.n_trajectories for s in streams), sum(len(s) for s in streams)


class EventIO:
    """Write a recorded 3e5-window stream as CSV and as TBQ binary, read
    both back and compare every column exactly."""

    name = "event_io"

    def __init__(self, scale: float = 1.0):
        self.trajectories = max(1, int(300_000 * scale))

    def setup(self, seed: int, workdir: str) -> dict:
        stream = montecarlo.run(dynamics.sequence_for_pgen(1.0), PhysicalParams(),
                                self.trajectories, derive(seed, 1))
        return {"stream": stream, "csv": os.path.join(workdir, "events.csv"),
                "bin": os.path.join(workdir, "events.bin")}

    def op(self, inputs: dict, k: int):
        stream = inputs["stream"]
        stream.to_csv(inputs["csv"])
        stream.to_binary(inputs["bin"])
        from_csv = montecarlo.EventStream.from_csv(
            inputs["csv"], params=stream.params, sequence=stream.sequence,
            seed=stream.seed, n_trajectories=stream.n_trajectories)
        from_binary = montecarlo.EventStream.from_binary(inputs["bin"])
        return from_csv, from_binary

    def check(self, inputs: dict, result) -> str | None:
        original = inputs["stream"]
        for label, copy in zip(("csv", "binary"), result):
            for key, column in original.columns.items():
                got = copy.columns.get(key)
                if got is None or got.dtype != column.dtype \
                        or not np.array_equal(got, column):
                    return f"{label} round trip changed column {key}"
        binary = result[1]
        if (binary.params, binary.sequence, binary.seed, binary.n_trajectories) != \
                (original.params, original.sequence, original.seed, original.n_trajectories):
            return "binary round trip changed the provenance header"
        return None

    def work(self, inputs: dict, counter) -> tuple[int, int]:
        stream = inputs["stream"]
        # each event is written and read once per format
        return stream.n_trajectories, 2 * len(stream)


WORKLOADS = {w.name: w for w in (PhaseReadout, G2Calibration, Remeasure, EventIO)}
