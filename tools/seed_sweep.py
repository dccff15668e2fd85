"""Rerun every statistical check over fresh seeds and record its tail.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/seed_sweep.py --seeds 0-299 --out sweep.json

For each seed, each statistical workload of ``perfbench/workloads.py``
(``phase_readout``, ``g2_calibration`` and ``remeasure``) runs its
``setup`` and one ``op`` at that seed, and its ``check`` gives the verdict
the benchmark would.  Before the check cleans up, the sweep reads the
statistics that the check bounds:

- ``phase_readout``: the worst |phase error| of the 8 recovered phases, in
  units of pi, and the lowest direction fidelity;
- ``g2_calibration``: the calibrated g2(0) and the Poisson control's pull
  (g2(0) - 1) / se;
- ``remeasure``: the pulls of the fitted visibility and of g2(0) from their
  expected values.

Criterion 6's Poisson control adds one pull per seed: ``measure_g2`` at
``p_hole_init`` 0, background 0.5, no reset flash and 10**5 windows, with
the seed as the run's seed (seed 69 is the acceptance test's own run),
bounded at 3 sigma as there.  ``event_io``'s check is an exact round trip
with no statistic, so it is not swept.

The JSON file holds each statistic's bound, n, mean, sd (ddof 1), min, max,
failures and failure rate, and each check's ops, failure rate and the
failed ops as ``{"seed", "message"}``.  Every failure rate comes with its
one-sided 95% Clopper-Pearson upper bound (0 failures in 300 give 0.99%).
The ``suite`` line combines the checks as 1 - prod(1 - r_i), once from
their rates and once from their bounds; the latter is an upper estimate,
not itself a 95% bound.  ``--scale`` shrinks every size, as it does for
the workloads; a recorded sweep runs at 1.  A change that moves bytes runs
the sweep on the parent and on the change: a failure rate within the
binomial spread of the parent's is chance, not a defect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np
import scipy
from scipy.special import betaincinv

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
import workloads  # noqa: E402  (perfbench/ is on the path only from here)

from timebinsim import PhysicalParams, two_pulse_sequence  # noqa: E402
from timebinsim.core import InsufficientStatisticsError  # noqa: E402
from timebinsim.measurement import measure_g2  # noqa: E402


def _phase_readout(inputs: dict, result) -> dict[str, float]:
    code, out = result
    if code != 0:
        return {}
    fits = workloads._read_csv(os.path.join(out, "fits.csv"))
    bloch = workloads._read_csv(os.path.join(out, "bloch.csv"))
    err = max(abs(workloads._wrapped(float(r["recovered_rad"]) - float(r["programmed_rad"])))
              for r in fits)
    return {"worst_phase_error_pi": err / math.pi,
            "lowest_fidelity": min(float(r["fidelity"]) for r in bloch)}


def _g2_calibration(inputs: dict, result) -> dict[str, float]:
    base, (code_cal, _), (code_ctl, out_ctl) = result
    stats = {}
    if code_cal == 0:
        rows = workloads._read_csv(os.path.join(base, "calibrated", "g2.csv"))
        stats["calibrated_g2"] = next(float(r["g2"]) for r in rows
                                      if int(r["lag_periods"]) == 0)
    match = workloads.G2Calibration._G2_LINE.search(out_ctl)
    if code_ctl == 0 and match is not None:
        stats["control_pull"] = (float(match.group(1)) - 1.0) / float(match.group(2))
    return stats


def _remeasure(inputs: dict, result) -> dict[str, float]:
    fit, g2, _ = result
    return {"visibility_pull": (fit.visibility - inputs["visibility"]) / fit.visibility_err,
            "g2_pull": (g2.zero_lag - inputs["g2"]) / float(g2.se[len(g2.se) // 2])}


# workload: statistics of one op's result, read before its check runs
READERS = {"phase_readout": _phase_readout, "g2_calibration": _g2_calibration,
           "remeasure": _remeasure}

# statistic: (bound, whether a value passes it), as the checks state them
BOUNDS = {
    "phase_readout.worst_phase_error_pi": ("<= 0.02", lambda x: x <= 0.02),
    "phase_readout.lowest_fidelity": (">= 0.99", lambda x: x >= 0.99),
    "g2_calibration.calibrated_g2": ("|x - 0.01| <= 0.005",
                                     lambda x: abs(x - 0.01) <= 0.005),
    "g2_calibration.control_pull": ("|x| <= 5", lambda x: abs(x) <= 5.0),
    "remeasure.visibility_pull": ("|x| <= 5", lambda x: abs(x) <= 5.0),
    "remeasure.g2_pull": ("|x| <= 5", lambda x: abs(x) <= 5.0),
    "criterion_6.control_pull": ("|x| < 3", lambda x: abs(x) < 3.0),
}


def _criterion_6(seed: int, scale: float) -> tuple[str | None, dict[str, float]]:
    """Criterion 6's Poisson control at ``seed``: its failure and its pull."""
    poisson = PhysicalParams(p_hole_init=0.0, background_rate=0.5, reset_flash_rate=0.0)
    try:
        control = measure_g2(two_pulse_sequence(), poisson,
                             max(1, int(100_000 * scale)), seed)
    except InsufficientStatisticsError as exc:
        return str(exc), {}
    pull = (control.zero_lag - 1.0) / control.se[len(control.g2) // 2]
    ok = BOUNDS["criterion_6.control_pull"][1](pull)
    return None if ok else f"Poisson control {pull:+.2f} sigma off 1", {"control_pull": pull}


def sweep(seeds, scale: float = 1.0) -> list[dict]:
    """One record per seed and check: ``{"check", "seed", "failure",
    "statistics"}``, with ``failure`` the check's message or None."""
    records = []
    for seed in seeds:
        for name, read in READERS.items():
            workload = workloads.WORKLOADS[name](scale)
            with tempfile.TemporaryDirectory() as workdir:
                inputs = workload.setup(seed, workdir)
                result = workload.op(inputs, 0)
                stats = read(inputs, result)
                failure = workload.check(inputs, result)
            records.append({"check": name, "seed": seed, "failure": failure,
                            "statistics": stats})
        failure, stats = _criterion_6(seed, scale)
        records.append({"check": "criterion_6", "seed": seed, "failure": failure,
                        "statistics": stats})
        failed = [r["check"] for r in records if r["seed"] == seed and r["failure"]]
        print(f"seed {seed}: failed {failed}", file=sys.stderr, flush=True)
    return records


def upper_bound(failures: int, n: int) -> float | None:
    """One-sided 95% Clopper-Pearson upper bound of a failure rate."""
    if n == 0:
        return None
    return 1.0 if failures == n else float(betaincinv(failures + 1, n - failures, 0.95))


def _rates(failures: int, n: int) -> dict:
    return {"failure_rate": failures / n if n else None,
            "failure_rate_upper_95": upper_bound(failures, n)}


def summarise(records: list[dict], scale: float) -> dict:
    statistics = {}
    for key, (bound, passes) in BOUNDS.items():
        check, stat = key.split(".")
        x = np.array([r["statistics"][stat] for r in records
                      if r["check"] == check and stat in r["statistics"]])
        failures = int(sum(not passes(v) for v in x))
        statistics[key] = {
            "bound": bound, "n": int(x.size),
            "mean": float(x.mean()) if x.size else None,
            "sd": float(x.std(ddof=1)) if x.size > 1 else None,
            "min": float(x.min()) if x.size else None,
            "max": float(x.max()) if x.size else None,
            "failures": failures, **_rates(failures, int(x.size))}
    checks = {}
    for check in [*READERS, "criterion_6"]:
        ops = [r for r in records if r["check"] == check]
        failed = [{"seed": r["seed"], "message": r["failure"]} for r in ops if r["failure"]]
        checks[check] = {"ops": len(ops), **_rates(len(failed), len(ops)), "failed": failed}
    suite = {"checks": list(checks)}
    for key in ("failure_rate", "failure_rate_upper_95"):
        rates = [c[key] for c in checks.values()]
        suite[key] = (None if None in rates
                      else 1.0 - math.prod(1.0 - r for r in rates))
    seeds = sorted({r["seed"] for r in records})
    return {"seeds": f"{seeds[0]}-{seeds[-1]}", "n_seeds": len(seeds), "scale": scale,
            "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
            "statistics": statistics, "checks": checks, "suite": suite}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", required=True, help="a range such as 0-299")
    ap.add_argument("--scale", type=float, default=1.0, help="size factor (1 to record)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    summary = summarise(sweep(seeds, args.scale), args.scale)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for key, s in summary["statistics"].items():
        print(f"{key}: n {s['n']}, {s['failures']} failed ({s['bound']})")
    suite = summary["suite"]
    print(f"suite: failure rate {suite['failure_rate']}, "
          f"{suite['failure_rate_upper_95']} from the 95% upper bounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
