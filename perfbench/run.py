"""timebinsim benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload phase_readout --seed 1 --seconds 20 --trace 0

Runs the workload's set-up in ``SETUP_RUNS`` fresh processes (the last one
goes on to time ops for ``--seconds``), checks every op's result, and prints
every metric by name and unit.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics from
the span recorder (see README.md in this directory).

Every process is single-threaded: the BLAS/OpenMP thread caps below are set
in its environment.  Full records (environment, per-op times, spans) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spans as spanlib  # noqa: E402  (needs HERE on the path; imports no timebinsim)

ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 30
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
WORKLOADS = ("phase_readout", "g2_calibration", "remeasure", "event_io")

# Per-layer metrics reported by --trace 1: (layer, quantity, unit, better).
LAYER_METRICS = (
    [("montecarlo.run", q, u, b) for q, u, b in (
        ("calls", "count", "lower"), ("self_s", "s", "lower"),
        ("traj", "count", "lower"), ("events_out", "count", "lower"),
        ("traj_per_s", "1/s", "higher"))]
    + [(f"montecarlo.{f}", q, u, b)
       for f in ("to_csv", "from_csv", "to_binary", "from_binary")
       for q, u, b in (("self_s", "s", "lower"), ("events", "count", "lower"),
                       ("bytes", "B", "lower"))]
    + [("measurement.michelson", q, u, b) for q, u, b in (
        ("calls", "count", "lower"), ("self_s", "s", "lower"),
        ("events_in", "count", "lower"), ("events_out", "count", "lower"),
        ("events_per_s", "1/s", "higher"))]
    + [(f"measurement.{f}", q, u, b)
       for f in ("reject_reset_light", "gate", "spectral_filter")
       for q, u, b in (("self_s", "s", "lower"), ("events_in", "count", "lower"),
                       ("events_out", "count", "lower"))]
    + [("measurement.hbt_g2", q, u, b) for q, u, b in (
        ("calls", "count", "lower"), ("self_s", "s", "lower"),
        ("events_in", "count", "lower"))]
    + [("measurement.fringe_scan", "self_s", "s", "lower"),
       ("measurement.calibrate_background_for_g2", "self_s", "s", "lower"),
       ("measurement.calibrate_background_for_g2", "run_calls", "count", "lower"),
       ("tomography.fit_fringe", "calls", "count", "lower"),
       ("tomography.fit_fringe", "self_s", "s", "lower"),
       ("tomography.reconstruct", "self_s", "s", "lower"),
       ("dynamics.generate_state", "self_s", "s", "lower"),
       ("wdm.recovery_report", "self_s", "s", "lower"),
       ("cli.main", "self_s", "s", "lower"),
       ("core", "import_s", "s", "lower"),
       ("bench", "op_s_p50_traced", "s", "lower"),
       ("bench", "op_s_p50_untraced", "s", "lower"),
       ("bench", "trace_overhead_s", "s", "lower")]
)


def _child(args, workdir: str, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--t0"]
    env = {**os.environ, **THREAD_CAPS,
           "PYTHONPATH": os.path.join(ROOT, "src")}
    t0 = time.monotonic()
    proc = subprocess.run(cmd + [repr(t0)] + (["--setup-only"] if setup_only else []),
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.

    With fewer than 110 samples that percentile lies below p90, so the
    slowest op (p100) is reported instead; the label says which it is.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 110:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"
    return ordered[-1], f"p100 of {n}"


def end_to_end(setups: list[dict], ops: list[dict], peak_rss_mb: float) -> dict:
    good = [o for o in ops if o["error"] is None]
    times = [o["seconds"] for o in good]
    busy = sum(times)
    tail, tail_label = _tail(times) if times else (0.0, "no successful op")
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s",
                    f"median of {len(setups)} set-ups"),
        "op_s_p50": (statistics.median(times) if times else 0.0, "s",
                     f"median of {len(times)} ops"),
        "op_s_tail": (tail, "s", tail_label),
        "traj_per_s": (sum(o["windows"] for o in good) / busy if busy else 0.0,
                       "1/s", "windows per op-second"),
        "events_per_s": (sum(o["events"] for o in good) / busy if busy else 0.0,
                         "1/s", "events per op-second"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of the workload process"),
    }


def per_layer(setups: list[dict], ops: list[dict],
              span_records: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics, and whether every traced op gave the same counts."""
    all_spans = [spanlib.Span(**r) for r in span_records]
    layers, stable = spanlib.summarize(spanlib.per_op_layers(all_spans))
    traced = [o["seconds"] for o in ops if o["traced"] and o["error"] is None]
    untraced = [o["seconds"] for o in ops if not o["traced"] and o["error"] is None]
    p50_t = statistics.median(traced) if traced else 0.0
    p50_u = statistics.median(untraced) if untraced else 0.0
    extra = {
        ("core", "import_s"): statistics.median(s["import_s"] for s in setups),
        ("bench", "op_s_p50_traced"): p50_t,
        ("bench", "op_s_p50_untraced"): p50_u,
        ("bench", "trace_overhead_s"): p50_t - p50_u,
    }
    out = {}
    for layer, quantity, unit, _ in LAYER_METRICS:
        if (layer, quantity) in extra:
            value = extra[(layer, quantity)]
        else:
            d = layers.get(layer, {})
            if quantity == "traj_per_s":
                value = d["traj"] / d["self_s"] if d.get("self_s") else 0.0
            elif quantity == "events_per_s":
                value = d["events_in"] / d["self_s"] if d.get("self_s") else 0.0
            else:
                value = d.get(quantity, 0)
        out[f"{layer}.{quantity}"] = (value, unit, "")
    return out, stable


def environment(child_env: dict) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "thread_caps": THREAD_CAPS, **child_env}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "timebinsim", "__init__.py")):
        print(f"error: no timebinsim sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    # On SIGTERM, exit through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        setups = [_child(args, workdir, True, SETUP_TIMEOUT_S)
                  for _ in range(SETUP_RUNS - 1)]
        main_run = _child(args, workdir, False,
                          SETUP_TIMEOUT_S + args.seconds + 45)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append({k: main_run[k] for k in ("import_s", "setup_s")})

    ops = main_run["ops"]
    failed = sum(o["error"] is not None for o in ops)
    counts_stable = True
    if args.trace:
        metrics, counts_stable = per_layer(setups, ops, main_run["spans"])
    else:
        metrics = end_to_end(setups, ops, main_run["peak_rss_mb"])
    note = "" if counts_stable else "COUNTS DIFFER BETWEEN TRACED OPS"
    env = environment(main_run["env"])

    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setups": setups, "ops": ops, "metrics": {k: {"value": v, "unit": u, "note": n}
                                      for k, (v, u, n) in metrics.items()}}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json"), "w") as fh:
            json.dump(main_run["spans"], fh)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for o in ops:
        if o["error"] is not None:
            print(f"op {o['k']} FAILED: {o['error']}")
    print(f"{args.workload}: {len(ops)} ops, {failed} failed "
          f"(failed_frac {failed / len(ops) if ops else 0:.3f}) {note}")
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit:<6} {detail}")
    print(json.dumps({
        "correct": failed == 0 and bool(ops) and counts_stable,
        "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
