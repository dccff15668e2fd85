"""One benchmark process: set up a workload, then time its ops.

Started by ``run.py`` in a fresh single-threaded process; prints one JSON
object as its last line of standard output.  ``--t0`` is the runner's
``time.monotonic()`` just before it started this process, so set-up time
counts from process start.

With ``--setup-only`` the process stops after set-up.  With ``--trace 0``
every op is untraced and gets its own inputs (op ``k`` derives its seeds from
``k``).  With ``--trace 1`` every op repeats the inputs of op 0 and ops
alternate between untraced and traced, so the difference of their medians is
the tracing overhead and every traced op must give identical counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans
    import workloads
    import_s = time.monotonic() - args.t0

    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(args.workdir, exist_ok=True)
    inputs = workload.setup(args.seed, args.workdir)
    setup_s = time.monotonic() - args.t0
    result = {"import_s": import_s, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import numpy
    import scipy
    import timebinsim
    result["env"] = {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "timebinsim": os.path.relpath(os.path.dirname(timebinsim.__file__))}

    counter = spans.RunCounter()
    spans.install(counter, spans.RUN_ONLY)
    recorder = spans.Recorder()
    timed_op = recorder.wrap("bench.op", workload.op)
    ops = []
    start = time.perf_counter()
    k = 0
    # a traced run always completes one untraced and one traced op
    while time.perf_counter() - start < args.seconds or k < 2 * args.trace:
        traced = bool(args.trace and k % 2)
        index = 0 if args.trace else k
        counter.traj = counter.events = 0
        uninstall = spans.install(recorder) if traced else None
        recorder.op_id = k
        error = None
        t = time.perf_counter()
        c = time.process_time()
        try:
            out = (timed_op if traced else workload.op)(inputs, index)
        except Exception as exc:  # a failed op is counted, never timed
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t
        cpu = time.process_time() - c
        if uninstall is not None:
            uninstall()
        if error is None:
            try:
                error = workload.check(inputs, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        windows, events = workload.work(inputs, counter)
        ops.append({"k": k, "traced": traced, "seconds": elapsed, "cpu_s": cpu,
                    "error": error, "windows": windows, "events": events})
        k += 1

    result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        result["spans"] = recorder.records()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
