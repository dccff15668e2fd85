"""Run the benchmark on two checkouts in alternated pairs and write a BENCH record.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --workloads g2_calibration,phase_readout --seeds 11-20 \\
        --note "what the change does" --out BENCH_8.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one process after the other, with ``T``
the parent's ``BENCHMARK.json`` ``run_seconds``; even pairs run the parent
first and odd pairs the change first.  ``--pairs`` repeats every seed that
many times (default 1), so the number of pairs per workload is
``len(seeds) * pairs``.

For each workload and each end-to-end metric that ``BENCHMARK.json`` lists
the record holds both sides' median and quartiles (``numpy.percentile``
25/50/75, linear), every value, the pairs the change won (ties count for
neither side), the parent's inter-quartile range, whether the change's
median stays within the metric's bound, and whether the gain rule holds:
the change wins at least nine tenths of the pairs and the medians differ by
more than the parent's inter-quartile range.  ``failures`` keeps every
failed op per side, as ``{"seed", "op", "message"}`` from ``run.py``'s
``op K FAILED: message`` lines, so a new failure can be told from a known
one.  A seed's failures fall on fixed op indices, so ``paired_failures``
also compares them op for op: the ``(seed, op)`` that failed on both sides,
each side's failures at ops that the other side's run of the same pair also
reached, and each side's failed share over only those ops, which does not
depend on how many ops each side fitted into its run.  One ``--trace 1``
run per side and workload, at the first seed, adds the per-layer metrics.
The record, named after the ``--out`` file, also holds ``nproc`` and the
Python, numpy and scipy versions that the benchmark processes reported.

After the benchmark runs, one tier-1 ``pytest --durations=0
--durations-min=0`` run per checkout adds its wall time, its exit code and
summary line, and the call duration of each ``test_criterion_*`` test.

Each checkout's code size goes in ``size``: ``src_lines``, the lines of
``src/timebinsim/*.py``, and ``public_names``, the length of the
``__all__`` list in ``src/timebinsim/__init__.py``, read with ``ast`` so
that neither checkout is imported.

Both checkouts must be complete trees; every run writes its full record to
that checkout's ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    return seeds


def bench_run(checkout: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``perfbench/run.py`` run: its result line plus the environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env_line = next(line for line in lines if line.startswith("environment: "))
    result["env"] = json.loads(env_line.partition(": ")[2])
    result["failures"] = failures(lines, seed)
    return result


def failures(lines: list[str], seed: int) -> list[dict]:
    """The ``op K FAILED: message`` lines of one run, as
    ``{"seed", "op", "message"}``."""
    found = []
    for line in lines:
        m = re.match(r"op (\d+) FAILED: (.*)", line)
        if m:
            found.append({"seed": seed, "op": int(m.group(1)), "message": m.group(2)})
    return found


def paired_failures(parent: list[dict], change: list[dict]) -> dict:
    """Both sides' failed ops, compared over the ops that both reached.

    ``parent`` and ``change`` are the runs of one workload in pair order,
    each with ``attempted`` and ``failures``; op ``k`` of a run was reached
    when ``k < attempted``.
    """
    common_ops = 0
    at_common: dict[str, list[dict]] = {"parent": [], "change": []}
    for p, c in zip(parent, change):
        reached = min(p["attempted"], c["attempted"])
        common_ops += reached
        for side, run in (("parent", p), ("change", c)):
            at_common[side] += [f for f in run["failures"] if f["op"] < reached]
    keys = [{(f["seed"], f["op"]) for f in at_common[s]} for s in at_common]
    return {"shared": [{"seed": s, "op": k} for s, k in sorted(keys[0] & keys[1])],
            "at_common_ops": at_common, "common_ops": common_ops,
            "common_failed_frac": {s: len(f) / common_ops if common_ops else 0.0
                                   for s, f in at_common.items()}}


def tier1_times(checkout: str) -> dict:
    """One tier-1 test run: wall time, outcome and each acceptance
    criterion's call duration, from ``pytest --durations=0``; a minimum
    of 0 keeps the criteria that finish inside pytest's default 5 ms cut."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=0", "--durations-min=0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    criteria = {}
    for line in lines:
        m = re.match(r"([0-9.]+)s call\s+\S+::(test_criterion_\w+)", line)
        if m:
            criteria[m.group(2)] = float(m.group(1))
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else "",
            "criteria_call_s": dict(sorted(criteria.items()))}


def code_size(checkout: str) -> dict:
    """Lines of ``src/timebinsim/*.py`` (as ``wc -l`` counts them) and the
    number of names in the package's ``__all__``."""
    pkg = os.path.join(checkout, "src", "timebinsim")
    lines = 0
    for path in glob.glob(os.path.join(pkg, "*.py")):
        with open(path) as fh:
            lines += fh.read().count("\n")
    with open(os.path.join(pkg, "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    public = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    return {"src_lines": lines, "public_names": len(ast.literal_eval(public))}


def side_summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "n": len(values), "values": values}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Both sides of one end-to-end metric and the verdicts on them."""
    lower = spec["better"] == "lower"
    p, c = side_summary(parent), side_summary(change)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    ratio = c["median"] / p["median"] if p["median"] else math.nan
    worse = (ratio - 1.0) if lower else (1.0 - ratio)
    gain = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": p, "change": c, "change_over_parent": ratio,
            "change_wins": wins, "parent_iqr": iqr,
            "within_bound": bool(worse <= spec["bound"]),
            "meets_gain_rule": bool(wins >= math.ceil(0.9 * len(parent))
                                    and gain > iqr)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", required=True, help="e.g. 11-20 or 1,2,5")
    ap.add_argument("--pairs", type=int, default=1, help="pairs per seed")
    ap.add_argument("--note", default="", help="what the change does")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()

    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",")
    seeds = [s for s in parse_seeds(args.seeds) for _ in range(args.pairs)]
    sides = {"parent": args.parent, "change": args.change}

    env: dict = {}
    end_to_end = {}
    for workload in workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = bench_run(sides[side], workload, seed, seconds, 0)
                env[side] = result["env"]
                runs[side].append(result)
                print(f"{workload} pair {i} seed {seed} {side}: "
                      f"op_s_p50 {result['metrics']['op_s_p50']['value']:.4g} s, "
                      f"{result['failed']} of {result['attempted']} ops failed",
                      file=sys.stderr, flush=True)
        end_to_end[workload] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "first": ["parent" if i % 2 == 0 else "change" for i in range(len(seeds))],
            "attempted_ops": {s: sum(r["attempted"] for r in runs[s]) for s in sides},
            "failed_ops": {s: sum(r["failed"] for r in runs[s]) for s in sides},
            "failures": {s: [f for r in runs[s] for f in r["failures"]] for s in sides},
            "paired_failures": paired_failures(runs["parent"], runs["change"]),
            "correct": {s: all(r["correct"] for r in runs[s]) for s in sides},
            "metrics": {m["name"]: compare(
                m, *[[r["metrics"][m["name"]]["value"] for r in runs[s]] for s in sides])
                for m in bench["end_to_end"]},
        }

    per_layer = {}
    for workload in workloads:
        traced = {s: bench_run(sides[s], workload, seeds[0], seconds, 1) for s in sides}
        per_layer[workload] = {
            "seed": seeds[0],
            "correct": {s: traced[s]["correct"] for s in sides},
            "failures": {s: traced[s]["failures"] for s in sides},
            "metrics": {name: {s: traced[s]["metrics"][name]["value"] for s in sides}
                        for name in traced["parent"]["metrics"]},
        }
        for d in per_layer[workload]["metrics"].values():
            if d["parent"]:
                d["change_over_parent"] = d["change"] / d["parent"]

    record = {
        "record": os.path.splitext(os.path.basename(args.out))[0],
        "change": args.note,
        "harness": (f"tools/bench_pairs.py: python3 perfbench/run.py --workload W "
                    f"--seed S --seconds {seconds:g} --trace T in each checkout; "
                    "even pairs run the parent first, odd pairs the change first"),
        "env": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "benchmark": env},
        "quartiles": "numpy.percentile 25/50/75 (linear) over the runs of one side",
        "gain_rule": ("change wins >= 90% of pairs (ties count for neither) and "
                      "the medians differ by more than the parent's IQR"),
        "end_to_end": end_to_end,
        "per_layer_trace1": per_layer,
        "tier1_tests": {s: tier1_times(sides[s]) for s in sides},
        "size": {s: code_size(sides[s]) for s in sides},
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
