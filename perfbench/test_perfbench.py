"""Tests of the benchmark's own machinery: span self time, wrapper
installation, exact counts across traced runs, and the runner's refusal to
run without sources.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402
from timebinsim import cli, measurement, montecarlo, wdm  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_time_subtracts_direct_children_only():
    recs = [spans.Span(0, "a", None, 0, 0.0, 10.0),
            spans.Span(1, "b", 0, 0, 1.0, 4.0),
            spans.Span(2, "c", 1, 0, 2.0, 3.0),
            spans.Span(3, "b", 0, 0, 5.0, 6.0)]
    assert spans.self_times(recs) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    layers = spans.per_op_layers(recs)[0]
    assert layers["b"] == {"calls": 2, "self_s": 3.0}


def test_install_reaches_every_binding_and_uninstall_restores_them():
    run, fringe = montecarlo.run, measurement.fringe_scan
    from_csv = montecarlo.EventStream.__dict__["from_csv"]
    undo = spans.install(spans.Recorder())
    try:
        wrapped = montecarlo.run
        assert wrapped is not run
        assert cli.run is wrapped and measurement.run is wrapped and wdm.run is wrapped
        assert cli.fringe_scan is measurement.fringe_scan is not fringe
        assert montecarlo.EventStream.__dict__["from_csv"] is not from_csv
    finally:
        undo()
    assert cli.run is measurement.run is wdm.run is montecarlo.run is run
    assert cli.fringe_scan is measurement.fringe_scan is fringe
    assert montecarlo.EventStream.__dict__["from_csv"] is from_csv


def _traced_counts(workload, inputs) -> dict:
    recorder = spans.Recorder()
    undo = spans.install(recorder)
    try:
        result = recorder.wrap("bench.op", workload.op)(inputs, 0)
    finally:
        undo()
    workload.check(inputs, result)  # removes the op's output files
    layers, stable = spans.summarize(spans.per_op_layers(recorder.spans))
    assert stable
    return {name: {k: v for k, v in d.items() if k != "self_s"}
            for name, d in layers.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_traced_runs_on_one_seed_give_identical_counts(name, tmp_path):
    workload = workloads.WORKLOADS[name](scale=0.05)
    inputs = workload.setup(7, str(tmp_path))
    first = _traced_counts(workload, inputs)
    second = _traced_counts(workload, workload.setup(7, str(tmp_path)))
    assert first == second
    assert first["bench.op"]["calls"] == 1
    assert len(first) > 1


def test_benchmark_json_names_what_the_runner_reports():
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) \
        == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == \
        [f"{layer}.{q}" for layer, q, _, _ in run.LAYER_METRICS]
    setups = [{"setup_s": 1.0, "import_s": 0.5}]
    ops = [{"seconds": 2.0, "error": None, "windows": 10, "events": 20}]
    reported = run.end_to_end(setups, ops, 100.0)
    assert [m["name"] for m in bench["end_to_end"]] == list(reported)
    assert all(value > 0 for value, _, _ in reported.values())


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "event_io",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
