"""``tools/seed_sweep.py`` records the statistic that each check bounds."""

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "seed_sweep", os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                               "seed_sweep.py"))
seed_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seed_sweep)


@pytest.fixture(scope="module")
def records():
    return seed_sweep.sweep(range(2), scale=0.01)


def test_a_check_fails_exactly_when_a_statistic_breaks_its_bound(records):
    # at this size phase_readout and g2_calibration fail and the rest pass
    assert {r["failure"] is None for r in records} == {True, False}
    for r in records:
        bounds = {key.split(".")[1]: passes for key, (_, passes) in seed_sweep.BOUNDS.items()
                  if key.startswith(r["check"] + ".")}
        within = all(name in r["statistics"] and passes(r["statistics"][name])
                     for name, passes in bounds.items())
        assert (r["failure"] is None) == within, r


def test_summary_counts_each_statistic_over_the_seeds(records):
    summary = seed_sweep.summarise(records, 0.01)
    assert (summary["seeds"], summary["n_seeds"]) == ("0-1", 2)
    assert summary["statistics"].keys() == seed_sweep.BOUNDS.keys()
    for key, s in summary["statistics"].items():
        check, name = key.split(".")
        values = [r["statistics"][name] for r in records
                  if r["check"] == check and name in r["statistics"]]
        failures = sum(not seed_sweep.BOUNDS[key][1](v) for v in values)
        assert (s["n"], s["failures"]) == (len(values), failures)
        assert s["failure_rate"] == (failures / len(values) if values else None)
    for check, c in summary["checks"].items():
        failed = [r["seed"] for r in records if r["check"] == check and r["failure"]]
        assert c["ops"] == 2 and [f["seed"] for f in c["failed"]] == failed


def test_the_command_writes_the_summary(tmp_path):
    out = tmp_path / "sweep.json"
    assert seed_sweep.main(["--seeds", "5", "--scale", "0.01", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert (summary["seeds"], summary["scale"]) == ("5-5", 0.01)
    assert all(s["n"] <= 1 for s in summary["statistics"].values())
