"""``tools/seed_sweep.py`` records the statistic that each check bounds."""

import importlib.util
import json
import math
import os

import pytest
from scipy import stats

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
        assert s["failure_rate_upper_95"] == seed_sweep.upper_bound(failures, len(values))
    for check, c in summary["checks"].items():
        failed = [r["seed"] for r in records if r["check"] == check and r["failure"]]
        assert c["ops"] == 2 and [f["seed"] for f in c["failed"]] == failed
        assert c["failure_rate"] == len(failed) / 2
        assert c["failure_rate_upper_95"] == seed_sweep.upper_bound(len(failed), 2)
    suite = summary["suite"]
    assert suite["checks"] == list(summary["checks"])
    for key in ("failure_rate", "failure_rate_upper_95"):
        passing = math.prod(1.0 - c[key] for c in summary["checks"].values())
        assert suite[key] == pytest.approx(1.0 - passing, abs=1e-15)


@pytest.mark.parametrize("failures,n", [(0, 300), (1, 300), (7, 300), (1, 2), (0, 1)])
def test_upper_bound_is_the_one_sided_clopper_pearson_bound(failures, n):
    bound = seed_sweep.upper_bound(failures, n)
    assert bound == pytest.approx(stats.beta.ppf(0.95, failures + 1, n - failures),
                                  rel=1e-10)
    # the rate at which this many failures or fewer has probability 5%
    assert stats.binom.cdf(failures, n, bound) == pytest.approx(0.05, rel=1e-8)


def test_upper_bound_edges():
    assert seed_sweep.upper_bound(0, 300) == pytest.approx(1 - 0.05 ** (1 / 300))
    assert seed_sweep.upper_bound(3, 3) == 1.0
    assert seed_sweep.upper_bound(0, 0) is None


def test_the_command_writes_the_summary(tmp_path):
    out = tmp_path / "sweep.json"
    assert seed_sweep.main(["--seeds", "5", "--scale", "0.01", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert (summary["seeds"], summary["scale"]) == ("5-5", 0.01)
    assert all(s["n"] <= 1 for s in summary["statistics"].values())
    assert 0.0 <= summary["suite"]["failure_rate"] <= 1.0
