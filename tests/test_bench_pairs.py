"""``tools/bench_pairs.py`` keeps every failed op of a benchmark run and
compares the failures of the two sides op for op."""

import importlib.util
import os

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                                "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_failed_op_lines_are_kept_with_their_seed():
    lines = ['environment: {"python": "3.11"}',
             "op 17 FAILED: worst phase error 0.0211 pi, not within 0.02 pi",
             "op 40 FAILED: recovery report has 2 rows, expected 3",
             "phase_readout: 41 ops, 2 failed (failed_frac 0.049) ",
             '{"correct": false}']
    assert bench_pairs.failures(lines, 30) == [
        {"seed": 30, "op": 17, "message": "worst phase error 0.0211 pi, not within 0.02 pi"},
        {"seed": 30, "op": 40, "message": "recovery report has 2 rows, expected 3"}]
    assert bench_pairs.failures(lines[:1] + lines[3:], 30) == []


def test_failures_are_compared_over_the_ops_both_sides_reached():
    def run(seed, attempted, *ops):
        return {"attempted": attempted,
                "failures": [{"seed": seed, "op": k, "message": "m"} for k in ops]}
    parent = [run(2902, 40, 4), run(2908, 38, 12, 14)]
    change = [run(2902, 39, 4), run(2908, 14, 12)]
    paired = bench_pairs.paired_failures(parent, change)
    assert paired["shared"] == [{"seed": 2902, "op": 4}, {"seed": 2908, "op": 12}]
    # the parent's op 14 of seed 2908 lies beyond the 14 ops the change reached
    assert [(f["seed"], f["op"]) for f in paired["at_common_ops"]["parent"]] == \
        [(2902, 4), (2908, 12)]
    assert paired["at_common_ops"]["change"] == paired["at_common_ops"]["parent"]
    assert paired["common_ops"] == 39 + 14
    assert paired["common_failed_frac"] == {"parent": 2 / 53, "change": 2 / 53}
    one_sided = bench_pairs.paired_failures([run(1, 10)], [run(1, 10, 3)])
    assert one_sided["shared"] == [] and one_sided["at_common_ops"]["parent"] == []
    assert one_sided["common_failed_frac"]["change"] == 0.1
