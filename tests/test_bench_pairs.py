"""``tools/bench_pairs.py`` keeps every failed op of a benchmark run."""

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
