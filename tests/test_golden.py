"""Every artifact of ``tools/golden.py``'s CLI invocations and API cases
keeps its bytes."""

import importlib.util
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden", os.path.join(os.path.dirname(__file__), os.pardir, "tools", "golden.py"))
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

RECORDED = golden.load()
NAMES = [*golden.CASES, *golden.INVOCATIONS]


def test_digests_were_recorded_with_these_versions():
    # the digests hold for the numpy and scipy that wrote them; on others
    # regenerate them with tools/golden.py after checking the outputs
    assert RECORDED["versions"] == golden.versions()


def test_every_invocation_and_case_is_recorded():
    assert sorted(RECORDED["digests"]) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_artifact_digests_match_the_recorded_ones(name):
    now, then = golden.digests_of(name), RECORDED["digests"].get(name, {})
    moved = [f"{name}/{f}" for f in sorted(set(now) | set(then))
             if now.get(f) != then.get(f)]
    assert not moved, f"artifacts changed bytes: {moved}"
