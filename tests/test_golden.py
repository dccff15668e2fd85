"""Every CLI artifact of ``tools/golden.py``'s invocations keeps its bytes."""

import importlib.util
import os

_SPEC = importlib.util.spec_from_file_location(
    "golden", os.path.join(os.path.dirname(__file__), os.pardir, "tools", "golden.py"))
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def test_artifact_digests_match_the_recorded_ones():
    recorded = golden.load()
    # the digests hold for the numpy and scipy that wrote them; on others
    # regenerate them with tools/golden.py after checking the outputs
    assert recorded["versions"] == golden.versions(), (
        f"digests recorded with {recorded['versions']}, running "
        f"{golden.versions()}")
    now = golden.compute()
    assert sorted(now) == sorted(recorded["digests"])
    moved = [f"{name}/{f}" for name, files in now.items()
             for f in sorted(set(files) | set(recorded["digests"][name]))
             if files.get(f) != recorded["digests"][name].get(f)]
    assert not moved, f"artifacts changed bytes: {moved}"
