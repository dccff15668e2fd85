"""Record the SHA-256 of every artifact of a fixed set of CLI runs.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/golden.py   # rewrite the digests

``pytest tests/test_golden.py`` checks them.

Each invocation in ``INVOCATIONS`` runs ``timebinsim.cli.main`` in process,
at a small size, into a fresh directory; the digests of all the files it
writes, the ``*.meta.json`` sidecar included, go to
``tests/golden_digests.json`` together with the numpy and scipy versions
that produced them.  A change that means to alter some bytes regenerates
the file, so the diff names exactly the artifacts that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import scipy

from timebinsim.cli import main as cli_main

DIGESTS = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests",
    "golden_digests.json"))

_QUBITS = ["phase-qubits", "--trajectories", "2000", "--scan-points", "6",
           "--phases", "0.7,2.9", "--seed", "3"]
_SIMULATE = ["simulate", "--trajectories", "3000", "--p-gen", "0.6",
             "--phase2", "0.4", "--seed", "5"]
_G2 = ["g2", "--trajectories", "20000", "--seed", "7"]
_WDM = ["wdm", "--trajectories", "20000", "--seed", "9"]

INVOCATIONS: dict[str, list[str]] = {
    "phase-qubits": _QUBITS,
    "phase-qubits-background": _QUBITS + ["--param", "background_rate=0.3"],
    "visibility-sweep": ["visibility-sweep", "--trajectories", "2000",
                         "--points", "6", "--mc-points", "2",
                         "--scan-points", "6", "--t1", "250,600", "--seed", "4"],
    "wdm": _WDM,
    "wdm-locked": _WDM + ["--locked-phase", "0.4"],
    "g2": _G2,
    "g2-calibrated": _G2 + ["--calibrate-g2", "0.05"],
    "simulate": _SIMULATE,
    "simulate-binary": _SIMULATE + ["--binary"],
    "simulate-background": _SIMULATE + ["--param", "background_rate=0.3"],
    # more windows than run()'s default chunk, so the stream joins two blocks
    "simulate-blocks": ["simulate", "--trajectories", "140000", "--binary",
                        "--param", "background_rate=0.3", "--seed", "6"],
}


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def compute() -> dict[str, dict[str, str]]:
    """Run every invocation; ``{name: {file: sha256}}``."""
    digests = {}
    with tempfile.TemporaryDirectory() as root:
        for name, argv in INVOCATIONS.items():
            out = os.path.join(root, name)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([*argv, "--out", out])
            if code != 0:
                raise RuntimeError(f"{name}: exit {code}")
            digests[name] = {
                f: hashlib.sha256(open(os.path.join(out, f), "rb").read()).hexdigest()
                for f in sorted(os.listdir(out))}
    return digests


def load() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def main() -> int:
    record = {"versions": versions(), "digests": compute()}
    with open(DIGESTS, "w") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    print(f"wrote {sum(map(len, record['digests'].values()))} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
