"""Record the SHA-256 of every artifact of a fixed set of runs.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/golden.py   # rewrite the digests

``pytest tests/test_golden.py`` checks them.

Each invocation in ``INVOCATIONS`` runs ``timebinsim.cli.main`` in process,
at a small size, into a fresh directory, and every file it writes, the
``*.meta.json`` sidecar included, is hashed.  Each case in ``CASES`` reaches
points the CLI does not: it runs one stream through the API and hashes its
``run()`` columns, the ``michelson`` detections and slots, a recorded and a
live ``fringe_scan``, the ``hbt_g2`` coincidences of the gated stream and
the ``recovery_report`` rows.  All the digests go to
``tests/golden_digests.json`` as ``{name: {artifact: sha256}}``, together
with the numpy and scipy versions that produced them.  A change that means
to alter some bytes regenerates the file, so the diff names exactly the
artifacts that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np
import scipy

from timebinsim import (LaserId, PhysicalParams, PulseSequence, ResonantPulse,
                        WdmSpec, build_wdm_sequence, fringe_scan, gate, hbt_g2,
                        michelson, recovery_report, reject_reset_light, run,
                        sequence_for_pgen)
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

_BLUE_EARLY = PulseSequence(
    pulses=(ResonantPulse(intensity=1.0, phase=0.3, laser_id=LaserId.BLUE,
                          detuning=9.55),
            ResonantPulse(intensity=4.0, phase=2.2, laser_id=LaserId.RED,
                          detuning=-9.55)),
    random_interlaser_phase=True)

# name: (sequence, params overrides, run() keyword arguments)
CASES = {
    # early-bin cross-bin phases near -1e3 rad, far outside one turn, enter
    # the overlap threshold through their cosine and sine
    "pulse-phase-1e3": (sequence_for_pgen(0.6, phase2=1e3), {}, {}),
    "two-colour-free": (build_wdm_sequence(WdmSpec()), {}, {}),
    "blue-early": (_BLUE_EARLY, {}, {}),
    "jitter-0": (sequence_for_pgen(0.8, phase2=0.4), {"detector_jitter": 0.0}, {}),
    "background-2.5-flash-1.5": (sequence_for_pgen(1.0),
                                 {"background_rate": 2.5, "reset_flash_rate": 1.5}, {}),
    "chunk-777": (sequence_for_pgen(0.6, phase2=0.9), {"background_rate": 0.3},
                  {"chunk_size": 777}),
}

_WINDOWS = 20_000
_PHASES = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _sha(*arrays) -> str:
    """SHA-256 over each array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _columns(stream):
    return [stream.columns[k] for k in sorted(stream.columns)]


def _scan(scan):
    return _sha(scan.phases, scan.early_side_counts, scan.middle_counts,
                scan.late_side_counts, scan.n_input)


def _case_digests(sequence, overrides, kwargs) -> dict[str, str]:
    params = replace(PhysicalParams(), **overrides)
    stream = run(sequence, params, _WINDOWS, 17, **kwargs)
    res = michelson(stream, 0.6, salt=2)
    gated = gate(reject_reset_light(stream), 0.0, params.window_ps(2))
    report = recovery_report(params=params, stream=stream)
    return {
        "run": _sha(*_columns(stream)),
        "michelson": _sha(*_columns(res.detections), res.slots),
        "recorded_scan": _scan(fringe_scan(stream, _PHASES, salt=3)),
        "live_scan": _scan(fringe_scan(sequence, _PHASES, params=params,
                                       n_trajectories=2_000, seed=18)),
        "hbt_g2": _sha(hbt_g2(gated, salt=4).coincidences),
        "recovery_report": hashlib.sha256(repr(report.rows).encode()).hexdigest(),
    }


def digests_of(name: str) -> dict[str, str]:
    """Run one invocation or case; ``{artifact: sha256}``."""
    if name in CASES:
        return _case_digests(*CASES[name])
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([*INVOCATIONS[name], "--out", out])
        if code != 0:
            raise RuntimeError(f"{name}: exit {code}")
        return {f: hashlib.sha256(open(os.path.join(out, f), "rb").read()).hexdigest()
                for f in sorted(os.listdir(out))}


def compute() -> dict[str, dict[str, str]]:
    """Run every case and invocation; ``{name: {artifact: sha256}}``."""
    return {name: digests_of(name) for name in [*CASES, *INVOCATIONS]}


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
