"""Bytes of the simulation and measurement layers at points the CLI
artifacts of ``tests/golden_digests.json`` do not reach.

Each case runs one stream and hashes (SHA-256) its ``run()`` columns, the
``michelson`` detections and slots, a recorded and a live ``fringe_scan``,
the ``hbt_g2`` coincidences of the gated stream and the ``recovery_report``
rows.  The digests hold for the numpy and scipy in ``VERSIONS``; on others
recompute them with ``digests`` after checking the outputs.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy

from timebinsim import (LaserId, PhysicalParams, PulseSequence, ResonantPulse,
                        WdmSpec, build_wdm_sequence, fringe_scan, gate, hbt_g2,
                        michelson, recovery_report, reject_reset_light, run,
                        sequence_for_pgen)

VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

_BLUE_EARLY = PulseSequence(
    pulses=(ResonantPulse(intensity=1.0, phase=0.3, laser_id=LaserId.BLUE,
                          detuning=9.55),
            ResonantPulse(intensity=4.0, phase=2.2, laser_id=LaserId.RED,
                          detuning=-9.55)),
    random_interlaser_phase=True)

# name: (sequence, params overrides, run() keyword arguments)
CASES = {
    # early-bin cross-bin phases near -1e3 rad: the float32 screen of the
    # overlap detection falls back to float64 for them
    "pulse-phase-1e3": (sequence_for_pgen(0.6, phase2=1e3), {}, {}),
    "two-colour-free": (build_wdm_sequence(WdmSpec()), {}, {}),
    "blue-early": (_BLUE_EARLY, {}, {}),
    "jitter-0": (sequence_for_pgen(0.8, phase2=0.4), {"detector_jitter": 0.0}, {}),
    "background-2.5-flash-1.5": (sequence_for_pgen(1.0),
                                 {"background_rate": 2.5, "reset_flash_rate": 1.5}, {}),
    "chunk-777": (sequence_for_pgen(0.6, phase2=0.9), {"background_rate": 0.3},
                  {"chunk_size": 777}),
}

DIGESTS = {
    "background-2.5-flash-1.5": {
        "run":
            "e60f21fdaee10f1a3a929fc2c0707e4bb08932e673c6d58f6da6eda6de353ba5",
        "michelson":
            "8ab1b276bc550c6712090316f43d55dca69d7779068e14d0a94353ddf7ba218a",
        "recorded_scan":
            "7c60094ce7a57a37493c294d840640e2e99f0305118c3a7c9b199922296ca35d",
        "live_scan":
            "8ce48ecc23df32c1da22dd81b81e52549eb68ca38ed0d4c1d38b632a30ba099f",
        "hbt_g2":
            "0cd8ccf94acd47e9ad373c025dd246fa0fcef17235a3011d0ea57c04563ed752",
        "recovery_report":
            "ea1d99f4f9e126664cdb5b2dc9b9ce66b5c31a31adc85c49029797e6ee3d30ae",
    },
    "blue-early": {
        "run":
            "c037a59361f03655662ef92a6bd83fffb85a5304c9f2218aac7dd785e987c766",
        "michelson":
            "802f076c5cc62d2eb2026a67e4b2e4d84bd7b661baa41d59c5b71d063f9f8d3c",
        "recorded_scan":
            "08871d682c60919233dab98396a3d901ef533e3f7845cf52026fcc202557aa55",
        "live_scan":
            "b5e323480aadd8cd428cb7beb5cbfd4b31c11fc2dfab829ef5f3fbd7f527fb8d",
        "hbt_g2":
            "b83ad6088e207f5ee3f9a46161a220e81940a96180d91c5ab49cab5429ea623b",
        "recovery_report":
            "442609b88a86f89f2ba8c9b35cc190e1813abbd29eae9194664ee7213505d524",
    },
    "chunk-777": {
        "run":
            "651e24a6c9456b1512657d5e4f07ed8cf65709d9f936c2b46767a1f2b37c00fb",
        "michelson":
            "7fff5a2a2dc0faf46ac0cff15e50bcab7240e4e217c41a21ab75acd6fb4c1dda",
        "recorded_scan":
            "11b9759bcfa0efd0cc9f34eeff52677bda01f6d84385120e372bfee55d2c0e8e",
        "live_scan":
            "1778b3cac164f447b88ce41a82d4c98efd6755ab82c1ec028ef0f59363e433a9",
        "hbt_g2":
            "2e5f57ff48696678eb019e0cbc40fcecf6c4b85ea68c8254c56542aa422c7c68",
        "recovery_report":
            "68f60cd9943405d8998ad634e5a8202c8cf5fb552fb37ec25c375d6e761dc1ff",
    },
    "jitter-0": {
        "run":
            "eaf8489cde0a2f8190cbf09eef33cfb0e0f40c7bb0453714cef2fdb67ad72ae3",
        "michelson":
            "f598400c42e93cf87ac4d0066ed700b064efbf154123d2a43e6fea5c3880e526",
        "recorded_scan":
            "a3065c847e79147173e253b6cc5d77e6869054dd4a918736e3efba710d30d6f3",
        "live_scan":
            "dbd8e5e0de1b855f7688a73cc9cac2dc331d7683daa29f26493c0658e0499418",
        "hbt_g2":
            "3726332e832c68ebe04677a358c45d106f8881e0c6db524d1dc21fe8164ebad2",
        "recovery_report":
            "223324472ee6592a7ab899103ace0d94930e0e2d9248e58c6463b06e06ad83be",
    },
    "pulse-phase-1e3": {
        "run":
            "3494a82be72721e6404df3d508e622522a1f2b46136f705a5a6fdd0dafe09612",
        "michelson":
            "33b80e7a774736c318b87509ecf01d16d0fa968830a9e0a57124c2fe937521c8",
        "recorded_scan":
            "c905c9f37d458fc3f11148fd175c6dca7353011870d87d6e690cb1411f3be7d5",
        "live_scan":
            "c0e1caa9ee93b56247c234e1f8f7d728606f88ac38a777cbd22cce9711846153",
        "hbt_g2":
            "5049657783830e3e431d6b935ec3ac8dfcf950e90bf0a0cf4fb25e871765f9ae",
        "recovery_report":
            "011afd5b1be52d336fbbeb2534bb1aa3912e73c82883ee9437c3b60b4b743b71",
    },
    "two-colour-free": {
        "run":
            "6f531cd17568fe0fd9e23abd120d9c455e8a6ba4e4ff748acc71e33ff03fe42f",
        "michelson":
            "fbc1dedd4f57f5af44ac0d052ecce4e25162c02a4c838e4fb0c3e53b3ca78772",
        "recorded_scan":
            "89360d138e63c489dfba91cca679c46b3f142f1eb27281133b2ea3fb372bc397",
        "live_scan":
            "a30fc3af484122b15294f9fbb9178e497501902d1bfcc29b8b5bf6dd3967cac9",
        "hbt_g2":
            "b83ad6088e207f5ee3f9a46161a220e81940a96180d91c5ab49cab5429ea623b",
        "recovery_report":
            "df52d817f99da53b11dc5426f23aaec3d7a88eaf10f6ef56842780064a6cff04",
    },
}

_WINDOWS = 20_000
_PHASES = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)


def _sha(*arrays) -> str:
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


def digests(name: str) -> dict[str, str]:
    sequence, overrides, kwargs = CASES[name]
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


def test_digests_were_recorded_with_these_versions():
    assert VERSIONS == {"numpy": np.__version__, "scipy": scipy.__version__}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_match_the_recorded_digests(name):
    assert digests(name) == DIGESTS[name]
