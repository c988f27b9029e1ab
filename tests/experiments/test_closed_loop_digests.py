"""Closed-loop fingerprints: the §5.4 testbed and its variants, bit for bit.

The golden digests pin the simulator; this table pins what is built on
it: the paper's closed loop (qtrace → period analyser → LFS/LFS++ →
supervisor → CBS) as the experiments, the fault scenarios and the trace
scenarios drive it.  Each entry is the SHA-256 of

- ``ExperimentResult.comparable()`` for the experiments, at sizes small
  enough for tier-1;
- the ``metrics`` dict and the Perfetto (Chrome trace) export of every
  fault scenario;
- the Perfetto export of every trace scenario.

A change meant to keep results bit-identical must leave every entry
equal.  A change that moves results on purpose re-records the table from
the failure message, which prints it in full, and says why in its
description.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import REGISTRY
from repro.faults.scenarios import FAULT_SCENARIOS
from repro.obs import chrome_trace
from repro.obs.scenarios import TRACE_SCENARIOS

#: registered experiment -> the ``run`` kwargs it is fingerprinted at
EXPERIMENTS: dict[str, dict] = {
    "fig13": {"n_frames": 300},
    "tab03": {"loads": (0.0, 0.3), "n_frames": 60},
    "events-vs-periodic": {"reps": 1, "n_frames": 200},
    "abl-predictors": {"n_frames": 60},
    "abl-spread": {"n_frames": 60},
    "abl-sampling": {"n_frames": 60},
    "abl-policy": {"n_frames": 60},
    "abl-boost": {"n_frames": 60},
    "abl-importance": {"n_frames": 60},
    "abl-smp": {"n_frames": 60},
    "abl-rate-change": {"n_frames_per_phase": 210},
}

#: frames per fault-scenario playback
FAULT_FRAMES = 150

DIGESTS: dict[str, str] = {
    "experiment/abl-boost": (
        "3fd978682c9663327bfd4f5413cc72681c2bdc4b7399ac360dc6ef2513125c3f"
    ),
    "experiment/abl-importance": (
        "511392a40ba31eebd5fabf1322bf84519a8ea0fc76e86e8363a1622639958670"
    ),
    "experiment/abl-policy": (
        "1fca3ef671c2b36df72194384a695cb7deab505b2c169435f88970e76e36973c"
    ),
    "experiment/abl-predictors": (
        "4091ce296e021aa671c1ba39299acfaca7d0f8e558770f72f2080dc06ad2888f"
    ),
    "experiment/abl-rate-change": (
        "b0fee6609a590045bf554e3e75cbecb6c0b98f2a58f04640ded0d488c7fd39f0"
    ),
    "experiment/abl-sampling": (
        "ad933d1863385335ebc886728e9f4a5bdf437c6c9a6e799e43e1cbef45555156"
    ),
    "experiment/abl-smp": (
        "31f3e377039657cbb8d6dbc99d81faece52937d54459482f6f776dab92c64234"
    ),
    "experiment/abl-spread": (
        "0d145ec487172218ee8f31b0bd9610c4149756367ef6f1c34f6597febfb03011"
    ),
    "experiment/events-vs-periodic": (
        "a7dab1c33773673c27b240687f1b203f98bbc7e3d756cba169b7f2d2f7f35c4f"
    ),
    "experiment/fig13": (
        "67f025df9b1edd74fe146b17beeda009ec7142edf6bcacdc1d64477d3eb8fc4d"
    ),
    "experiment/tab03": (
        "54d388de7c79b9acff154edb6a5f8fdea3d822235ae11a3a29555a793e48a2b6"
    ),
    "fault/clock-coarse/metrics": (
        "460e32cc400ee830b185ec7c22d84d7552b2102a76f7e78377838151bd27b714"
    ),
    "fault/clock-coarse/perfetto": (
        "e0a5839071f82b6724a9ce017d33aee5a5b7c9c0a81fff41b5554fc843fa2f8d"
    ),
    "fault/mode-switch/metrics": (
        "df8ab0f5a55e1c13e52a592d081e8f6e52c3f3bc62a9ff5bc5941881f3a3867f"
    ),
    "fault/mode-switch/perfetto": (
        "4456ea8a920114f0df9903392e4d5b6d70b3090a5aee1641b63c8ad29bb24443"
    ),
    "fault/overload/metrics": (
        "9220aca390ad67d37a35097fce77ddf0a03cb71fb4c7f0177e3c1949077ebcea"
    ),
    "fault/overload/perfetto": (
        "90cdae4e3870e370bfe846315f2a912d21078ac7fe6c9275e592fecceb7bc4a8"
    ),
    "fault/ring-overrun/metrics": (
        "b3e6f571687f3502c7f12a77831d45d8a8b04a2d7cc5f1b3df5cf08f429ea07c"
    ),
    "fault/ring-overrun/perfetto": (
        "2f230708e5c86668931758e26c785d824ae0c8c92b510146e74f86b2815399db"
    ),
    "fault/saturation/metrics": (
        "ac123c8a02e1c4b49607f8286aeb9370a5d5b89e9d6453da6c0339459ed216c9"
    ),
    "fault/saturation/perfetto": (
        "b0c9a27009faac6903e366d4586ce90a270ce12e48164469b3702c28607ef726"
    ),
    "fault/trace-jitter/metrics": (
        "b1b13ea912561eb6b0a230512c655bfb5dbfd83a5b716b4b5ad58d23a1642a7e"
    ),
    "fault/trace-jitter/perfetto": (
        "f30510de6195290d2ebb7aaf3689156da14a225a668b55283e06259884234ffd"
    ),
    "fault/trace-loss/metrics": (
        "f2c72d7d0a5ee147a0ed1bf13a54fcedb371a033a99a03663e5bc27936c5c87f"
    ),
    "fault/trace-loss/perfetto": (
        "b1864a1a767405d9d60180866ff2d1490fdaa3db050971ba26f36d3bb418feb0"
    ),
    "trace/daemon/perfetto": (
        "8c6ad830b8e6cdf3c137767c527f9f0b4644060e421aa1463b0ff27aff760f9f"
    ),
    "trace/fig13-lfs/perfetto": (
        "3ff02e914267d2bc985b88c96bdcce2ebf8ea5e522f2a46e57df8a0916cea73e"
    ),
    "trace/fig13/perfetto": (
        "b23a7d22365bfcdbd15b2d2449a7afdf8bf984eb1d244307b7f7d8ef4d964c23"
    ),
    "trace/qtrace-agent/perfetto": (
        "4c249a4bd84414acf4506b760f67d8f93b18deac148007c20242f106ee253187"
    ),
}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _perfetto(telemetry) -> bytes:
    return json.dumps(chrome_trace(telemetry), allow_nan=False).encode()


def fingerprints() -> dict[str, str]:
    """Run every entry and return its fingerprint, keyed as :data:`DIGESTS`."""
    table: dict[str, str] = {}
    for name, kwargs in EXPERIMENTS.items():
        table[f"experiment/{name}"] = _sha(_json(REGISTRY[name].run(**kwargs).comparable()))
    for name, scenario in FAULT_SCENARIOS.items():
        run = scenario(n_frames=FAULT_FRAMES)
        table[f"fault/{name}/metrics"] = _sha(_json(run.metrics))
        table[f"fault/{name}/perfetto"] = _sha(_perfetto(run.telemetry))
    for name, scenario in TRACE_SCENARIOS.items():
        table[f"trace/{name}/perfetto"] = _sha(_perfetto(scenario()))
    return table


@pytest.fixture(scope="module")
def actual() -> dict[str, str]:
    return fingerprints()


def test_table_covers_every_scenario(actual):
    assert set(actual) == set(DIGESTS), (
        "the fingerprint table and the scenario catalogues disagree\n"
        f"  actual: {json.dumps(actual, indent=4, sort_keys=True)}"
    )


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_closed_loop_digest_unchanged(actual, key):
    assert actual[key] == DIGESTS[key], (
        f"{key} changed: either a refactor broke bit-identity, or an "
        "intentional change of results needs the table re-recorded\n"
        f"  actual: {json.dumps(actual, indent=4, sort_keys=True)}"
    )
