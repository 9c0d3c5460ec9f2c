"""Cross-commit golden pins: the one gate that proves a refactor changed nothing.

Every other determinism gate in the tree is run-twice (same commit, same
bytes). These pins compare against digests computed at an earlier
commit, so a construction-order slip that moves an RNG stream name or a
telemetry instrument name fails here even though it would still be
self-consistent. The observable results were first pinned before the
six hand-wired testbed builders became one role-graph builder; the full
pins last moved when a link hop became one event, which changed only
``events_executed``.

A pin is the sha256 of the run's deterministic serialization
(``RunResult.to_dict(deterministic=True)`` as sorted-key JSON; for the
scenario catalog, the ``repro scenario --format json`` rendering). When
a change *means* to move simulated results, regenerate with::

    PYTHONPATH=src python tests/test_golden_digests.py

and say in the change which pins moved and why.

Two pin sets cover each case. ``GOLDEN`` hashes the whole deterministic
dict. ``OBSERVABLE`` hashes the same dict without ``events_executed``:
everything a run reports about the modelled system, none of the
kernel's bookkeeping. A change that restructures events without moving
a single simulated result re-pins ``GOLDEN`` and leaves ``OBSERVABLE``
as it was.
"""

import functools
import hashlib
import json

import pytest

from repro.chaos.cli import render_json
from repro.chaos.scenarios import SCENARIOS
from repro.core.config import ALL_DESIGNS, SystemSpec
from repro.core.run import execute_spec, run_spec, summarize_run

RUN_NS = 20_000_000

# name -> SystemSpec overrides. One entry per design, plus the variants
# that take a different path through the builder.
CASES = {
    **{design: dict(design=design) for design in ALL_DESIGNS},
    "design1-2norm": dict(design="design1", n_normalizers=2),
    "design3-2norm": dict(design="design3", n_normalizers=2),
    "design1-telemetry": dict(design="design1", telemetry=True),
    "design4-2subs": dict(design="design4", subscriptions_per_strategy=2),
}

# multivenue's round trips were measured but never reported before the
# one-System refactor; its pin covers every key except the three that
# bugfix moves (checked separately below).
MULTIVENUE_UNPINNED = ("roundtrip", "notes")

GOLDEN = {
    "design1": "0bd88e96c253c4d6ac465f7205c317dc6bcb5f09061496117e1c570fc9c01394",
    "design2": "1c8d0b7c56d1d2f5ea3661051088e62a0eb88b929911bfddfc679d3bcd73d048",
    "design3": "6d4ca5922d825edad9b22b73f20e95b3d657038fcdaf06ee6fe742eae6060523",
    "design4": "b64f94f4b36fe459207cb300a0bb636735b55c10d840a0448280a7437b48c6b0",
    "wan": "062fb628551a45b230d350504dd8496d7b4dceb991076a82b63a7a1e3abc2728",
    "multivenue": "cfbf7a9a9220b5f60a229bac4fd56201b2083d29f679b401ce237ad433ffb324",
    "ticktotrade": "be1d4b38ddd2beb0b9b873642b5fbdee0219ceca814bb9414e65316b9a831388",
    "design1-2norm": "671b2728f5d3f19fb476b741d9c33a36bebc96a0d359694336049e0ac4d7b227",
    "design3-2norm": "d5af7211d8ca1c5b66c45f1249c9a95a9f3b0fa6871c4050bc54cd14dc3fd7e6",
    "design1-telemetry": "5c7740f03f6214043fcfbb247375459135fc65ce015d4fe7239fc2d34ffb173f",
    "design4-2subs": "ed19264c8220962f7583b6e0bac252bb21c1c6dfea32e2c67ad1aff04d224f80",
    "scenario:link-flap": "761fb632ffd39f8fa881594eb519b69392c41e2de53dfb2ffef8dd6378658ffa",
    "scenario:feed-gap-storm": "84f4991711a6faf8c937a031aa5939da80ec55e5d9e6b3f6f47145da882005a4",
    "scenario:switch-failover": "d44c927f0702769c18fcc4a0c3b814b945dbc9000ee07fb464d5cf97d40a942b",
    "scenario:merge-saturation": "2d3ff2b252e3c1169b2aaf156f20a0b4b3d0169840749f2ce397af7fc1aac3bb",
    "scenario:cold-start": "c4a385c19d2e358fa3e7c572fe6b2221b32e51f1c8c94e0e8404a4be8b9f4030",
}

# The same runs without ``events_executed``, pinned at the commit before
# link serialization and propagation were fused into one event.
OBSERVABLE = {
    "design1": "ab95a27dd9502802a7563049b65ebd9dc187a0d85ddace028c8c43b8e9b6ea80",
    "design2": "051dc585cb71230094af907e7010d5433afbff199482747777f42304d28b32b8",
    "design3": "f45240a0a7fd4a8fe3403651dd5e11a6c1ca6827cbfa8923e6fb962c03c83485",
    "design4": "a267263c74cf4cb9821713fa909ec9a27573606fe6e45141c68849bfaa204c8c",
    "wan": "df90287f85048849d1aec7570f36e57c2d89e23b5ee09d337af0679a268f5364",
    "multivenue": "db72bcb992f147b22c51528d9ccfab48a75ba8d2ac4dc80d6c6b304ca6628eaa",
    "ticktotrade": "5bde22eb2504a5ad6bb770c1873c9c9ff89f74519b10422ab3af5bcc10952b2a",
    "design1-2norm": "ddbd5e8409510729225f0b66583cdc3dd7039e7f226d7ea20f8aab0de692cfff",
    "design3-2norm": "4cba80e5c05cdcc174982090a9a7ab6b8f5623385c66804f83a7aeebfe72b61e",
    "design1-telemetry": "000e32cce52ec3b37422144ad935493061a8853ef0d52df9048316dfd5ccf1a7",
    "design4-2subs": "a1610073204286486c2d98d0a4563eb3c7da1547692cb66caa9939770c2dcd07",
    "scenario:link-flap": "d8b5c3f5ce41cc3526bc9905d6190a940da545120fe140a69b2687a1c1a93b4e",
    "scenario:feed-gap-storm": "eae906d92c290c30fec2956ab3b4cc0b3dae4b0ae9c8c28851406ed0373a8adf",
    "scenario:switch-failover": "101621d120d7970a81316686da504f64d6dadd5cc31354870a4f6c3fa706a3b0",
    "scenario:merge-saturation": "d64562df37c11640d8167d810dc4aae817b1427a5d392bbaa889af350042f59b",
    "scenario:cold-start": "939de69824240ef828f8759787a9764a8b9b419ce47f3004b75dd0b3321b8bca",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def case_digests(name: str) -> tuple[str, str]:
    """(full, observable) digests of one run of golden case ``name``."""
    result = run_spec(seed=1, run_ns=RUN_NS, **CASES[name])
    out = result.to_dict(deterministic=True)
    if name == "multivenue":
        for key in MULTIVENUE_UNPINNED:
            del out[key]
        out["histograms"].pop("roundtrip_ns", None)
    full = _sha(json.dumps(out, sort_keys=True))
    del out["events_executed"]
    return full, _sha(json.dumps(out, sort_keys=True))


def scenario_digests(name: str) -> tuple[str, str]:
    """(full, observable) digests of one run of scenario ``name``."""
    scenario = SCENARIOS[name]
    text = render_json(scenario, run_spec(scenario.spec))
    envelope = json.loads(text)
    del envelope["result"]["events_executed"]
    return _sha(text), _sha(json.dumps(envelope, sort_keys=True))


# One run per case serves both pin sets.
_case_digests = functools.lru_cache(maxsize=None)(case_digests)
_scenario_digests = functools.lru_cache(maxsize=None)(scenario_digests)


@pytest.mark.parametrize("name", CASES)
def test_design_digest_matches_golden(name):
    assert _case_digests(name)[0] == GOLDEN[name]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_digest_matches_golden(name):
    assert _scenario_digests(name)[0] == GOLDEN[f"scenario:{name}"]


@pytest.mark.parametrize("name", CASES)
def test_design_observable_digest_matches_pin(name):
    assert _case_digests(name)[1] == OBSERVABLE[name]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_observable_digest_matches_pin(name):
    assert _scenario_digests(name)[1] == OBSERVABLE[f"scenario:{name}"]


def test_golden_covers_every_design_and_scenario():
    keys = set(CASES) | {f"scenario:{n}" for n in SCENARIOS}
    assert set(GOLDEN) == keys == set(OBSERVABLE)


def test_multivenue_reports_the_round_trips_both_venues_measured():
    """The declared digest change: both exchanges' samples are reported."""
    executed = execute_spec(
        SystemSpec(design="multivenue", seed=1, run_ns=RUN_NS)
    )
    result = summarize_run(executed)
    measured = sum(
        len(exchange.order_entry.roundtrip_samples)
        for exchange in executed.system.exchanges
    )
    assert measured > 0
    assert result.roundtrip["count"] == measured
    assert result.histograms["roundtrip_ns"]["count"] == measured
    assert result.notes == ()


if __name__ == "__main__":  # regenerate the pins
    digests = {name: case_digests(name) for name in CASES}
    for name in SCENARIOS:
        digests[f"scenario:{name}"] = scenario_digests(name)
    for title, index in (("GOLDEN", 0), ("OBSERVABLE", 1)):
        print(f"{title} = {{")
        for key, pair in digests.items():
            print(f'    "{key}": "{pair[index]}",')
        print("}")
