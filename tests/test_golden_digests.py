"""Cross-commit golden pins: the one gate that proves a refactor changed nothing.

Every other determinism gate in the tree is run-twice (same commit, same
bytes). These pins compare against digests computed at the commit
*before* the six hand-wired testbed builders were replaced by one
role-graph builder, so a construction-order slip that moves a
same-timestamp tie-break, an RNG stream name, or a telemetry instrument
name fails here even though it would still be self-consistent.

A pin is the sha256 of the run's deterministic serialization
(``RunResult.to_dict(deterministic=True)`` as sorted-key JSON; for the
scenario catalog, the ``repro scenario --format json`` rendering). When
a change *means* to move simulated results, regenerate with::

    PYTHONPATH=src python tests/test_golden_digests.py

and say in the PR which pins moved and why.
"""

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
    "design1": "4b9aff8e1e08844fa76cf9f08a878865c4eb7362bc5c7c93812089ee94d52511",
    "design2": "713875f56bb6cd990c33052b6c8deccb7d1b43148ad30490426722bb19ccd9c6",
    "design3": "f129d81b2c7fc9d0ff192565dc95c2e609f081622ff950245ddcf97972c514dc",
    "design4": "f2059d5d0c932e865a9094d3ec3b36a04d69a658a00a5c231f37d1dd0aba4c31",
    "wan": "d200509dca72b0c3c4b80e045531b56b06e5f321654a43d197c2cfe7658cdf5f",
    "multivenue": "d8f09ce857b84d52393dd394e8048769d57779435a82360386d932ff95b036ab",
    "ticktotrade": "b599d5ced72dc416ff7a8fbbc7d4699e2e26fa1dacb862c21a6ab5937f90e3ad",
    "design1-2norm": "dddb3a129d6904caae3f885817ae4deafa6054f42281a4b04fdfa0646a609a72",
    "design3-2norm": "9285bbcff4cc2bdf1c0a41995e5586293ee34554d765c86bbb21bd263620c850",
    "design1-telemetry": "ec562a196f325dfcbfdbcc0e9017053a34df8c6963b7b1ed7b73047a25349eff",
    "design4-2subs": "9d87585f47d33869d545e83fc8b55a8921a22a627850a159fe2d3ddb105f2bee",
    "scenario:link-flap": "b49b8f870e1ad708910caaefdde1e3ff77eb49aa40a551d0007113d362079d4c",
    "scenario:feed-gap-storm": "1a15ac937ad1b5e97c40988b52ca5e668533b0813925c39801d48bbf6e33e434",
    "scenario:switch-failover": "11d8cc2473bf3d7c65e6561cdbab2b09985e72c7319233dca48ef593c6001032",
    "scenario:merge-saturation": "0f9b8bb97849132ce77dc78a6da2e1845fdc0a6e296a923d1d7092842969cfd0",
    "scenario:cold-start": "7af6d3ed4fa09006340224d1995fa706f6de80410224f65913eb3514505cd303",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def case_digest(name: str) -> str:
    result = run_spec(seed=1, run_ns=RUN_NS, **CASES[name])
    out = result.to_dict(deterministic=True)
    if name == "multivenue":
        for key in MULTIVENUE_UNPINNED:
            del out[key]
        out["histograms"].pop("roundtrip_ns", None)
    return _sha(json.dumps(out, sort_keys=True))


def scenario_digest(name: str) -> str:
    scenario = SCENARIOS[name]
    return _sha(render_json(scenario, run_spec(scenario.spec)))


@pytest.mark.parametrize("name", CASES)
def test_design_digest_matches_golden(name):
    assert case_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_digest_matches_golden(name):
    assert scenario_digest(name) == GOLDEN[f"scenario:{name}"]


def test_golden_covers_every_design_and_scenario():
    assert set(GOLDEN) == set(CASES) | {f"scenario:{n}" for n in SCENARIOS}


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
    for case in CASES:
        print(f'    "{case}": "{case_digest(case)}",')
    for scenario_name in SCENARIOS:
        print(
            f'    "scenario:{scenario_name}": '
            f'"{scenario_digest(scenario_name)}",'
        )
