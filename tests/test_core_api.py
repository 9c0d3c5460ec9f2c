"""The build_system() facade: one construction path for every testbed."""

import pytest

from repro.core import System, available_designs, build_system
from repro.core.config import ALL_DESIGNS, AUX_DESIGNS, DESIGNS, SystemSpec
from repro.core.fabrics import FABRICS
from repro.net.l1switch import Layer1Switch
from repro.net.link import Link
from repro.net.nic import Nic


def test_available_designs_matches_config():
    assert available_designs() == ALL_DESIGNS
    assert set(DESIGNS) == {"design1", "design2", "design3", "design4", "wan"}
    assert set(AUX_DESIGNS) == {"multivenue", "ticktotrade"}


@pytest.mark.parametrize("design", DESIGNS)
def test_every_design_builds_and_runs(design):
    system = build_system(design=design, seed=3, n_symbols=6, n_strategies=2)
    system.run(3_000_000)
    assert system.sim.now >= 3_000_000
    assert system.exchange.publisher.stats.frames > 0


def test_every_design_has_exactly_one_fabric():
    assert tuple(FABRICS) == ALL_DESIGNS


@pytest.mark.parametrize("n_normalizers", [1, 2])
@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_device_registry_is_everything_that_was_built(design, n_normalizers):
    """One system type, and a flat registry filled where devices are
    born: nothing the fabric cabled is reachable only through handles."""
    system = build_system(design=design, n_normalizers=n_normalizers)
    assert type(system) is System
    assert list(system.devices.values()) == system.sim.components
    assert list(system.devices) == [d.name for d in system.sim.components]
    registered = set(map(id, system.devices.values()))
    for nic in system.of(Nic):
        assert nic.link is None or id(nic.link) in registered
    for link in system.of(Link):
        assert id(link.end_a) in registered and id(link.end_b) in registered
    roles = [*system.exchanges, *system.normalizers, *system.strategies,
             *system.flows]
    assert all(system.devices[role.name] is role for role in roles)


def test_duplicate_device_name_at_build_time_raises(monkeypatch):
    wire, pinned = FABRICS["design3"]

    def wire_twice(roles):
        handles = wire(roles)
        Layer1Switch(roles.sim, "l1s-a")
        return handles

    monkeypatch.setitem(FABRICS, "design3", (wire_twice, pinned))
    with pytest.raises(ValueError, match="duplicate device name 'l1s-a'"):
        build_system(design="design3")


def test_aux_designs_build_through_facade():
    multivenue = build_system(design="multivenue", seed=4, n_symbols=6,
                              with_risk_gate=True)
    multivenue.run(3_000_000)
    assert sum(s.stats.fills for s in multivenue.strategies) >= 0
    assert multivenue.risk is not None
    assert multivenue.gateway.risk_checker is multivenue.risk
    assert all(e.publisher.stats.frames > 0 for e in multivenue.exchanges)

    ticktotrade = build_system(design="ticktotrade", seed=77)
    ticktotrade.run(3_000_000)
    assert len(ticktotrade.roundtrip_samples()) > 0


def test_spec_and_overrides_compose():
    spec = SystemSpec(design="design3", seed=5, n_strategies=2)
    system = build_system(spec, n_symbols=6)
    assert len(system.strategies) == 2
    assert len(system.universe.names) == 6


def test_unknown_design_rejected():
    with pytest.raises(ValueError):
        build_system(design="design9")


def test_unknown_core_attribute_is_plain_attribute_error():
    import repro.core as core

    with pytest.raises(AttributeError):
        core.not_a_real_name  # noqa: B018


def test_spec_build_routes_through_facade():
    spec = SystemSpec(design="design4", seed=2, n_symbols=6,
                      subscriptions_per_strategy=2)
    system = spec.build()
    assert len(system.normalizers) == 1


def test_spec_json_roundtrip_with_new_fields():
    spec = SystemSpec(design="wan", telemetry=True, microwave_loss=0.05,
                      equalized_delivery_ns=60_000, subscriptions_per_strategy=3)
    again = SystemSpec.from_json(spec.to_json())
    assert again == spec


def test_spec_validates_new_fields():
    with pytest.raises(ValueError):
        SystemSpec(microwave_loss=1.5)
    with pytest.raises(ValueError):
        SystemSpec(equalized_delivery_ns=-1)
    with pytest.raises(ValueError):
        SystemSpec(subscriptions_per_strategy=0)
