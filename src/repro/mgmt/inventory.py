"""Cage inventory: racks, servers, space and power.

Figure 1(c): "Within a cage, a trading firm has racks of servers and
switches. Availability of space and power impose practical restrictions."
Colo space is over-subscribed, so minimizing the hardware footprint is a
first-class objective (§2) — the inventory model makes footprint a
checkable constraint rather than an afterthought.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ServerSpec:
    """One server model: its space, power, and port needs."""

    model: str
    rack_units: int = 1
    watts: int = 500
    nic_slots: int = 3  # management, market data, orders (Fig 1d)

    def __post_init__(self) -> None:
        if self.rack_units < 1 or self.watts <= 0 or self.nic_slots < 1:
            raise ValueError("invalid server spec")


@dataclass
class Rack:
    """One rack: space and power budget, plus what's installed."""

    name: str
    rack_units: int = 42
    power_watts: int = 10_000
    servers: dict[str, ServerSpec] = field(default_factory=dict)

    @property
    def used_units(self) -> int:
        return sum(s.rack_units for s in self.servers.values())

    @property
    def used_watts(self) -> int:
        return sum(s.watts for s in self.servers.values())

    @property
    def free_units(self) -> int:
        return self.rack_units - self.used_units

    @property
    def free_watts(self) -> int:
        return self.power_watts - self.used_watts

    def fits(self, spec: ServerSpec) -> bool:
        return spec.rack_units <= self.free_units and spec.watts <= self.free_watts

    def install(self, hostname: str, spec: ServerSpec) -> None:
        if hostname in self.servers:
            raise ValueError(f"host {hostname} already installed in {self.name}")
        if not self.fits(spec):
            raise ValueError(
                f"rack {self.name} cannot fit {hostname}: "
                f"{self.free_units}U/{self.free_watts}W free, "
                f"needs {spec.rack_units}U/{spec.watts}W"
            )
        self.servers[hostname] = spec

    def remove(self, hostname: str) -> ServerSpec:
        if hostname not in self.servers:
            raise KeyError(f"host {hostname} not in rack {self.name}")
        return self.servers.pop(hostname)


@dataclass
class Cage:
    """A firm's cage in one colo: a set of racks."""

    name: str
    racks: dict[str, Rack] = field(default_factory=dict)

    def add_rack(self, rack: Rack) -> None:
        if rack.name in self.racks:
            raise ValueError(f"duplicate rack {rack.name}")
        self.racks[rack.name] = rack

    def rack_of(self, hostname: str) -> Rack | None:
        for rack in self.racks.values():
            if hostname in rack.servers:
                return rack
        return None

    def place_anywhere(self, hostname: str, spec: ServerSpec) -> Rack:
        """First-fit install; raises when the cage is full (the paper's
        over-subscription pressure made concrete)."""
        for rack in self.racks.values():
            if rack.fits(spec):
                rack.install(hostname, spec)
                return rack
        raise ValueError(f"cage {self.name} has no room for {hostname}")

    @property
    def total_servers(self) -> int:
        return sum(len(r.servers) for r in self.racks.values())
