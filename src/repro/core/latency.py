"""Latency budgets: itemized, categorized, composable.

§4.1's headline arithmetic: "a round trip (exchange, normalizer,
strategy, gateway, and back to the exchange) would involve 12 switch hops
and 3 software hops. Assuming each switch hop incurs 500 nanoseconds of
latency, half of the overall time through the system is spent in the
network!" (12 × 500 ns = 6 µs network against 3 × 2 µs = 6 µs software.)

:class:`PathBudget` makes that arithmetic a first-class object so every
design can be decomposed the same way, and so the full simulation's
measured latencies can be compared item-by-item against the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Category(Enum):
    """What kind of time an item is."""

    SWITCH = "switch"  # forwarding latency inside network devices
    HOST = "host"  # software function time (normalizer/strategy/gateway)
    NIC = "nic"  # NIC receive/transmit latency
    WIRE = "wire"  # serialization + propagation


@dataclass(frozen=True)
class BudgetItem:
    """``count`` occurrences of a ``each_ns`` delay."""

    label: str
    category: Category
    count: int
    each_ns: float

    def __post_init__(self) -> None:
        if self.count < 0 or self.each_ns < 0:
            raise ValueError("budget items must be non-negative")

    @property
    def total_ns(self) -> float:
        return self.count * self.each_ns


@dataclass
class PathBudget:
    """An itemized end-to-end latency budget for one path."""

    name: str
    items: list[BudgetItem] = field(default_factory=list)

    def add(
        self, label: str, category: Category, count: int, each_ns: float
    ) -> "PathBudget":
        self.items.append(BudgetItem(label, category, count, each_ns))
        return self

    @property
    def total_ns(self) -> float:
        return sum(item.total_ns for item in self.items)

    def category_ns(self, category: Category) -> float:
        return sum(i.total_ns for i in self.items if i.category is category)

    @property
    def network_ns(self) -> float:
        """Time in the network: switches plus wire."""
        return self.category_ns(Category.SWITCH) + self.category_ns(Category.WIRE)

    @property
    def network_fraction(self) -> float:
        total = self.total_ns
        return self.network_ns / total if total else 0.0

    def count(self, category: Category) -> int:
        return sum(i.count for i in self.items if i.category is category)

    def scaled(self, label: str, category: Category, factor: float) -> "PathBudget":
        """A copy with every item of ``category`` scaled by ``factor``
        (for what-if analysis: faster switches, slower software...)."""
        out = PathBudget(f"{self.name} [{label}]")
        for item in self.items:
            each = item.each_ns * factor if item.category is category else item.each_ns
            out.add(item.label, item.category, item.count, each)
        return out

    def render(self) -> str:
        """Human-readable breakdown table."""
        lines = [f"{self.name}: {self.total_ns:,.0f} ns total"]
        for item in self.items:
            lines.append(
                f"  {item.label:<38} {item.count:>3} x {item.each_ns:>9,.1f} ns"
                f" = {item.total_ns:>11,.1f} ns [{item.category.value}]"
            )
        lines.append(
            f"  network share (switch+wire): {self.network_fraction:.1%}"
        )
        return "\n".join(lines)
