"""Addresses for simulated endpoints and multicast groups.

We use structured string addresses rather than literal IPv4 integers: the
paper's designs care about *which* endpoint or group a packet targets and
how many groups a switch must track, not about dotted-quad arithmetic.
Unicast addresses name a host NIC (``host:nic``); multicast groups carry a
feed name and a partition index, mirroring how exchanges shard feeds
across groups (e.g. PITCH splits alphabetically or by instrument type).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True, slots=True)
class EndpointAddress:
    """A unicast address naming one NIC on one host."""

    host: str
    nic: str = "eth0"

    def __str__(self) -> str:
        return f"{self.host}:{self.nic}"


class _GroupFields(NamedTuple):
    feed: str
    partition: int = 0


class MulticastGroup(_GroupFields):
    """A multicast group address.

    ``feed`` names the logical feed ("EXCH_A.PITCH", "norm.equities") and
    ``partition`` selects one shard of it. A switch's mroute table holds
    one entry per (group, ingress) pair it forwards, so the total number
    of distinct groups in use is the quantity the paper tracks against
    hardware table capacity.

    A group is a tuple: every switch, NIC and strategy keys a dict on the
    destination group of every feed frame, and a tuple hashes and compares
    in C.
    """

    __slots__ = ()

    def __new__(cls, feed: str, partition: int = 0) -> "MulticastGroup":
        if partition < 0:
            raise ValueError("partition index must be >= 0")
        return super().__new__(cls, feed, partition)

    def __str__(self) -> str:
        return f"mcast:{self.feed}/{self.partition}"


Address = EndpointAddress | MulticastGroup


def is_multicast(addr: Address) -> bool:
    """True when ``addr`` is a multicast group address."""
    return isinstance(addr, MulticastGroup)
