"""Market-data publication: partitioning schemes and the feed publisher.

"Often exchanges will partition this feed across multiple multicast
groups. Each exchange chooses its own binary formats and multicast
partitioning scheme. Some exchanges partition based on the name of the
instrument (e.g. alphabetical by stock ticker's first letter), while
others partition based on the type of instrument" (§2). Both schemes are
provided, plus a hashed scheme for load balance comparisons.

The :class:`FeedPublisher` coalesces messages per partition into packed
PITCH frames (multiple updates per packet, as real feeds do), publishes
each frame to the partition's multicast group, and can mirror onto a
redundant B leg for receiver-side arbitration.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.net.addressing import MulticastGroup
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.net.headers import frame_bytes_udp
from repro.protocols.pitch import (
    PitchMessage,
    SEQUENCED_UNIT_HEADER_BYTES,
)
from repro.protocols.seqfeed import SequencedPublisher
from repro.sim.kernel import Simulator
from repro.sim.process import Component


@dataclass(frozen=True)
class PartitionScheme:
    """Maps symbols to feed partitions (= multicast groups)."""

    name: str
    n_partitions: int
    assign: Callable[[str], int] = field(compare=False)

    def __post_init__(self) -> None:
        if self.n_partitions < 1:
            raise ValueError("a scheme needs at least one partition")

    def partition_of(self, symbol: str) -> int:
        index = self.assign(symbol)
        if not 0 <= index < self.n_partitions:
            raise ValueError(
                f"scheme {self.name} assigned {symbol} to partition {index} "
                f"outside [0, {self.n_partitions})"
            )
        return index


def alphabetical_scheme(n_partitions: int) -> PartitionScheme:
    """Partition by the ticker's first letter, A..Z folded into buckets."""

    def assign(symbol: str) -> int:
        first = symbol[0].upper()
        letter = ord(first) - ord("A") if "A" <= first <= "Z" else 25
        return letter * n_partitions // 26

    return PartitionScheme(f"alpha/{n_partitions}", n_partitions, assign)


def instrument_type_scheme(
    type_of: Callable[[str], str], types: list[str]
) -> PartitionScheme:
    """Partition by instrument type (equities on one group, ETFs another...)."""
    index = {t: i for i, t in enumerate(types)}

    def assign(symbol: str) -> int:
        kind = type_of(symbol)
        if kind not in index:
            raise ValueError(f"symbol {symbol} has unknown instrument type {kind!r}")
        return index[kind]

    return PartitionScheme(f"itype/{len(types)}", len(types), assign)


def hashed_scheme(n_partitions: int, salt: str = "") -> PartitionScheme:
    """Partition by symbol hash — the best static load-balance baseline."""

    def assign(symbol: str) -> int:
        return zlib.crc32(f"{salt}{symbol}".encode()) % n_partitions

    return PartitionScheme(f"hash/{n_partitions}", n_partitions, assign)


@dataclass
class PublisherStats:
    messages: int = 0
    frames: int = 0
    bytes_on_wire: int = 0
    flushes: int = 0

    @property
    def messages_per_frame(self) -> float:
        return self.messages / self.frames if self.frames else 0.0


class FeedPublisher(Component):
    """Publishes PITCH messages onto partitioned multicast groups.

    Messages accumulate per partition for up to ``coalesce_window_ns``
    (or until a frame fills) before being packed and sent — this is what
    produces the realistic frame-length distribution of Table 1: quiet
    partitions emit small frames, busy ones emit near-MTU frames.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        feed_name: str,
        scheme: PartitionScheme,
        nic_a: Nic,
        nic_b: Nic | None = None,
        coalesce_window_ns: int = 5_000,
        max_payload: int = 1400,
        distinct_leg_groups: bool = False,
    ):
        super().__init__(sim, name)
        self.feed_name = feed_name
        # With distinct_leg_groups, the A and B legs publish on separate
        # group addresses ("<feed>.A"/"<feed>.B") as real exchanges do;
        # receivers subscribe to both and arbitrate (FeedHandler strips
        # the leg suffix when keying its arbiters). Otherwise both legs
        # mirror the same group.
        self.distinct_leg_groups = distinct_leg_groups
        self.scheme = scheme
        self.nic_a = nic_a
        self.nic_b = nic_b
        self.coalesce_window_ns = int(coalesce_window_ns)
        self.max_payload = max_payload
        self.stats = PublisherStats()
        self._units = [
            SequencedPublisher(unit=(p % 255) + 1, max_payload=max_payload)
            for p in range(scheme.n_partitions)
        ]
        self._pending: list[list[PitchMessage]] = [
            [] for _ in range(scheme.n_partitions)
        ]
        self._pending_bytes = [SEQUENCED_UNIT_HEADER_BYTES] * scheme.n_partitions
        self._flush_scheduled = [False] * scheme.n_partitions
        # Group addresses, built once: partition -> group, and with
        # distinct_leg_groups leg -> partition -> group.
        partitions = range(scheme.n_partitions)
        self._groups = [MulticastGroup(feed_name, p) for p in partitions]
        self._leg_groups = {
            leg: [MulticastGroup(f"{feed_name}.{leg}", p) for p in partitions]
            for leg in ("A", "B")
        }
        # Precomputed instrument names: emitted frames and the messages
        # coalesced into them, both windowed for the Fig. 2 event series.
        self._frames_series = f"exchange.{name}.frames"
        self._messages_series = f"exchange.{name}.messages"

    def group(self, partition: int) -> MulticastGroup:
        return self._groups[partition]

    @property
    def groups(self) -> list[MulticastGroup]:
        return list(self._groups)

    # -- publishing ---------------------------------------------------------------

    def publish(self, symbol: str, messages: list[PitchMessage]) -> None:
        """Queue ``messages`` for the partition owning ``symbol``."""
        if not messages:
            return
        partition = self.scheme.partition_of(symbol)
        self.publish_to_partition(partition, messages)

    def publish_to_partition(
        self, partition: int, messages: list[PitchMessage]
    ) -> None:
        """Queue messages on an explicit partition (status sweeps etc.)."""
        pending = self._pending[partition]
        for message in messages:
            size = message.WIRE_BYTES
            if self._pending_bytes[partition] + size > self.max_payload and pending:
                self._flush(partition)
                pending = self._pending[partition]
            pending.append(message)
            self._pending_bytes[partition] += size
            self.stats.messages += 1
        if pending and not self._flush_scheduled[partition]:
            self._flush_scheduled[partition] = True
            self.sim.schedule_after(
                self.coalesce_window_ns, self._flush_timer, (partition,)
            )

    def _flush_timer(self, partition: int) -> None:
        self._flush_scheduled[partition] = False
        if self._pending[partition]:
            self._flush(partition)

    def flush_all(self) -> None:
        """Force out every partition's pending messages immediately."""
        for partition in range(self.scheme.n_partitions):
            if self._pending[partition]:
                self._flush(partition)

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def _flush(self, partition: int) -> None:
        messages = self._pending[partition]
        self._pending[partition] = []
        self._pending_bytes[partition] = SEQUENCED_UNIT_HEADER_BYTES
        self.stats.flushes += 1
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.count(self._messages_series, self.now, len(messages))
        payloads = self._units[partition].publish(messages)
        group = self._groups[partition]
        for payload in payloads:
            self._emit(group, payload)

    def leg_group(self, partition: int, leg: str) -> MulticastGroup:
        """The group address for one leg of one partition."""
        if not self.distinct_leg_groups:
            return self._groups[partition]
        return self._leg_groups[leg][partition]

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def _emit(self, group: MulticastGroup, payload: bytes) -> None:
        self.stats.frames += 1
        wire = frame_bytes_udp(len(payload))
        self.stats.bytes_on_wire += wire
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.count(self._frames_series, self.now)
        for leg, nic in (("A", self.nic_a), ("B", self.nic_b)):
            if nic is None:
                continue
            dst = (
                self._leg_groups[leg][group.partition]
                if self.distinct_leg_groups
                else group
            )
            # Trace origin: one context per emitted feed frame (per leg).
            # begin_ns is provisional — the strategy rebases it onto the
            # triggering event's exchange timestamp so spans sum to the
            # measured round trip.
            trace = None
            if telemetry is not None:
                trace = telemetry.start_trace(
                    f"exchange.feed.{self.name}", "exchange", self.now
                )
            packet = Packet(
                src=nic.address,
                dst=dst,
                wire_bytes=wire,
                payload_bytes=len(payload),
                message=payload,
                created_at=self.now,
                trace=trace,
            )
            nic.send(packet)
