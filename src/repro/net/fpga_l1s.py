"""FPGA-enhanced layer-1 switches (§5, "Hardware").

The paper's forward-looking device class: "several commercial L1Ses take
advantage of accelerators based on reconfigurable hardware. These devices
appear to offer the best of both worlds — 100-nanosecond latency and
standard IP forwarding and multicast — although they tend to have small
forwarding tables." It also asks for "support for filtering and splitting
feeds, and load balancing across multiple forwarding paths".

:class:`FilteringL1Switch` models exactly that:

* ~100 ns port-to-port latency (vs 5 ns pure L1S, 500 ns commodity);
* a *small* multicast table (default 128 entries — an FPGA's BRAM, not a
  switch ASIC's dedicated TCAM), with **hard** overflow (no software
  path on an FPGA: installs fail);
* per-egress filter predicates evaluated on the packet, so feeds can be
  split/thinned in the fabric instead of burning NIC bandwidth;
* optional load balancing of a group's traffic across several egress
  links (per-packet hash spraying), which a pure L1S cannot do.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.net.addressing import MulticastGroup, is_multicast
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.process import Component

FPGA_L1S_LATENCY_NS = 100  # the paper's "100-nanosecond latency"
DEFAULT_TABLE_ENTRIES = 128  # "small forwarding tables"

#: A filter predicate: packet -> deliver? Evaluated in hardware, so it
#: must be a pure function of packet fields.
FilterFn = Callable[[Packet], bool]


class TableFull(RuntimeError):
    """FPGA tables are small and have no software fallback."""


@dataclass
class _GroupEntry:
    """One multicast table entry: egress set, filters, balance groups."""

    egress: list[Link] = field(default_factory=list)
    filters: dict[int, FilterFn] = field(default_factory=dict)  # id(link) -> fn
    # Links in a balance set carry a share of the group's packets each
    # instead of a copy each.
    balance_sets: list[list[Link]] = field(default_factory=list)


@dataclass
class FpgaStats:
    packets_in: int = 0
    copies_out: int = 0
    filtered_out: int = 0
    balanced: int = 0
    no_route: int = 0
    egress_send_failures: int = 0


class FilteringL1Switch(Component):
    """An L1S with a reconfigurable-hardware feature pipeline.

    Unlike :class:`~repro.net.l1switch.Layer1Switch`, forwarding is by
    multicast *group*, not physical ingress — the FPGA parses headers.
    Unlike :class:`~repro.net.switch.CommoditySwitch`, the table is tiny
    and installs fail hard when it fills.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency_ns: int = FPGA_L1S_LATENCY_NS,
        table_entries: int = DEFAULT_TABLE_ENTRIES,
    ):
        super().__init__(sim, name)
        if latency_ns <= 0 or table_entries <= 0:
            raise ValueError("latency and table size must be positive")
        self.latency_ns = int(latency_ns)
        self.table_entries = int(table_entries)
        self._table: dict[MulticastGroup, _GroupEntry] = {}
        self.links: list[Link] = []
        self.stats = FpgaStats()
        # Precomputed trace-point name: the datapath must not build it.
        self._trace_point = f"fpga.{name}"

    # -- configuration ---------------------------------------------------------

    def attach_link(self, link: Link) -> None:
        if link not in self.links:
            self.links.append(link)

    def _entry(self, group: MulticastGroup) -> _GroupEntry:
        entry = self._table.get(group)
        if entry is None:
            if len(self._table) >= self.table_entries:
                raise TableFull(
                    f"{self.name}: FPGA table full "
                    f"({self.table_entries} entries)"
                )
            entry = _GroupEntry()
            self._table[group] = entry
        return entry

    def add_egress(
        self,
        group: MulticastGroup,
        link: Link,
        filter_fn: FilterFn | None = None,
    ) -> None:
        """Deliver ``group`` out ``link``; optionally only packets
        matching ``filter_fn`` (in-fabric feed thinning, §5)."""
        self.attach_link(link)
        entry = self._entry(group)
        if link not in entry.egress:
            entry.egress.append(link)
        if filter_fn is not None:
            entry.filters[id(link)] = filter_fn

    def add_balanced_egress(
        self, group: MulticastGroup, links: list[Link]
    ) -> None:
        """Spray ``group``'s packets across ``links``, one link per
        packet (hash on packet id) — the load balancing a pure L1S lacks."""
        if len(links) < 2:
            raise ValueError("a balance set needs at least two links")
        for link in links:
            self.attach_link(link)
        entry = self._entry(group)
        entry.balance_sets.append(list(links))

    def remove_group(self, group: MulticastGroup) -> None:
        self._table.pop(group, None)

    @property
    def groups_installed(self) -> int:
        return len(self._table)

    @property
    def table_headroom(self) -> int:
        return self.table_entries - len(self._table)

    # -- datapath ---------------------------------------------------------------

    def handle_packet(self, packet: Packet, ingress: Link) -> None:
        self.stats.packets_in += 1
        if packet.trace is not None:
            packet.trace.record(self._trace_point, "wire", self.now)
        if not is_multicast(packet.dst):
            # Unicast cut-through: deliver out every other attached link's
            # filter-free path is not meaningful for an FPGA mux; treat
            # unicast as unsupported (trading fabrics here carry unicast
            # on dedicated point-to-point nets).
            self.stats.no_route += 1
            return
        entry = self._table.get(packet.dst)
        if entry is None:
            self.stats.no_route += 1
            return
        self.sim.schedule_after(self.latency_ns, self._emit, (packet, entry, ingress))

    def _emit(self, packet: Packet, entry: _GroupEntry, ingress: Link) -> None:
        for link in entry.egress:
            if link is ingress:
                continue
            filter_fn = entry.filters.get(id(link))
            if filter_fn is not None and not filter_fn(packet):
                self.stats.filtered_out += 1
                continue
            self._send_copy(packet, link)
        for balance_set in entry.balance_sets:
            index = zlib.crc32(packet.packet_id.to_bytes(8, "little")) % len(
                balance_set
            )
            chosen = balance_set[index]
            if chosen is not ingress:
                self.stats.balanced += 1
                self._send_copy(packet, chosen)

    def _send_copy(self, packet: Packet, link: Link) -> None:
        copy = packet.clone()
        if copy.trace is not None:
            copy.trace.record(self._trace_point, "fpga", self.now)
        self.stats.copies_out += 1
        if not link.send(copy, self):
            self.stats.egress_send_failures += 1


def symbol_prefix_filter(prefixes: tuple[str, ...]) -> FilterFn:
    """Filter factory: pass frames whose message batch contains at least
    one message for a symbol starting with one of ``prefixes``.

    Works on packets whose ``message`` is a decoded-message list or an
    ``("itf", ...)`` tuple — the in-fabric equivalent of the filtering
    the firm would otherwise do on a core (§3) or a middlebox.
    """

    def matches_symbol(symbol: str) -> bool:
        return symbol.startswith(prefixes)

    def filter_fn(packet: Packet) -> bool:
        message = packet.message
        if isinstance(message, tuple) and message and message[0] == "itf":
            # ITF batches carry symbols in the decoded records; the
            # publisher tags packets with the partition's symbol set via
            # the group, so fall back to accepting (partition-level
            # filtering happens via group membership).
            return True
        if isinstance(message, list):
            for item in message:
                symbol = getattr(item, "symbol", None)
                if symbol is not None and matches_symbol(symbol):
                    return True
            return False
        return True  # opaque payloads pass (cannot parse = cannot filter)

    return filter_fn
