"""Trace contexts, events, and completed traces.

A :class:`TraceContext` rides on one packet (and survives clones via
:meth:`fork`). Devices append *point events* — "this packet passed
``where`` at time ``t``, and the time since the previous event belongs to
category ``kind``". A finished context becomes an immutable
:class:`Trace`, whose spans (:func:`iter_spans`, the one statement of the
rule) are the consecutive differences between events; their sum is
exactly ``end_ns - begin_ns``, which is the same subtraction the exchange
edge performs to produce a round-trip sample. Spans therefore sum to the
measured round trip with no residual.

Kinds in use across the stack:

========== ====================================================
kind       what the span covers
========== ====================================================
exchange   matching output → feed frame emission (coalescing)
wire       serialization + queue wait + propagation to a device
switch     commodity-switch hop latency
l1s        layer-1 switch fan-out latency
merge      merge-unit arbitration latency
fpga       FPGA-enhanced L1S hop latency
cloud      equalized cloud-fabric delivery
nic        NIC rx/tx hardware latency
normalizer decode + book update + normalization compute
strategy   ITF decode + decision compute
gateway    risk check + BOE translation compute
========== ====================================================
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

_trace_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One point event: the packet passed ``where`` at time ``t``."""

    where: str
    kind: str
    t: int


@dataclass(frozen=True, slots=True)
class Span:
    """A derived interval: ``duration_ns`` attributed to one hop."""

    where: str
    kind: str
    duration_ns: int


class TraceContext:
    """Mutable per-packet trace state; becomes a :class:`Trace` on finish.

    ``begin_ns`` starts at creation time (the feed-frame emission) and is
    *rebased* by the strategy to the triggering event's exchange
    timestamp — the same value echoed to the exchange as the client
    timestamp — so the final trace covers exactly the interval the
    round-trip sample measures.

    Events are kept newest first as a persistent list of
    ``(where, kind, t, older)`` cells. Cells are immutable, so a
    :meth:`fork` shares its parent's history instead of copying it — a
    multicast fan-out tree costs one cell per hop per branch, not one
    list copy per clone — and only contexts that :meth:`finish` pay to
    materialise :class:`TraceEvent` objects.
    """

    __slots__ = ("trace_id", "begin_ns", "_newest", "done")

    def __init__(self, begin_ns: int):
        self.trace_id = next(_trace_ids)
        self.begin_ns = begin_ns
        self._newest: tuple | None = None
        self.done = False

    def record(self, where: str, kind: str, t: int) -> None:
        """Append a point event (device hook; call with ``sim.now``)."""
        self._newest = (where, kind, t, self._newest)

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def fork(self) -> "TraceContext":
        """Independent child for a packet copy (multicast, per-order)."""
        child = TraceContext(self.begin_ns)
        child._newest = self._newest
        return child

    def rebase(self, begin_ns: int) -> None:
        """Move the trace origin to the triggering event's timestamp."""
        self.begin_ns = begin_ns

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def finish(self, end_ns: int) -> "Trace":
        """Freeze into a :class:`Trace` ending at ``end_ns``."""
        self.done = True
        events = []
        cell = self._newest
        while cell is not None:
            where, kind, t, cell = cell
            events.append(TraceEvent(where, kind, t))
        events.reverse()
        return Trace(
            trace_id=self.trace_id,
            begin_ns=self.begin_ns,
            end_ns=end_ns,
            events=tuple(events),
        )


@dataclass(frozen=True, slots=True)
class Trace:
    """One completed end-to-end trace (exchange → ... → exchange)."""

    trace_id: int
    begin_ns: int
    end_ns: int
    events: tuple[TraceEvent, ...]

    @property
    def rtt_ns(self) -> int:
        """Total traced time; equals the exchange-edge round-trip sample."""
        return self.end_ns - self.begin_ns

    def spans(self) -> list[Span]:
        """Per-hop spans (see :func:`iter_spans`); sums to :attr:`rtt_ns`."""
        return [
            Span(where, kind, duration_ns)
            for where, kind, _start_ns, duration_ns in iter_spans(self)
        ]

    def signature(self) -> tuple[tuple[str, str], ...]:
        """The hop sequence, for grouping same-path traces."""
        return tuple((e.where, e.kind) for e in self.events)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "begin_ns": self.begin_ns,
            "end_ns": self.end_ns,
            "events": [[e.where, e.kind, e.t] for e in self.events],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Trace":
        return cls(
            trace_id=int(raw["trace_id"]),
            begin_ns=int(raw["begin_ns"]),
            end_ns=int(raw["end_ns"]),
            events=tuple(
                TraceEvent(where, kind, int(t)) for where, kind, t in raw["events"]
            ),
        )


def iter_spans(trace: Trace) -> Iterator[tuple[str, str, int, int]]:
    """The span rule: ``(where, kind, start_ns, duration_ns)`` per hop.

    Span *i* runs from event *i-1* (or ``begin_ns``) to event *i* and is
    attributed to event *i*'s location and kind. Any remainder after the
    last event (zero in normal wiring, where the final NIC delivery *is*
    the measurement point) is attributed to ``delivery [wire]``, so the
    durations always sum to :attr:`Trace.rtt_ns` exactly. Every consumer
    of spans — :meth:`Trace.spans`, the tail observatory's per-hop
    histograms, the Chrome exporter — derives them here.
    """
    prev = trace.begin_ns
    for event in trace.events:
        t = event.t
        yield event.where, event.kind, prev, t - prev
        prev = t
    if prev != trace.end_ns:
        yield "delivery", "wire", prev, trace.end_ns - prev
