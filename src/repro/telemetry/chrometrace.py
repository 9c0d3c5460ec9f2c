"""Chrome Trace Event export: open a run in Perfetto.

``python -m repro trace --chrome out.json`` renders a telemetry run as a
`Chrome Trace Event`_ document — the JSON dialect ``chrome://tracing``
and https://ui.perfetto.dev load directly — so a tail investigation can
*look at* the slow traces instead of reading tables.

The timeline carries three processes:

* **pid 1 — traces**: one thread per traced packet (tid = trace id),
  with one complete ("X") slice per hop span. Slices tile the round
  trip exactly: each span runs from the previous event to the next, so
  the thread renders as a gap-free bar whose width is the rtt.
* **pid 2 — series**: every gauge series from the windowed recorder as
  counter ("C") events — queue depths and backlog levels over time.
* **pid 3 — profiler** (only with ``--profile``): the kernel
  profiler's per-event timeline, one thread per handler kind. Slice
  *start* is the event's virtual firing time; slice *duration* is the
  handler's **wall-clock** cost — mixed units by design, putting "which
  handler was expensive" next to "when in the simulation it fired".

All timestamps are exported in microseconds (the trace-event contract);
simulation nanoseconds divide by
:data:`~repro.sim.kernel.MICROSECOND` at this edge only.

.. _Chrome Trace Event:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json

from repro.sim.kernel import MICROSECOND
from repro.telemetry.context import iter_spans
from repro.telemetry.session import TelemetrySession


def _meta(pid: int, name: str, tid: int | None = None) -> dict:
    """A process_name (or thread_name) metadata event."""
    event = {
        "name": "process_name" if tid is None else "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": 0 if tid is None else tid,
        "args": {"name": name},
    }
    return event


def build_chrome_trace(
    session: TelemetrySession, profiler: object | None = None
) -> dict:
    """Render a telemetry session (and optional profiler) as a trace doc.

    Deterministic: identical sessions produce identical documents. The
    profiler section is only deterministic in structure — its durations
    are wall-clock measurements.
    """
    events: list[dict] = [_meta(1, "traces"), _meta(2, "series")]
    for trace in session.traces:
        events.append(_meta(1, f"trace {trace.trace_id}", tid=trace.trace_id))
        for where, kind, start_ns, duration_ns in iter_spans(trace):
            events.append(
                {
                    "name": f"{where} [{kind}]",
                    "cat": kind,
                    "ph": "X",
                    "ts": start_ns / MICROSECOND,
                    "dur": duration_ns / MICROSECOND,
                    "pid": 1,
                    "tid": trace.trace_id,
                }
            )
    series = session.series
    for name in series.series_names:
        if series.kind(name) != "max":
            continue
        for point in series.points(name):
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": point.start_ns / MICROSECOND,
                    "pid": 2,
                    "tid": 0,
                    "args": {"value": point.value},
                }
            )
    timeline = getattr(profiler, "timeline", None)
    if timeline:
        events.append(_meta(3, "profiler"))
        tids: dict[str, int] = {}
        for now, kind, wall_ns in timeline:
            tid = tids.get(kind)
            if tid is None:
                tid = len(tids) + 1
                tids[kind] = tid
                events.append(_meta(3, kind, tid=tid))
            events.append(
                {
                    "name": kind,
                    "cat": "handler",
                    "ph": "X",
                    "ts": now / MICROSECOND,
                    # Wall-clock cost drawn on the virtual-time axis; see
                    # the module docstring for why the units mix.
                    "dur": wall_ns / MICROSECOND,
                    "pid": 3,
                    "tid": tid,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def validate_chrome_trace(doc: object) -> list[str]:
    """Structural problems in a trace document; empty means valid.

    Checks the invariants the smoke test (and Perfetto's importer) care
    about: a ``traceEvents`` array, required keys per phase, nonnegative
    durations, nondecreasing "X" timestamps per (pid, tid) track, and
    balanced B/E nesting.
    """
    problems: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["document must be an object with a traceEvents array"]
    last_ts: dict[tuple[int, int], float] = {}
    open_stacks: dict[tuple[int, int], int] = {}
    for position, event in enumerate(doc["traceEvents"]):
        if not isinstance(event, dict):
            problems.append(f"event {position}: not an object")
            continue
        phase = event.get("ph")
        if phase not in {"X", "B", "E", "C", "M"}:
            problems.append(f"event {position}: unknown phase {phase!r}")
            continue
        if phase == "M":
            continue
        track = (event.get("pid"), event.get("tid"))
        if not all(isinstance(part, int) for part in track):
            problems.append(f"event {position}: missing integer pid/tid")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {position}: missing numeric ts")
            continue
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or "value" not in args:
                problems.append(f"event {position}: counter without args.value")
            continue
        if "name" not in event:
            problems.append(f"event {position}: slice without a name")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"event {position}: X event needs dur >= 0")
            if ts < last_ts.get(track, float("-inf")):
                problems.append(
                    f"event {position}: ts decreases on track pid={track[0]} "
                    f"tid={track[1]}"
                )
            last_ts[track] = ts
        elif phase == "B":
            open_stacks[track] = open_stacks.get(track, 0) + 1
        else:  # "E"
            depth = open_stacks.get(track, 0)
            if depth == 0:
                problems.append(f"event {position}: E without matching B")
            else:
                open_stacks[track] = depth - 1
    for track, depth in sorted(open_stacks.items()):
        if depth:
            problems.append(
                f"track pid={track[0]} tid={track[1]}: {depth} unclosed B event(s)"
            )
    return problems


def write_chrome_trace(
    path: str, session: TelemetrySession, profiler: object | None = None
) -> dict:
    """Build, validate, and write a trace document; returns the document."""
    doc = build_chrome_trace(session, profiler)
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError(f"invalid chrome trace: {problems[:3]}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
        handle.write("\n")
    return doc
