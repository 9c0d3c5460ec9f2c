"""Outside-in span tracer: layer self times without touching ``src/``.

The tracer replaces public entry points with timing wrappers *as class
attributes* (so instances built afterwards, and bound-at-call-time
lookups on existing ones, go through them) and plugs into the kernel's
two public observation points:

* ``sim.add_trace_hook(hook)`` — called before every dispatched event;
  opens the event's *dispatch span*, attributed to the layer of the
  handler's owner, and samples heap occupancy;
* ``sim.attach_profiler(tracer)`` — the kernel times each handler with
  ``tracer.clock`` and reports it through ``tracer.record``, which
  closes the dispatch span with the kernel's own measurement.

A span's **self time** is its duration minus the part its child spans
cover. Self times are summed per (layer, entry point); because every
wrapped call made while a span is open becomes its child, the self
times of all spans under a root add up to the root's duration exactly.

Tracing observes and never steers: wrappers pass arguments and results
through untouched, and nothing here reads or advances simulated state.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

#: Layer = package name under ``src/repro/``. ``other`` collects handlers
#: owned by any package not named here; its share is what
#: ``trace.unattributed_share`` reports.
LAYERS = (
    "sim", "net", "protocols", "exchange", "firm", "workload", "telemetry", "core",
)
OTHER = "other"

_now = time.perf_counter_ns

# Frame layout on the open-span stack (dispatch frames carry their key).
_CHILD_NS, _SPAN_ID, _KEY = 0, 1, 2


def layer_of_module(module: str | None) -> str:
    """``repro.net.link`` -> ``net``; anything unknown -> ``other``."""
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return OTHER


def layer_of_callable(callback) -> str:
    """Layer of a handler: its owner's class module, else its own module."""
    owner = getattr(callback, "__self__", None)
    if owner is not None and not isinstance(owner, type):
        return layer_of_module(type(owner).__module__)
    return layer_of_module(getattr(callback, "__module__", None))


def callable_name(callback) -> str:
    owner = getattr(callback, "__self__", None)
    name = getattr(callback, "__name__", None) or repr(callback)
    if owner is not None and not isinstance(owner, type):
        return f"{type(owner).__name__}.{name}"
    return getattr(callback, "__qualname__", name)


class SpanTracer:
    """Aggregates span self times per (layer, entry point).

    Also the profiler object handed to ``sim.attach_profiler``: it offers
    the ``clock``/``record``/``record_telemetry`` protocol the kernel and
    the telemetry session call.
    """

    clock = staticmethod(_now)

    def __init__(self, max_raw_spans: int = 50_000):
        self.max_raw_spans = max_raw_spans
        self._keys: dict[tuple[str, str], int] = {}
        self.key_layer: list[str] = []
        self.key_name: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self._stack: list[list] = []
        self.spans = 0  # spans opened, also the next span id
        self.dispatch_seq = 0  # ordinal of the event being dispatched
        # (id, key, start, end, parent id, dispatch ordinal)
        self.raw: list[tuple[int, int, int, int, int, int]] = []
        self._dispatch_keys: dict[object, int] = {}
        self.heap_peak_entries = 0
        self.dead_entry_peak_share = 0.0
        self._patches: list[tuple[type, str, object]] = []

    def __enter__(self) -> "SpanTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unpatch_all()

    # -- aggregates ----------------------------------------------------------

    def key(self, layer: str, name: str) -> int:
        index = self._keys.get((layer, name))
        if index is None:
            index = self._keys[(layer, name)] = len(self.calls)
            self.key_layer.append(layer)
            self.key_name.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return index

    def layer_self_ns(self) -> dict[str, int]:
        totals = dict.fromkeys(LAYERS + (OTHER,), 0)
        for layer, self_ns in zip(self.key_layer, self.self_ns):
            totals[layer] += self_ns
        return totals

    def entries(self, layer: str, prefix: str = "") -> tuple[int, int]:
        """Summed ``(calls, self_ns)`` over a layer's entry points."""
        calls = self_ns = 0
        for (key_layer, name), index in self._keys.items():
            if key_layer == layer and name.startswith(prefix):
                calls += self.calls[index]
                self_ns += self.self_ns[index]
        return calls, self_ns

    def table(self) -> list[dict]:
        rows = [
            {
                "layer": self.key_layer[i],
                "entry": self.key_name[i],
                "calls": self.calls[i],
                "self_ns": self.self_ns[i],
            }
            for i in range(len(self.calls))
        ]
        rows.sort(key=lambda row: (-row["self_ns"], row["layer"], row["entry"]))
        return rows

    # -- wrapping ------------------------------------------------------------

    def wrap(self, func, layer: str, name: str):
        """A timing wrapper around ``func`` recording one span per call."""
        key = self.key(layer, name)
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        raw = self.raw
        cap = self.max_raw_spans
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = tracer.spans
            tracer.spans = span_id + 1
            frame = [0, span_id]
            stack.append(frame)
            begin = _now()
            try:
                return func(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - begin
                calls[key] += 1
                self_ns[key] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if span_id < cap:
                    raw.append((
                        span_id, key, begin, end,
                        parent[1] if parent is not None else -1,
                        tracer.dispatch_seq,
                    ))

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def wrap_callback(self, callback):
        """Wrap a registered handler under the layer of its owner."""
        return self.wrap(
            callback, layer_of_callable(callback), callable_name(callback)
        )

    def patch_method(self, cls: type, method: str, layer: str) -> None:
        """Wrap ``cls.method`` and every subclass override of it."""
        for klass in _with_subclasses(cls):
            if method not in klass.__dict__:
                continue
            original = klass.__dict__[method]
            name = f"{klass.__name__}.{method}"
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self.wrap(original.__func__, layer, name))
            elif isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, layer, name))
            else:
                wrapped = self.wrap(original, layer, name)
            self._patches.append((klass, method, original))
            setattr(klass, method, wrapped)

    def patch_registration(self, cls: type, method: str, arg_index: int, arg_name: str):
        """Wrap the *callback argument* of a registration method.

        ``Nic.bind(handler)`` and ``FeedArbiter(unit, sink)`` hand a
        layer's handler to another layer; wrapping the handler where it
        is registered makes each invocation a child span of its caller.
        """
        original = cls.__dict__[method]
        tracer = self

        def registering(*args, **kwargs):
            if arg_name in kwargs:
                kwargs[arg_name] = tracer.wrap_callback(kwargs[arg_name])
            elif len(args) > arg_index:
                args = list(args)
                args[arg_index] = tracer.wrap_callback(args[arg_index])
            return original(*args, **kwargs)

        self._patches.append((cls, method, original))
        setattr(cls, method, registering)

    def unpatch_all(self) -> None:
        while self._patches:
            cls, method, original = self._patches.pop()
            setattr(cls, method, original)

    # -- kernel observation points ------------------------------------------------

    def attach(self, sim) -> None:
        """Observe ``sim``: dispatch spans, heap samples, telemetry self-time.

        Spans recorded so far (entry points hit while the system was
        being built) are dropped: the aggregates cover the run only.
        """
        self.calls[:] = [0] * len(self.calls)
        self.self_ns[:] = [0] * len(self.self_ns)
        self.raw.clear()
        self.spans = 0
        sim.add_trace_hook(self._make_hook(sim))
        sim.attach_profiler(self)

    def _make_hook(self, sim):
        stack = self._stack
        dispatch_keys = self._dispatch_keys
        tracer = self

        def hook(when, callback):
            occupied = sim.pending_raw
            if occupied > tracer.heap_peak_entries:
                tracer.heap_peak_entries = occupied
            dead = occupied - sim.pending
            if dead and dead > tracer.dead_entry_peak_share * occupied:
                tracer.dead_entry_peak_share = dead / occupied
            func = getattr(callback, "__func__", callback)
            key = dispatch_keys.get(func)
            if key is None:
                key = dispatch_keys[func] = tracer.key(
                    layer_of_callable(callback),
                    "dispatch:" + callable_name(callback),
                )
            tracer.dispatch_seq += 1
            span_id = tracer.spans
            tracer.spans = span_id + 1
            stack.append([0, span_id, key])

        return hook

    def record(self, kind: str, wall_ns: int, now: int = 0) -> None:
        """Kernel callback: the handler just dispatched took ``wall_ns``."""
        stack = self._stack
        frame = stack.pop()
        key = frame[_KEY]
        self.calls[key] += 1
        self.self_ns[key] += wall_ns - frame[_CHILD_NS]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[_CHILD_NS] += wall_ns
        if frame[_SPAN_ID] < self.max_raw_spans:
            end = _now()
            self.raw.append((
                frame[_SPAN_ID], key, end - wall_ns, end,
                parent[_SPAN_ID] if parent is not None else -1,
                self.dispatch_seq,
            ))

    def record_telemetry(self, wall_ns: int) -> None:
        """Telemetry-session callback, part of the profiler protocol.

        Ignored: the session's recording helpers are wrapped entry points
        here, so their time is already in the ``telemetry`` layer's spans.
        """

    # -- export ----------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The kept raw spans as Chrome Trace Event JSON (one track per layer)."""
        origin = min((span[2] for span in self.raw), default=0)
        tids = {layer: i for i, layer in enumerate(LAYERS + (OTHER,), start=1)}
        events = [
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
             "args": {"name": layer}}
            for layer, tid in tids.items()
        ]
        for span_id, key, begin, end, parent, seq in sorted(self.raw):
            events.append({
                "ph": "X", "pid": 1, "tid": tids[self.key_layer[key]],
                "name": self.key_name[key], "cat": self.key_layer[key],
                "ts": (begin - origin) / 1000.0, "dur": (end - begin) / 1000.0,
                "args": {"id": span_id, "parent": parent, "event_seq": seq},
            })
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def write_chrome_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()), encoding="utf-8")


def _with_subclasses(cls: type):
    seen = []
    frontier = [cls]
    while frontier:
        klass = frontier.pop()
        if klass in seen:
            continue
        seen.append(klass)
        frontier.extend(klass.__subclasses__())
    return seen
