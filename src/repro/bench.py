"""Macro benchmarks: sustained simulator throughput on whole testbeds.

The component benches (``benchmarks/test_perf_components.py``) time
individual hot paths; the macro bench answers the sizing question a
downstream user actually has — how many simulated events per wall-clock
second a complete design testbed sustains while its busy-window
workload is running. One number per design, measured the same way every
time: build the system fresh, run it for a fixed simulated window,
divide events executed by wall time, keep the best of N repeats.

Results land in ``BENCH_perf.json`` under the ``macro_events_per_sec``
key, one entry per design, merged into whatever other sections the file
already holds (the component benches own their own top-level keys).
Entry points:

* ``python -m repro bench`` — run the suite and rewrite the file;
* ``python -m repro bench --check`` — the structural gate ``verify``
  runs: smoke-run every design and validate the committed file's shape,
  without asserting any throughput (hardware varies; structure doesn't);
* ``benchmarks/test_perf_macro.py`` — the same suite under
  pytest-benchmark, for the scoreboard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.sim.kernel import MILLISECOND, SECOND

#: The designs the macro suite covers: the §4 colo designs whose packet
#: pipelines exercise the kernel hot path end to end.
MACRO_DESIGNS = ("design1", "design3", "design4")

#: One busy window: long enough that dispatch dominates construction.
DEFAULT_RUN_NS = 20 * MILLISECOND
DEFAULT_REPEATS = 3
#: The --check smoke window: proves the harness drives every design.
SMOKE_RUN_NS = 2 * MILLISECOND

#: Top-level BENCH_perf.json key the macro results live under.
MACRO_SECTION = "macro_events_per_sec"
#: Fields every per-design entry must carry (the verify gate's shape).
#: The tail percentiles are deterministic (virtual-time) outputs of the
#: same run that produced the throughput number, so the bench file
#: tracks each design's round-trip tail alongside its events/s.
MACRO_FIELDS = (
    "events",
    "events_per_sec",
    "repeats",
    "run_ns",
    "wall_ns",
    "p50_rtt_ns",
    "p99_rtt_ns",
    "p999_rtt_ns",
)


@dataclass(frozen=True)
class MacroResult:
    """One design's busy-window throughput measurement."""

    design: str
    events: int
    wall_ns: int  # best-of-repeats wall time for the run window
    run_ns: int
    repeats: int
    p50_rtt_ns: int = 0
    p99_rtt_ns: int = 0
    p999_rtt_ns: int = 0

    @property
    def events_per_sec(self) -> float:
        if not self.wall_ns:
            return 0.0
        return self.events * SECOND / self.wall_ns

    def to_entry(self) -> dict:
        return {
            "events": self.events,
            "events_per_sec": round(self.events_per_sec, 1),
            "repeats": self.repeats,
            "run_ns": self.run_ns,
            "wall_ns": self.wall_ns,
            "p50_rtt_ns": self.p50_rtt_ns,
            "p99_rtt_ns": self.p99_rtt_ns,
            "p999_rtt_ns": self.p999_rtt_ns,
        }


def run_macro(
    design: str,
    seed: int = 1,
    run_ns: int = DEFAULT_RUN_NS,
    repeats: int = DEFAULT_REPEATS,
) -> MacroResult:
    """Drive one design's testbed through a busy window, best-of-N.

    Each repeat builds the system fresh (construction is excluded from
    the timed window — :func:`repro.core.run.execute_spec` times only
    the run) and must execute exactly the same number of events — a
    repeat that doesn't is a determinism bug, not noise, and raises
    rather than averaging it away.
    """
    from repro.core.config import SystemSpec
    from repro.core.run import execute_spec

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    spec = SystemSpec(design=design, seed=seed, run_ns=run_ns)
    events: int | None = None
    best_wall_ns: int | None = None
    executed_run = None
    for _ in range(repeats):
        executed_run = execute_spec(spec)
        wall_ns = executed_run.wall_ns
        executed = executed_run.system.sim.events_executed
        if events is None:
            events = executed
        elif executed != events:
            raise RuntimeError(
                f"{design}: nondeterministic repeat: "
                f"{executed} events vs {events}"
            )
        if best_wall_ns is None or wall_ns < best_wall_ns:
            best_wall_ns = wall_ns
    assert events is not None and best_wall_ns is not None
    # Round-trip tail percentiles: virtual-time outputs, identical
    # across repeats (the repeats are bit-identical by contract above),
    # so the last repeat's samples describe them exactly.
    p50 = p99 = p999 = 0
    samples = executed_run.system.roundtrip_samples()
    if samples:
        from repro.telemetry.hdr import LogLinearHistogram

        hist = LogLinearHistogram()
        hist.record_many(samples)
        p50 = hist.percentile(0.50)
        p99 = hist.percentile(0.99)
        p999 = hist.percentile(0.999)
    return MacroResult(
        design, events, best_wall_ns, run_ns, repeats,
        p50_rtt_ns=p50, p99_rtt_ns=p99, p999_rtt_ns=p999,
    )


def run_macro_suite(
    designs: tuple[str, ...] = MACRO_DESIGNS,
    seed: int = 1,
    run_ns: int = DEFAULT_RUN_NS,
    repeats: int = DEFAULT_REPEATS,
) -> dict[str, MacroResult]:
    """Run :func:`run_macro` for every design, in declared order."""
    return {
        design: run_macro(design, seed=seed, run_ns=run_ns, repeats=repeats)
        for design in designs
    }


def macro_section(results: dict[str, MacroResult]) -> dict:
    """The ``macro_events_per_sec`` payload for a suite's results."""
    return {design: result.to_entry() for design, result in results.items()}


def default_bench_path() -> Path:
    """``BENCH_perf.json`` at the repo root (two levels above ``repro``)."""
    return Path(__file__).resolve().parents[2] / "BENCH_perf.json"


def update_bench_json(path: Path | str, updates: dict) -> dict:
    """Merge top-level ``updates`` into the bench file, deterministically.

    Sections not named in ``updates`` survive, so the component benches
    and the macro suite can each rewrite only their own keys. The file
    is always serialized with sorted keys and a trailing newline, so a
    re-run with identical numbers is byte-identical.
    """
    path = Path(path)
    data: dict = {}
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    data.update(updates)
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return data


def check_bench_json(
    path: Path | str, designs: tuple[str, ...] = MACRO_DESIGNS
) -> list[str]:
    """Structural problems with the bench file's macro section.

    Shape only — no throughput thresholds (the numbers are
    hardware-dependent; their presence and well-formedness are not).
    Returns an empty list when the file is sound.
    """
    path = Path(path)
    if not path.exists():
        return [f"{path}: missing (run `python -m repro bench`)"]
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        return [f"{path}: not valid JSON ({error})"]
    section = data.get(MACRO_SECTION)
    if not isinstance(section, dict):
        return [f"{path}: missing {MACRO_SECTION!r} section"]
    problems: list[str] = []
    for design in designs:
        entry = section.get(design)
        if not isinstance(entry, dict):
            problems.append(f"{path}: {MACRO_SECTION}.{design}: missing entry")
            continue
        for field_name in MACRO_FIELDS:
            value = entry.get(field_name)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"{path}: {MACRO_SECTION}.{design}.{field_name}: "
                    f"expected a positive number, got {value!r}"
                )
    return problems
