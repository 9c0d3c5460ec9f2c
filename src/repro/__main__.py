"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``designs``     print the three §4 designs' budgets and comparison table
``table1``      regenerate the paper's Table 1 from the calibrated feeds
``figure2``     regenerate Figure 2's headline statistics
``roundtrip``   run the Design 1 and Design 3 testbeds and compare
``run``         execute one run from a SystemSpec and print its summary
``scenario``    run a named chaos scenario (deterministic failure injection)
``trace``       run with telemetry and print the per-hop decomposition
``report``      one self-contained run report: hops, series, queues, profile
``sweep``       multiprocess scenario matrix -> one comparative artifact
``lint``        run the repro.lint static-analysis rules over the tree
``verify``      run all the gates (lint, ruff, pytest, E-series collect, sweep/scenario/trace/perf smokes)

Every run-shaped command (``run``, ``trace``, ``report``, ``sweep``)
accepts ``--spec FILE`` — a :class:`~repro.core.config.SystemSpec` JSON
document — and resolves ``--design`` through the same alias table
(``leaf_spine``, ``l1s``, bare numbers, ...). Execution always flows
through :func:`repro.core.run.execute_spec`: there is exactly one way
to run and summarize a system.
"""

from __future__ import annotations

import argparse
import sys


def _spec_from_args(args, **defaults):
    """The run-shaped commands' shared spec loading: ``--spec`` wins whole.

    When ``--spec FILE`` is given the file describes the run entirely;
    otherwise the command's flag defaults build the spec. Returns None
    (after printing the problem) for an unknown design.
    """
    from repro.core.config import ALL_DESIGNS, SystemSpec, resolve_design

    if getattr(args, "spec", None):
        return SystemSpec.from_file(args.spec)
    if "design" in defaults:
        design = resolve_design(defaults["design"])
        if design not in ALL_DESIGNS:
            print(f"unknown design {defaults['design']!r}; known: {ALL_DESIGNS}")
            return None
        defaults["design"] = design
    return SystemSpec(**defaults)


def _telemetry_spec_from_args(args):
    """:func:`_spec_from_args` for the commands that read telemetry
    (``trace``, ``report``): telemetry forced on. Returns None (after
    printing the problem) for a design that pins telemetry off."""
    from repro.core.run import telemetry_spec
    from repro.sim.kernel import MILLISECOND

    spec = _spec_from_args(
        args, design=args.design, seed=args.seed, run_ns=args.ms * MILLISECOND
    )
    if spec is None:
        return None
    try:
        return telemetry_spec(spec)
    except ValueError as error:
        print(error)
        return None


def _cmd_designs(_args) -> int:
    from repro.core import compare_designs, Design1LeafSpine, Design2Cloud, Design3L1S
    from repro.core.compare import render_comparison

    for design in (Design1LeafSpine(), Design2Cloud(), Design3L1S()):
        print(design.round_trip_budget().render())
        print()
    print(render_comparison(compare_designs()))
    return 0


def _cmd_table1(args) -> int:
    import numpy as np

    from repro.analysis.tables import render_table
    from repro.workload.framesize import FEED_PROFILES, sample_frame_lengths

    rng = np.random.default_rng(args.seed)
    rows = []
    for name, profile in FEED_PROFILES.items():
        lengths = sample_frame_lengths(profile, args.frames, rng)
        rows.append(
            [f"Exchange {name}", int(lengths.min()), round(float(lengths.mean())),
             int(np.median(lengths)), int(lengths.max())]
        )
    print(render_table(
        ["Feed", "min", "avg", "median", "max"], rows,
        title=f"Table 1 reproduction ({args.frames:,} frames per feed)",
    ))
    print("\npaper:  A: 73/92/89/1514   B: 64/113/76/1067   C: 81/151/101/1442")
    return 0


def _cmd_figure2(args) -> int:
    import numpy as np

    from repro.analysis.windows import summarize_windows
    from repro.workload.bursts import window_counts
    from repro.workload.daily import busy_second_event_times, intraday_second_counts
    from repro.workload.growth import daily_event_counts, measured_growth_factor

    _, daily = daily_event_counts(seed=args.seed)
    print(f"Fig 2(a): growth {measured_growth_factor(daily):.2f}x over 5y "
          f"(paper: ~5x); final-year median "
          f"{np.median(daily[-252:])/1e9:.0f}B events/day")

    seconds = intraday_second_counts(seed=args.seed)
    print(f"Fig 2(b): median second {np.median(seconds):,.0f} events "
          f"(paper: >300k); busiest {seconds.max():,} (paper: 1.5M)")

    times = busy_second_event_times(seed=args.seed + 4)
    summary = summarize_windows(window_counts(times, 100_000, 10**9), 100_000)
    print(f"Fig 2(c): median 100us window {summary.median:.0f} (paper: 129); "
          f"busiest {summary.maximum} (paper: 1066); "
          f"peak budget {summary.budget_at_peak_ns:.0f} ns/event (paper: ~100)")

    if args.csv:
        from repro.analysis.figures import write_all_figures

        paths = write_all_figures(args.csv, seed=args.seed)
        print("\nwrote plot series:")
        for path in paths:
            print(f"  {path}")
    return 0


def _cmd_roundtrip(args) -> int:
    from repro.core import build_system
    from repro.sim.kernel import MILLISECOND, format_ns

    for label, design in (
        ("design1 (leaf-spine)", "design1"),
        ("design3 (L1S)", "design3"),
    ):
        system = build_system(design=design, seed=args.seed)
        system.run(args.ms * MILLISECOND)
        stats = system.roundtrip_stats()
        print(f"{label:<22}: median {format_ns(int(stats.median))}, "
              f"p99 {format_ns(int(stats.p99))}  (n={stats.count})")
    print("paper model: design1 = 12 us (12 hops x 500 ns + 3 x 2 us); the "
          "~6 us delta between rows is the commodity switch time")
    return 0


def _cmd_run(args) -> int:
    from repro.core.run import run_spec
    from repro.sim.kernel import MILLISECOND, format_ns

    spec = _spec_from_args(args, design=args.design, seed=args.seed)
    if spec is None:
        return 2
    print(f"building {spec.design} (seed={spec.seed}, "
          f"{spec.n_strategies} strategies, {spec.run_ns / MILLISECOND:g} ms)...")
    result = run_spec(spec)
    if result.roundtrip is not None:
        rt = result.roundtrip
        print(f"round trip: median {format_ns(int(rt['median_ns']))}, "
              f"p99 {format_ns(int(rt['p99_ns']))} (n={rt['count']})")
    workload = result.workload
    print(f"feed frames: {workload.get('feed_frames', 0):,}; "
          f"orders: {workload.get('orders_in', 0)}; "
          f"fills: {workload.get('fills', 0)}")
    for note in result.notes:
        print(f"note: {note}")
    return 0


def _cmd_scenario(args) -> int:
    from repro.chaos.cli import run_command

    return run_command(args)


def _cmd_trace(args) -> int:
    from repro.core.run import execute_spec
    from repro.sim.kernel import MILLISECOND, format_ns
    from repro.telemetry import decompose, render_decomposition, write_traces_jsonl

    spec = _telemetry_spec_from_args(args)
    if spec is None:
        return 2
    design = spec.design
    profiler = None
    if args.chrome:
        # The Chrome export's third process is the kernel profiler's
        # per-event timeline; sized generously — overflow is counted.
        from repro.telemetry import KernelProfiler

        profiler = KernelProfiler(timeline_capacity=200_000)
    system = execute_spec(spec, profiler=profiler).system
    telemetry = system.sim.telemetry
    if not telemetry.traces:
        if design == "wan":
            # The cross-colo feed rides a ReliableChannel, which re-frames
            # payloads; trace contexts do not survive the WAN crossing.
            print("the wan deployment does not propagate trace contexts "
                  "across the reliable metro channel; use run --design wan "
                  "for round-trip stats, or trace designs 1-4")
        else:
            print(f"no round trips completed in "
                  f"{spec.run_ns / MILLISECOND:g} simulated ms; "
                  "try a longer --ms or another --seed")
        return 1
    deco = decompose(telemetry.traces)
    print(render_decomposition(deco, title=f"{design} round-trip decomposition"))
    stats = system.roundtrip_stats()
    print(f"\nmeasured round trip: median {format_ns(int(stats.median))}, "
          f"p99 {format_ns(int(stats.p99))} (n={stats.count})")
    verdict = "OK" if deco.max_residual_ns <= 1 else "MISMATCH"
    print(f"span-sum check: every trace's spans sum to its measured round "
          f"trip within {deco.max_residual_ns} ns [{verdict}]")
    if args.jsonl:
        write_traces_jsonl(telemetry.traces, args.jsonl)
        print(f"wrote {len(telemetry.traces)} traces to {args.jsonl}")
    if args.chrome:
        from repro.telemetry.chrometrace import write_chrome_trace

        doc = write_chrome_trace(args.chrome, telemetry, profiler)
        print(
            f"wrote {len(doc['traceEvents'])} trace events to {args.chrome} "
            "(load in https://ui.perfetto.dev or chrome://tracing)"
        )
    return 0 if deco.max_residual_ns <= 1 else 1


def _cmd_report(args) -> int:
    import json

    from repro.analysis.report import build_report, render_report
    from repro.telemetry import write_series_jsonl

    spec = _telemetry_spec_from_args(args)
    if spec is None:
        return 2
    if args.tail:
        # The tail view runs without the profiler so its output is a
        # pure function of the spec (byte-identical across runs).
        from repro.analysis.report import build_tail_report, render_tail_report

        tail = build_tail_report(spec=spec)
        if args.format == "json":
            print(json.dumps(tail.to_dict(), indent=2, sort_keys=True))
        else:
            print(render_tail_report(tail))
        return 0 if tail.roundtrip is not None else 1
    report = build_report(spec=spec)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_report(report))
    if args.series_jsonl:
        write_series_jsonl(report.series, args.series_jsonl)
        print(f"wrote windowed series to {args.series_jsonl}", file=sys.stderr)
    return 0 if report.sum_check.ok else 1


def _cmd_sweep(args) -> int:
    from repro.sweep.cli import run as sweep_run

    return sweep_run(args)


def _cmd_verify(args) -> int:
    """Chain the gates: repro lint, ruff (if present), tier-1 pytest, the
    E-series collect-only import check, the tie-order shuffles, the sweep
    smoke matrix with its workers=1-vs-N determinism check, the scenario
    and trace-export smokes, and the benchmark-harness smoke."""
    import os
    import shutil
    import subprocess
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1])  # the src/ directory
    repo = Path(src).parent
    # The repository root too, so `-m tests.<module>` resolves.
    env["PYTHONPATH"] = os.pathsep.join([src, str(repo), env.get("PYTHONPATH", "")])

    steps: list[tuple[str, list[str]]] = [
        ("repro lint", [sys.executable, "-m", "repro", "lint"]),
    ]
    if shutil.which("ruff"):
        steps.append(("ruff", ["ruff", "check", "src", "tests", "benchmarks"]))
    else:
        print("verify: ruff not installed; skipping the style gate")
    steps.append(("pytest (tier 1)", [sys.executable, "-m", "pytest", "-x", "-q"]))
    # benchmarks/ (the E-series) is outside tier-1: collecting it imports
    # all of its files, so a public name deleted from src/ fails here, in
    # a second, not at scoreboard time. Mirrors `make bench-collect`; the
    # directory is not packaged, so an installed copy has nothing to check.
    benchmarks = repo / "benchmarks"
    if benchmarks.is_dir():
        steps.append(
            (
                "benchmarks (collect-only)",
                [sys.executable, "-m", "pytest", str(benchmarks),
                 "--collect-only", "-q"],
            )
        )
    else:
        print("verify: benchmarks/ not present; skipping the E-series import check")
    # Tie-order shuffles: three seeded reorderings of same-nanosecond
    # events across owners must leave every golden case and scenario on
    # its observable pin. Mirrors `make tie-order`; tests/ is not
    # packaged either.
    if (repo / "tests" / "test_tie_order.py").exists():
        steps.append(
            ("tie-order shuffles", [sys.executable, "-m", "tests.test_tie_order"])
        )
    else:
        print("verify: tests/ not present; skipping the tie-order shuffles")
    steps.append(
        ("sweep smoke", [sys.executable, "-m", "repro", "sweep", "--smoke"])
    )
    # Scenario smoke: the chaos tier's determinism gate — the storm
    # scenario must render byte-identically twice. Mirrors
    # `make scenario-smoke`.
    steps.append(
        (
            "scenario smoke (--check)",
            [
                sys.executable, "-m", "repro", "scenario",
                "feed-gap-storm", "--format", "json", "--check",
            ],
        )
    )
    # Trace-export smoke: a short telemetry run whose Chrome Trace JSON
    # must pass the exporter's structural validation (write_chrome_trace
    # raises on an invalid document). Mirrors `make trace-smoke`.
    import tempfile

    chrome_smoke = os.path.join(tempfile.gettempdir(), "repro-trace-smoke.json")
    steps.append(
        (
            "trace smoke (--chrome)",
            [
                sys.executable, "-m", "repro", "trace",
                "--ms", "5", "--chrome", chrome_smoke,
            ],
        )
    )

    # Perf-harness smoke: perf/ drives the program only through public
    # handles (build_system, system.run, system.normalizers, system.flow,
    # summarize_run); a 1/20-length run of all five benchmark workloads
    # fails here, in seconds, if a rename breaks one — not at benchmark
    # time. Mirrors `make perf-smoke`. perf/ is not packaged, so an
    # installed copy has nothing to check.
    perf_run = repo / "perf" / "run.py"
    if perf_run.exists():
        steps.append(
            ("perf smoke (--smoke)", [sys.executable, str(perf_run), "--smoke"])
        )
    else:
        print("verify: perf/ not present; skipping the benchmark-harness smoke")

    failed: list[str] = []
    for label, cmd in steps:
        print(f"== {label}: {' '.join(cmd)}")
        if subprocess.call(cmd, env=env) != 0:
            failed.append(label)
            if not args.keep_going:
                break
    if failed:
        print(f"verify: FAILED ({', '.join(failed)})")
        return 1
    print("verify: all gates passed")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run as lint_run

    return lint_run(args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trading-network simulation (HotNets '24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("designs", help="compare the three §4 designs")

    t1 = sub.add_parser("table1", help="regenerate Table 1")
    t1.add_argument("--frames", type=int, default=30_000)
    t1.add_argument("--seed", type=int, default=2024)

    f2 = sub.add_parser("figure2", help="regenerate Figure 2 statistics")
    f2.add_argument("--seed", type=int, default=7)
    f2.add_argument("--csv", help="also write the plot series as CSV into DIR")

    rt = sub.add_parser("roundtrip", help="simulate the round trip end to end")
    rt.add_argument("--seed", type=int, default=7)
    rt.add_argument("--ms", type=int, default=40, help="simulated milliseconds")

    _SPEC_HELP = "path to a SystemSpec JSON file (overrides the other flags)"
    _DESIGN_HELP = (
        'design name, number, or alias: "design1"/"leaf_spine", "3", '
        '"l1s", "fpga_l1s", "wan", ...'
    )

    run = sub.add_parser("run", help="build and run a system from a spec")
    run.add_argument("--spec", help=_SPEC_HELP)
    run.add_argument("--design", default="design1", help=_DESIGN_HELP)
    run.add_argument("--seed", type=int, default=1)

    sc = sub.add_parser(
        "scenario",
        help="run a named chaos scenario (deterministic failure injection)",
    )
    sc.add_argument(
        "name", nargs="?",
        help="scenario name (see --list); omit to list the catalog",
    )
    sc.add_argument(
        "--list", action="store_true", help="list the scenario catalog"
    )
    sc.add_argument(
        "--spec",
        help="run a SystemSpec JSON file (with its faults) as an "
        "ad-hoc scenario",
    )
    sc.add_argument(
        "--design", help="override the scenario's design; " + _DESIGN_HELP
    )
    sc.add_argument("--seed", type=int, help="override the scenario's seed")
    sc.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (both byte-deterministic)",
    )
    sc.add_argument(
        "--check", action="store_true",
        help="run twice and fail unless both renders are byte-identical",
    )

    tr = sub.add_parser(
        "trace", help="per-hop round-trip decomposition (telemetry on)"
    )
    tr.add_argument("--spec", help=_SPEC_HELP)
    tr.add_argument("--design", default="design1", help=_DESIGN_HELP)
    tr.add_argument("--seed", type=int, default=7)
    tr.add_argument("--ms", type=int, default=40, help="simulated milliseconds")
    tr.add_argument("--jsonl", help="also dump every trace to this JSONL file")
    tr.add_argument(
        "--chrome",
        help="also write a Chrome Trace Event JSON timeline (Perfetto) here",
    )

    rp = sub.add_parser(
        "report", help="one self-contained run report (telemetry + profiler on)"
    )
    rp.add_argument("--spec", help=_SPEC_HELP)
    rp.add_argument("--design", default="design1", help=_DESIGN_HELP)
    rp.add_argument("--seed", type=int, default=7)
    rp.add_argument("--ms", type=int, default=40, help="simulated milliseconds")
    rp.add_argument("--format", choices=["text", "json"], default="text")
    rp.add_argument(
        "--tail", action="store_true",
        help="tail view: p50/p99/p99.9 round trip, per-hop span tails, "
             "slowest-trace exemplars, dominant hop at p99.9",
    )
    rp.add_argument(
        "--series-jsonl", help="also dump the windowed series to this JSONL file"
    )

    sw = sub.add_parser(
        "sweep",
        help="multiprocess scenario matrix -> one comparative artifact",
    )
    from repro.sweep.cli import add_arguments as add_sweep_arguments

    add_sweep_arguments(sw)

    verify = sub.add_parser(
        "verify", help="run lint + ruff + tier-1 pytest + the smokes as one gate"
    )
    verify.add_argument(
        "--keep-going", action="store_true",
        help="run every gate even after a failure",
    )

    lint = sub.add_parser(
        "lint", help="run the static-analysis rules (repro.lint)"
    )
    from repro.lint.cli import add_arguments as add_lint_arguments

    add_lint_arguments(lint)

    args = parser.parse_args(argv)
    handler = {
        "designs": _cmd_designs,
        "table1": _cmd_table1,
        "figure2": _cmd_figure2,
        "roundtrip": _cmd_roundtrip,
        "run": _cmd_run,
        "scenario": _cmd_scenario,
        "trace": _cmd_trace,
        "report": _cmd_report,
        "sweep": _cmd_sweep,
        "lint": _cmd_lint,
        "verify": _cmd_verify,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
