#!/usr/bin/env python3
"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

    python perf/run.py                       every workload, tracing off
    python perf/run.py --trace               the separate traced run (per layer)
    python perf/run.py --smoke               1/20 length, 1 repeat: a harness check
    python perf/run.py --json OUT            also write a stamped result file
    python perf/run.py --compare A B         deltas against bounds; exit 1 on breach
    python perf/run.py --workload NAME --seed N --seconds S --trace 0|1
                                             one workload; last stdout line is
                                             the result as one JSON object

Each workload runs in its own fresh subprocess, one at a time and
single-threaded; the load generator is the simulator's own flow
generator inside that process. See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
sys.path.insert(0, str(PERF_DIR))

from harness import median_iqr  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME, REFERENCE_SECONDS, WORKLOADS, traced_guard_failures,
)

DEFAULT_REPEATS = 5
SETUP_PROBES = 5
SMOKE_SCALE = 1 / 20
CHILD_TIMEOUT_S = 170

#: Simulated outputs: exact for a fixed seed, so compared exactly, never
#: against a noise bound. Declared with the per-layer metrics because a
#: bound that is a share of the parent's value cannot say "equal".
SIMULATED = ("rtt_p50_ns", "rtt_p99_ns", "order_fail_share", "rtt_samples")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- child processes ----------------------------------------------------------------


def child(mode: str, workload: str, seed: int, seconds: float, repeats: int = 1) -> dict:
    """Run one harness entry point in a fresh interpreter; its JSON result."""
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--child", mode,
         "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
         "--repeats", str(repeats)],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: {mode} child exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def child_main(args) -> int:
    import harness

    if args.child == "setup":
        result = harness.setup_probe(args.workload, args.seed, args.seconds)
    elif args.child == "untraced":
        result = harness.untraced_run(args.workload, args.seed, args.seconds, args.repeats)
    else:
        result = harness.traced_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


def measure_setup(workload: str, seed: int, seconds: float, probes: int) -> dict:
    """Median over several fresh interpreters of import + inputs + build."""
    samples = [child("setup", workload, seed, seconds) for _ in range(probes)]
    totals = [sum(sample.values()) for sample in samples]
    setup_s, q1, q3 = median_iqr(totals)
    out = {
        "setup_s": setup_s,
        "core.import_s": statistics.median(s["import_s"] for s in samples),
        "core.build_s": statistics.median(s["build_s"] for s in samples),
        "workload.input_gen_s": statistics.median(s["input_gen_s"] for s in samples),
    }
    if probes > 1:
        out["setup_s.q1"], out["setup_s.q3"] = q1, q3
    return out


def run_workload(name: str, args, spec: dict) -> dict:
    """One workload, untraced or traced; the metrics and the verdict."""
    probes = 1 if args.smoke else SETUP_PROBES
    m = measure_setup(name, args.seed, args.seconds, probes)
    if args.trace:
        m.update(child("traced", name, args.seed, args.seconds))
        failures = traced_guard_failures(name, m)
        wanted = [metric["name"] for metric in spec["per_layer"]]
        attempted, failed = m["rtt_samples"], 0
    else:
        m.update(child("untraced", name, args.seed, args.seconds, args.repeats))
        failures = m["guard_failures"]
        wanted = [metric["name"] for metric in spec["end_to_end"]] + list(SIMULATED)
        attempted, failed = int(m["firm.orders_sent"]), int(m["orders_refused"])
    enforced = args.seconds >= REFERENCE_SECONDS and (args.trace or args.repeats >= 5)
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    return {
        "metrics": {key: {"value": m[key], "unit": units[key]} for key in wanted},
        "detail": m,
        "failures": failures,
        "correct": not (failures and enforced),
        "attempted": max(1, attempted),
        "failed": failed,
    }


# -- printing --------------------------------------------------------------------------


def fmt(value) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4g}" if abs(value) < 1 else f"{value:.2f}"


def print_untraced(name: str, outcome: dict) -> None:
    m = outcome["detail"]
    print(f"== {name}: seed {m['seed']}, run_ns {m['run_ns']}, "
          f"{m['repeats']} timed repeats of {m['run_wall_s']:.2f} host s ==")
    for key, metric in outcome["metrics"].items():
        line = f"  {key:<22} {fmt(metric['value']):>12} {metric['unit']}"
        if f"{key}.q1" in m:
            line += f"   [q1 {fmt(m[key + '.q1'])} .. q3 {fmt(m[key + '.q3'])}]"
        print(line)
    rate = m["feed_msgs_per_host_s"]
    print(f"  1.5M-message busiest second (Fig 2b) = {1.5e6 / rate:.0f} host s; "
          f"events/msg x ns/event vs 1e9/(msgs/s): residual {m['accounting_residual']:+.4f}")
    print_verdict(outcome)


def print_traced(name: str, outcome: dict) -> None:
    m = outcome["detail"]
    print(f"== {name} (traced): seed {m['seed']}, run_ns {m['run_ns']}, "
          f"traced wall {m['traced_wall_s']:.2f} host s ==")
    layer = None
    for key, metric in outcome["metrics"].items():
        head = key.split(".")[0] if "." in key else "simulated"
        if head != layer:
            layer = head
            print(f"  [{layer}]")
        print(f"    {key:<36} {fmt(metric['value']):>12} {metric['unit']}")
    total = sum(m["layer_self_ns"].values())
    print(f"  layer self times sum to {total / 1e9:.4f} s of {m['traced_wall_s']:.4f} s "
          f"traced wall ({total / (m['traced_wall_s'] * 1e9):.4%})")
    if m["telemetry.on_off_wall_ratio"]:
        on_off = m["telemetry.on_off_wall_ratio"] - 1
        print("  telemetry cost, three views: "
              f"on/off wall ratio {m['telemetry.on_off_wall_ratio']:.3f} "
              f"(= {on_off / (1 + on_off):.1%} of lit wall), "
              f"profiler_share {m['telemetry.profiler_share']:.1%}, "
              f"traced self_share {m['telemetry.self_share']:.1%}; "
              f"gap on/off vs profiler "
              f"{on_off / (1 + on_off) - m['telemetry.profiler_share']:+.1%}")
    print("  costliest entry points (self time):")
    for row in m["entry_points"][:8]:
        print(f"    {row['layer']:<10} {row['entry']:<44} "
              f"{row['calls']:>9} calls {row['self_ns'] / 1e6:>9.1f} ms")
    print_verdict(outcome)


def print_verdict(outcome: dict) -> None:
    if not outcome["failures"]:
        print("  guards: ok")
        return
    label = "FAILED" if not outcome["correct"] else "not enforced below full length"
    for text in outcome["failures"]:
        print(f"  guard {label}: {text}")


# -- result files -------------------------------------------------------------------------


def fingerprint() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def write_result(path: Path, args, outcomes: dict) -> None:
    """One result file: host + commit stamp, every workload, ``claim`` last."""
    workloads = {}
    for name, outcome in outcomes.items():
        detail = outcome["detail"]
        workloads[name] = {
            "correct": outcome["correct"],
            "metrics": {key: m["value"] for key, m in outcome["metrics"].items()},
            # What --compare requires to be equal: every repeat's digest
            # and every exact .stats count (untraced runs carry both).
            "digests": detail.get("digests", []),
            "counts": {} if args.trace else {
                key: value for key, value in sorted(detail.items())
                if "." in key and isinstance(value, int)
            },
        }
    doc = {
        "host": fingerprint(),
        "seed": args.seed, "seconds": args.seconds, "repeats": args.repeats,
        "traced": bool(args.trace),
        "workloads": workloads,
        "claim": None,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def compare(path_a: Path, path_b: Path) -> int:
    """Each end-to-end metric's delta against its bound, one row per workload.

    Host metrics may worsen by their declared bound; simulated metrics,
    ``.stats`` counts and run digests must be exactly equal.
    """
    a = json.loads(path_a.read_text(encoding="utf-8"))
    b = json.loads(path_b.read_text(encoding="utf-8"))
    if (a["seed"], a["seconds"], a["repeats"]) != (b["seed"], b["seconds"], b["repeats"]):
        print("compare: the two files were made with different seed/seconds/repeats")
        return 2
    bounds = {m["name"]: m for m in declared()["end_to_end"]}
    breaches = 0
    print(f"{'workload':<20} {'metric':<22} {'A':>12} {'B':>12} {'worse by':>9} {'bound':>7}")
    for name in (w.name for w in WORKLOADS):
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for key, metric in bounds.items():
            va, vb = wa["metrics"][key], wb["metrics"][key]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (vb - va) / va
            breach = worse > metric["bound"]
            breaches += breach
            print(f"{name:<20} {key:<22} {fmt(va):>12} {fmt(vb):>12} {worse:>+9.2%} "
                  f"{metric['bound']:>7.0%}{'  BREACH' if breach else ''}")
        exact = {key: (wa["metrics"][key], wb["metrics"][key]) for key in SIMULATED}
        exact["digests + counts"] = (
            (wa["digests"], wa["counts"]), (wb["digests"], wb["counts"])
        )
        for key, (va, vb) in exact.items():
            breaches += va != vb
            shown = (fmt(va), fmt(vb)) if key in SIMULATED else ("", "")
            print(f"{name:<20} {key:<22} {shown[0]:>12} {shown[1]:>12} "
                  f"{'equal' if va == vb else 'DIFFER':>9} {'exact':>7}"
                  f"{'' if va == vb else '  BREACH'}")
    return 1 if breaches else 0


# -- command line ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="nominal measured seconds per run on the reference "
                             "host; scales every workload's run_ns")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json", type=Path, metavar="OUT")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--child", choices=("setup", "untraced", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        args.seconds, args.repeats = REFERENCE_SECONDS * SMOKE_SCALE, 1

    spec = declared()
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    outcomes = {}
    for name in names:
        try:
            outcome = outcomes[name] = run_workload(name, args, spec)
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            # A child that raised (its traceback is on stderr) or hung:
            # the workload failed, and no result is printed for it.
            print(f"FAILED: {error}", file=sys.stderr)
            return 1
        outcome["detail"]["seed"] = args.seed
        (print_traced if args.trace else print_untraced)(name, outcome)
    twin_failures = dark_twin_failures(outcomes)
    for text in twin_failures:
        print(f"guard FAILED: {text}")
    if args.json:
        write_result(args.json, args, outcomes)
    if args.workload:
        # The driver's result line: exactly the metrics BENCHMARK.json
        # declares for this mode (the simulated ones are per_layer there).
        outcome = outcomes[args.workload]
        section = spec["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": outcome["correct"], "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {m["name"]: outcome["metrics"][m["name"]] for m in section},
        }))
    correct = all(outcome["correct"] for outcome in outcomes.values())
    return 0 if correct and not twin_failures else 1


def dark_twin_failures(outcomes: dict) -> list[str]:
    """A lit workload's simulated metrics must equal its dark twin's."""
    failures = []
    for workload in WORKLOADS:
        lit, dark = outcomes.get(workload.name), outcomes.get(workload.dark_twin)
        if lit is None or dark is None:
            continue
        for key in SIMULATED:
            if lit["detail"][key] != dark["detail"][key]:
                failures.append(f"{workload.name}.{key} != {workload.dark_twin}.{key}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
