"""The ``python -m repro lint`` subcommand.

Exit status: 0 when no active (non-suppressed) findings, 1 when any
exist, 2 on usage errors (unknown rule ids). Suppressed findings —
``# lint: hot-ok(<rule>)`` debt — are reported and counted but never
fail the run. ``--graph`` dumps the call graph / hot set.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.callgraph import analyze_modules, render_graph
from repro.lint.engine import default_root, load_modules, run_rules_with_stats
from repro.lint.findings import (
    findings_to_github,
    findings_to_json,
    render_findings,
    split_suppressed,
)
from repro.lint.registry import all_rules, get_rules


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro source tree)",
    )
    parser.add_argument(
        "--root",
        help="scan root used to derive module names (default: the directory "
        "containing the repro package, or the single directory argument)",
    )
    parser.add_argument(
        "--format",
        choices=["human", "json", "github"],
        default="human",
        help="report format (github = GitHub Actions annotations)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="dump the call graph, kernel-handler roots, and hot set",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule wall time and finding counts to stderr "
        "(ordering is deterministic; the times are not)",
    )


def _resolve_scan(args) -> tuple[Path, list[Path] | None]:
    paths = [Path(p).resolve() for p in args.paths]
    if args.root:
        return Path(args.root).resolve(), paths or None
    if len(paths) == 1 and paths[0].is_dir():
        # A single directory argument is its own scan root: fixture trees
        # and vendored code lint without a --root flag.
        return paths[0], None
    if paths:
        return default_root(), paths
    return default_root(), None


def run(args) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id:<32} {rule.description}")
        return 0

    try:
        wanted = [r.strip() for r in (args.rules or "").split(",") if r.strip()]
        rules = get_rules(wanted or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    root, paths = _resolve_scan(args)
    modules = load_modules(root, paths)

    if args.graph:
        print(render_graph(analyze_modules(modules)))
        return 0

    findings, stats = run_rules_with_stats(modules, rules)
    if args.stats:
        # Stats go to stderr so json/github output stays machine-parseable.
        width = max(len(s.rule_id) for s in stats)
        total_wall_ns = sum(s.wall_ns for s in stats)
        print(f"{'rule':<{width}}  findings  wall_ms", file=sys.stderr)
        for stat in stats:
            print(
                f"{stat.rule_id:<{width}}  {stat.findings:>8}  "
                f"{stat.wall_ns / 1e6:>7.1f}",
                file=sys.stderr,
            )
        print(
            f"{'total':<{width}}  {len(findings):>8}  "
            f"{total_wall_ns / 1e6:>7.1f}",
            file=sys.stderr,
        )

    active, suppressed = split_suppressed(findings)

    if args.format == "json":
        print(findings_to_json(findings))
    elif args.format == "github":
        if findings:
            print(findings_to_github(findings))
    elif active:
        # Human format shows active findings only; suppressed debt is
        # summarized in the status line (full list: --format json).
        print(render_findings(active))

    if active:
        noun = "finding" if len(active) == 1 else "findings"
        suffix = f" (+{len(suppressed)} suppressed)" if suppressed else ""
        print(f"\n{len(active)} {noun}{suffix}", file=sys.stderr)
        return 1
    if args.format == "human":
        suffix = (
            f" ({len(suppressed)} suppressed as hot-ok debt)" if suppressed else ""
        )
        print(f"clean: {len(all_rules())} rules, 0 findings{suffix}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint", description="repro.lint static-analysis gate"
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
