"""The lint engine: parse every module once, run every rule over it.

The engine is deliberately simple — no caching, no parallelism — because
the whole tree parses in well under a second and determinism matters
more than speed here (the gate runs in CI on every commit). Each file is
parsed exactly once into a :class:`Module`; every selected rule then
walks that shared tree.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.findings import Finding
from repro.lint.registry import Rule, get_rules


@dataclass(frozen=True)
class Module:
    """One parsed source file, as handed to every rule."""

    path: Path  # absolute filesystem path
    relpath: str  # posix-style path relative to the scan root
    name: str  # dotted module name ("repro.net.switch")
    tree: ast.Module = field(repr=False)
    source: str = field(repr=False)
    # Set when the file did not parse; ``tree`` is then empty, so every
    # rule sees nothing in it and the rest of the tree still lints.
    parse_error: Finding | None = None

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"

    def sibling_submodules(self) -> set[str]:
        """Importable names living next to a package ``__init__.py``."""
        if not self.is_package_init:
            return set()
        names: set[str] = set()
        for entry in self.path.parent.iterdir():
            if entry.is_dir() and (entry / "__init__.py").exists():
                names.add(entry.name)
            elif entry.suffix == ".py" and entry.name != "__init__.py":
                names.add(entry.stem)
        return names


def _rel_to_root(path: Path, root: Path) -> Path:
    """``path`` relative to ``root``, or the bare filename when the file
    lives outside the scan root (explicit file arguments may)."""
    try:
        return path.relative_to(root)
    except ValueError:
        return Path(path.name)


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to the scan ``root``."""
    rel = _rel_to_root(path, root).with_suffix("")
    parts = list(rel.parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def load_module(path: Path, root: Path) -> Module:
    relpath = _rel_to_root(path, root).as_posix()
    source, tree, parse_error = "", ast.Module(body=[], type_ignores=[]), None
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        parse_error = Finding(
            relpath, exc.lineno or 1, "parse-error", f"cannot parse: {exc.msg}"
        )
    except UnicodeDecodeError as exc:
        parse_error = Finding(relpath, 1, "parse-error", f"cannot parse: {exc}")
    return Module(
        path=path,
        relpath=relpath,
        name=module_name_for(path, root),
        tree=tree,
        source=source,
        parse_error=parse_error,
    )


def iter_source_files(root: Path, paths: Sequence[Path] | None = None):
    """Every ``*.py`` under ``root`` (or under the explicit ``paths``)."""
    if paths:
        for path in paths:
            if path.is_dir():
                yield from sorted(path.rglob("*.py"))
            else:
                yield path
    else:
        yield from sorted(root.rglob("*.py"))


def default_root() -> Path:
    """The directory containing the installed ``repro`` package (``src/``)."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def load_modules(root: Path, paths: Sequence[Path] | None = None) -> list[Module]:
    return [load_module(p, root) for p in iter_source_files(root, paths)]


@dataclass(frozen=True)
class RuleStat:
    """Per-rule cost accounting from one ``run_rules_with_stats`` pass.

    ``wall_ns`` is real elapsed host time, so values differ run to run;
    the *ordering* of the stats list (by rule id, pseudo-rows first) is
    deterministic so diffs and tests stay stable.
    """

    rule_id: str
    findings: int
    wall_ns: int


#: Pseudo-row id for the shared symbol-table/call-graph build that all
#: project rules amortize. Parenthesized so it sorts before real ids and
#: can never collide with a registered rule.
PROJECT_ANALYSIS_STAT = "(project-analysis)"


def run_rules_with_stats(
    modules: Iterable[Module], rules: Sequence[Rule]
) -> tuple[list[Finding], list[RuleStat]]:
    """Run ``rules`` and account wall time per rule.

    Per-module rules loop rule-outer (rule -> every module) so each
    rule's cost is measured in one contiguous span; findings are sorted
    afterwards, so the report is identical to the module-outer order.
    The whole-program analysis that project rules share is its own
    pseudo-row (:data:`PROJECT_ANALYSIS_STAT`) — charging it to whichever
    rule happened to run first would make timings misleading.
    """
    modules = list(modules)
    per_module = [r for r in rules if not r.requires_project]
    project_rules = [r for r in rules if r.requires_project]
    # parse-error is the engine's own finding, not a registered rule:
    # ``--rules`` cannot deselect it.
    findings = [m.parse_error for m in modules if m.parse_error is not None]
    stats: list[RuleStat] = []

    def timed(rule_id: str, produce) -> None:
        start_ns = time.perf_counter_ns()
        produced = list(produce())
        elapsed_ns = time.perf_counter_ns() - start_ns
        findings.extend(produced)
        stats.append(RuleStat(rule_id, len(produced), elapsed_ns))

    for rule in per_module:
        timed(
            rule.rule_id,
            lambda rule=rule: (
                f for module in modules for f in rule.check(module)
            ),
        )
    if project_rules:
        from repro.lint.callgraph import analyze_modules

        start_ns = time.perf_counter_ns()
        project = analyze_modules(modules)
        stats.append(
            RuleStat(
                PROJECT_ANALYSIS_STAT,
                0,
                time.perf_counter_ns() - start_ns,
            )
        )
        for rule in project_rules:
            timed(rule.rule_id, lambda rule=rule: rule.check_project(project))
    stats.sort(key=lambda s: s.rule_id)
    return sorted(findings), stats


def run_rules(modules: Iterable[Module], rules: Sequence[Rule]) -> list[Finding]:
    findings, _ = run_rules_with_stats(modules, rules)
    return findings


def run_lint(
    root: Path | str | None = None,
    paths: Sequence[Path | str] | None = None,
    rule_ids: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint the tree under ``root`` and return sorted findings.

    ``root`` defaults to the directory holding the ``repro`` package, so
    ``run_lint()`` with no arguments lints the installed source tree.
    ``paths`` optionally restricts the scan to specific files or
    directories (module names are still derived relative to ``root``);
    ``rule_ids`` restricts which rules run.
    """
    root = Path(root).resolve() if root is not None else default_root()
    resolved = [Path(p).resolve() for p in paths] if paths else None
    modules = load_modules(root, resolved)
    return run_rules(modules, get_rules(rule_ids))
