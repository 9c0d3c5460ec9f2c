"""repro.lint — AST-based static analysis for the simulation codebase.

The paper's claims live at nanosecond scale, so the codebase rests on
two invariants that convention alone cannot hold at production scale:
bit-for-bit deterministic simulation, and never confusing ns/µs/ms.
This package enforces both (plus general API hygiene) mechanically: a
rule engine parses every module under ``src/`` once and runs pluggable
AST rules over it, each yielding :class:`Finding` records.

Run it as ``python -m repro lint`` (the tier-1 test gate in
``tests/test_lint_gate.py`` runs the same engine), or from code::

    from repro.lint import run_lint
    findings = run_lint()                       # whole source tree
    findings = run_lint(rule_ids=["unit-suffix"])

See ``docs/lint.md`` for the rule catalogue and how to add a rule.
"""

from repro.lint.callgraph import ProjectAnalysis, analyze_modules, render_graph
from repro.lint.engine import Module, load_module, load_modules, run_lint, run_rules
from repro.lint.findings import (
    Finding,
    findings_to_github,
    findings_to_json,
    render_findings,
    split_suppressed,
)
from repro.lint.registry import Rule, all_rules, get_rules, register_rule
from repro.lint.symbols import SymbolTable, build_symbol_table

__all__ = [
    "Finding",
    "Module",
    "ProjectAnalysis",
    "Rule",
    "SymbolTable",
    "all_rules",
    "analyze_modules",
    "build_symbol_table",
    "findings_to_github",
    "findings_to_json",
    "get_rules",
    "load_module",
    "load_modules",
    "register_rule",
    "render_findings",
    "render_graph",
    "run_lint",
    "run_rules",
    "split_suppressed",
]
