"""Tier-1 gate: the shipped tree is lint-clean, nothing grandfathered.

This is the test-suite face of ``python -m repro lint``: every rule runs
over every module under ``src/`` and must produce zero *active*
findings. The engine deliberately has no baseline mechanism — new debt
fails here, visibly, instead of accreting. Hot-path debt that
is explicitly accepted carries a per-function ``# lint: hot-ok(<rule>)``
marker and surfaces as ``suppressed`` findings: counted and reported,
but not failing.
"""

import time
from pathlib import Path

import pytest

from repro.lint import all_rules, render_findings, run_lint, split_suppressed

SRC = Path(__file__).resolve().parent.parent / "src"

HOT_PATH_RULE_IDS = {
    "no-alloc-on-hot-path",
    "no-global-random-on-hot-path",
    "no-logging-on-hot-path",
    "no-string-build-on-hot-path",
    "no-wall-clock-on-hot-path",
}


def test_rule_registry_is_complete():
    rule_ids = {rule.rule_id for rule in all_rules()}
    assert rule_ids == {
        "all-exports-exist",
        "instrument-name-style",
        "layering",
        "no-alloc-on-hot-path",
        "no-cross-module-private-import",
        "no-float-time-equality",
        "no-global-random",
        "no-global-random-on-hot-path",
        "no-logging-on-hot-path",
        "no-mutable-default-args",
        "no-string-build-on-hot-path",
        "no-wall-clock",
        "no-wall-clock-on-hot-path",
        "raw-duration-literal",
        "unit-suffix",
        "unordered-iteration",
    }
    for rule in all_rules():
        assert rule.description, f"{rule.rule_id} has no description"


@pytest.fixture(scope="module")
def full_tree_run():
    """One full-tree lint for the whole module: (findings, wall seconds)."""
    start = time.perf_counter()
    findings = run_lint(root=SRC)
    return findings, time.perf_counter() - start


def test_source_tree_is_lint_clean(full_tree_run):
    active, suppressed = split_suppressed(full_tree_run[0])
    assert not active, "\n" + render_findings(active)
    # Suppressions are scoped debt, not a general escape hatch: only the
    # hot-path rule family may carry hot-ok markers in the tree.
    assert {f.rule_id for f in suppressed} <= HOT_PATH_RULE_IDS


# The hot-ok debt ratchet: the suppressed count after the last PR that
# paid some down. Lower it when a change removes markers; never raise it.
MAX_SUPPRESSED = 142


def test_suppressed_debt_is_counted_not_hidden(full_tree_run):
    """The accepted hot-path allocation debt stays visible as suppressed
    findings (the ROADMAP pooling item will burn it down), and can only
    shrink: new hot-path allocations are fixed, not marked."""
    _active, suppressed = split_suppressed(full_tree_run[0])
    assert suppressed, "expected hot-ok debt to be reported, not dropped"
    assert all(f.suppressed for f in suppressed)
    assert len(suppressed) <= MAX_SUPPRESSED


def test_gate_scans_the_whole_tree():
    """Guard against the gate silently scanning nothing."""
    from repro.lint import load_modules

    modules = load_modules(SRC)
    assert len(modules) > 90
    assert any(m.name == "repro.sim.kernel" for m in modules)
    assert any(m.name == "repro.lint" for m in modules)


def test_full_tree_lint_stays_fast(full_tree_run):
    """The gate must never become the slow step of `repro verify`: a
    full-tree run — parse, symbol table, call graph, every rule — has a
    wall-time budget (generous vs the ~1.5 s typical run, to absorb slow
    CI machines)."""
    elapsed_s = full_tree_run[1]
    assert elapsed_s < 20.0, f"full-tree lint took {elapsed_s:.1f}s"
