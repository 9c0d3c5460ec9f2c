"""Per-rule fixture tests: every rule fires on its bad fixture and
stays quiet on its good twin (``tests/lint_fixtures/``)."""

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.lint import all_rules, get_rules, run_lint
from repro.sim.kernel import (
    MICROSECOND,
    MILLISECOND,
    SECOND,
    ms_to_ns,
    s_to_ns,
    us_to_ns,
)

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

RULE_IDS = sorted(rule.rule_id for rule in all_rules())


def _fixture(kind: str, rule_id: str) -> Path:
    return FIXTURES / f"{kind}_{rule_id.replace('-', '_')}.py"


def _run_rule(rule_id: str, path: Path):
    return run_lint(root=FIXTURES, paths=[path], rule_ids=[rule_id])


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_every_rule_has_fixture_pair(rule_id):
    assert _fixture("bad", rule_id).exists()
    assert _fixture("good", rule_id).exists()


def test_no_orphan_fixtures():
    """Every fixture file maps back to a registered rule — a renamed or
    retired rule must take its fixtures with it."""
    expected = {
        f"{kind}_{rule_id.replace('-', '_')}.py"
        for rule_id in RULE_IDS
        for kind in ("good", "bad")
    }
    actual = {p.name for p in FIXTURES.glob("*.py")}
    assert actual == expected


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_fires_on_bad_fixture(rule_id):
    findings = _run_rule(rule_id, _fixture("bad", rule_id))
    assert findings, f"{rule_id} did not fire on its bad fixture"
    for finding in findings:
        assert finding.rule_id == rule_id
        assert finding.path == _fixture("bad", rule_id).name
        assert finding.line > 0
        assert finding.message


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_quiet_on_good_fixture(rule_id):
    findings = _run_rule(rule_id, _fixture("good", rule_id))
    assert not findings, f"{rule_id} false-positived: {findings}"


def test_unit_suffix_counts():
    findings = _run_rule("unit-suffix", _fixture("bad", "unit-suffix"))
    # two params, two bare locals, one annotated field, one attribute store
    assert len(findings) == 6


def test_conversion_helpers_are_allowlisted():
    """The real ms_to_ns/us_to_ns helpers pass the unit-suffix rule."""
    src = Path(__file__).resolve().parent.parent / "src"
    kernel = src / "repro" / "sim" / "kernel.py"
    assert not run_lint(root=src, paths=[kernel], rule_ids=["unit-suffix"])


def test_raw_duration_literal_is_syntactic_and_per_module(tmp_path):
    (tmp_path / "m.py").write_text(
        "def arm(sim, fire, configure):\n"
        "    sim.schedule_at(2_000_000, fire)\n"
        "    sim.call_after(5_000, fire)\n"
        "    configure(coalesce_window_ns=1_000)\n"
        "    sim.schedule_after(999, fire)\n"
        "    sim.call_at(MICROSECOND, fire)\n"
        "    sim.schedule_after(ms_to_ns(5), fire)\n"
        "    configure(retries=5_000, window_ns=True)\n"
    )
    findings = run_lint(root=tmp_path, rule_ids=["raw-duration-literal"])
    assert [f.line for f in findings] == [2, 3, 4]
    assert "2,000,000 at schedule_at" in findings[0].message
    assert "1,000 at coalesce_window_ns" in findings[2].message
    # A per-module rule: selecting it alone never builds the call graph.
    (rule,) = get_rules(["raw-duration-literal"])
    assert rule.requires_project is False


def test_selecting_unknown_rule_raises():
    with pytest.raises(ValueError, match="unknown rule ids"):
        run_lint(root=FIXTURES, rule_ids=["no-such-rule"])


def test_private_import_resolves_relative_imports(tmp_path):
    """A relative ``from . import _name`` resolves against the importer
    package, so intra-package private sharing is still flagged."""
    package = tmp_path / "repro" / "sub"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    (package / "user.py").write_text("from .helper import _secret\n")
    findings = run_lint(root=tmp_path, rule_ids=["no-cross-module-private-import"])
    assert len(findings) == 1
    assert "_secret" in findings[0].message


# -- the conversion helpers the unit rules point authors at (hypothesis) -----


@given(st.integers(min_value=0, max_value=10**9))
def test_integer_conversions_are_exact_scalings(value):
    assert us_to_ns(value) == value * MICROSECOND
    assert ms_to_ns(value) == value * MILLISECOND
    assert s_to_ns(value) == value * SECOND


@given(
    st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    )
)
def test_float_conversions_round_trip_within_half_a_unit(value):
    for convert, scale in (
        (us_to_ns, MICROSECOND),
        (ms_to_ns, MILLISECOND),
        (s_to_ns, SECOND),
    ):
        ns = convert(value)
        assert isinstance(ns, int)
        # Round-trip back to the source unit: off by at most half an
        # output quantum (the int() rounding), never by a unit factor.
        assert ns / scale == pytest.approx(value, abs=0.5 / scale + 1e-9)
