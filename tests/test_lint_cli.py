"""The ``python -m repro lint`` subcommand end to end."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def test_shipped_tree_is_clean(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_bad_fixtures_fail_with_rule_path_line(capsys):
    assert main(["lint", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "[unit-suffix]" in out
    assert "[no-wall-clock]" in out
    assert "bad_unit_suffix.py:" in out
    # every reported line is path:line: [rule-id] message
    for line in out.strip().splitlines():
        path, line_no, rest = line.split(":", 2)
        assert path.endswith(".py") and int(line_no) > 0
        assert rest.lstrip().startswith("[")


def test_json_format(capsys):
    assert main(["lint", str(FIXTURES), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and payload
    record = payload[0]
    assert set(record) == {"path", "line", "rule_id", "message", "suppressed"}


def test_github_format(capsys):
    assert main(["lint", str(FIXTURES), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "title=no-wall-clock::" in out
    for line in out.strip().splitlines():
        assert line.startswith("::error ") or line.startswith("::notice ")


def test_rule_selection(capsys):
    bad = FIXTURES / "bad_no_mutable_default_args.py"
    assert main(["lint", str(bad), "--root", str(FIXTURES),
                 "--rules", "no-mutable-default-args"]) == 1
    out = capsys.readouterr().out
    assert "no-mutable-default-args" in out
    assert main(["lint", str(bad), "--root", str(FIXTURES),
                 "--rules", "no-wall-clock"]) == 0


@pytest.mark.parametrize(
    "spelling",
    ["unit-suffix, no-wall-clock", "unit-suffix,no-wall-clock,", " unit-suffix ,, no-wall-clock"],
)
def test_rules_list_tolerates_whitespace_and_empty_items(spelling, capsys):
    assert main(["lint", str(FIXTURES), "--rules", spelling]) == 1
    out = capsys.readouterr().out
    assert "[unit-suffix]" in out and "[no-wall-clock]" in out
    assert "[no-mutable-default-args]" not in out


def test_single_file_outside_default_root(capsys):
    # File arguments live outside src/; the engine must not require them
    # to be relative to the scan root.
    bad = FIXTURES / "bad_no_wall_clock.py"
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "bad_no_wall_clock.py:" in out and "[no-wall-clock]" in out
    good = FIXTURES / "good_no_wall_clock.py"
    assert main(["lint", str(good)]) == 0


def test_unknown_rule_is_usage_error(capsys):
    assert main(["lint", "--rules", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule ids" in err
    # The error is actionable: it lists the known ids.
    assert "no-wall-clock" in err and "unit-suffix" in err


def test_unknown_rule_suggests_close_match(capsys):
    assert main(["lint", "--rules", "no-wall-clok"]) == 2
    err = capsys.readouterr().err
    assert "did you mean 'no-wall-clock'" in err


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "unit-suffix" in out and "builder-registry" not in out
    assert "no-alloc-on-hot-path" in out
    assert "raw-duration-literal" in out and "layering" in out
    assert len(out.strip().splitlines()) == 16


def test_graph_dump(capsys):
    assert main(["lint", str(FIXTURES), "--graph"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# call graph:")
    # The hot fixtures register scheduler callbacks, so the fixture tree
    # has roots and hot functions.
    assert "root " in out
    assert "edge " in out


def test_unparseable_file_is_a_finding_not_a_crash(tmp_path, capsys):
    """A file that does not parse is reported as ``parse-error`` at its
    path:line; the rest of the tree — per-module and project rules
    alike — is still analysed."""
    (tmp_path / "broken.py").write_text("def ok():\n    pass\n\ndef f(:\n")
    (tmp_path / "legacy.py").write_text(
        "def collect(sample, into=[]):\n    return into\n"
    )
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "broken.py:4: [parse-error]" in out
    assert "legacy.py:1: [no-mutable-default-args]" in out
    # Deselecting every rule that fires does not hide the broken file.
    assert main(["lint", str(tmp_path), "--rules", "layering"]) == 1
    assert "[parse-error]" in capsys.readouterr().out


def test_stats_table_is_deterministic_and_on_stderr(capsys):
    """--stats prints one row per rule (plus the shared project-analysis
    build and a total) to stderr, sorted by rule id, without disturbing
    the findings report on stdout."""
    from repro.lint import all_rules

    assert main(["lint", str(FIXTURES), "--stats"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    # header + (project-analysis) + one row per rule + total; the final
    # "N findings" status line also lands on stderr.
    rows = [
        line.split()[0]
        for line in lines
        if line and not line.startswith("rule") and "findings (" not in line
    ]
    rule_rows = [r for r in rows if r not in {"total"} and "finding" not in r]
    expected = sorted(
        ["(project-analysis)"] + [rule.rule_id for rule in all_rules()]
    )
    assert rule_rows[: len(expected)] == expected
    assert "total" in rows
    # stdout still carries the findings themselves.
    assert "[unit-suffix]" in captured.out


def test_stats_json_stdout_stays_parseable(capsys):
    assert main(["lint", str(FIXTURES), "--stats", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)
    assert "wall_ms" in captured.err
