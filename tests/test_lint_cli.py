"""The ``python -m repro lint`` subcommand end to end."""

import json
import subprocess
from pathlib import Path

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
    assert "unit-mismatch-call" in out and "layering" in out
    assert len(out.strip().splitlines()) == 20


def test_graph_dump(capsys):
    assert main(["lint", str(FIXTURES), "--graph"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# call graph:")
    # The hot fixtures register scheduler callbacks, so the fixture tree
    # has roots and hot functions.
    assert "root " in out
    assert "edge " in out


def _git(cwd: Path, *argv: str) -> None:
    subprocess.run(
        ["git", "-c", "user.email=lint@test", "-c", "user.name=lint", *argv],
        cwd=cwd, check=True, capture_output=True,
    )


def test_changed_scopes_report_to_git_dirty_files(tmp_path, capsys):
    _git(tmp_path, "init", "-q")
    committed = tmp_path / "legacy.py"
    committed.write_text("def collect(sample, into=[]):\n    return into\n")
    _git(tmp_path, "add", "legacy.py")
    _git(tmp_path, "commit", "-q", "-m", "seed")

    # Untracked new file with its own violation.
    (tmp_path / "fresh.py").write_text(
        "def index(key, table={}):\n    return table\n"
    )

    # Full run sees both files; --changed reports only the dirty one.
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "legacy.py" in out and "fresh.py" in out

    assert main(["lint", str(tmp_path), "--changed"]) == 1
    out = capsys.readouterr().out
    assert "fresh.py" in out and "legacy.py" not in out

    # Nothing dirty -> clean exit even though legacy.py still violates.
    (tmp_path / "fresh.py").unlink()
    assert main(["lint", str(tmp_path), "--changed"]) == 0


def test_changed_without_git_falls_back_to_full_report(tmp_path, capsys):
    (tmp_path / "legacy.py").write_text(
        "def collect(sample, into=[]):\n    return into\n"
    )
    assert main(["lint", str(tmp_path), "--changed"]) == 1
    captured = capsys.readouterr()
    assert "warning: --changed needs git" in captured.err
    assert "legacy.py" in captured.out


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
