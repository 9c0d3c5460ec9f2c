"""Docs-code consistency: the documentation's claims resolve to files.

Documentation rot is a release-killer; these checks pin the load-bearing
references (bench targets in DESIGN.md, example scripts in README.md,
layout listing, every spelled CLI subcommand, option and make target,
the lint rule catalogue) to the actual tree.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PROSE = [REPO / "README.md", REPO / "DESIGN.md", *sorted((REPO / "docs").glob("*.md"))]


def _cli_subcommands(capsys) -> set[str]:
    """The parser's subcommands, read off ``--help``'s ``{a,b,...}``."""
    import repro.__main__ as cli

    with pytest.raises(SystemExit):
        cli.main(["--help"])
    return set(re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1).split(","))


def test_every_spelled_cli_command_and_make_target_exists(capsys):
    commands = _cli_subcommands(capsys)
    makefile = (REPO / "Makefile").read_text(encoding="utf-8")
    targets = set(re.findall(r"^([a-z][\w-]*):", makefile, re.M))
    assert commands and targets
    for path in PROSE:
        text = path.read_text(encoding="utf-8")
        # `python -m repro a|b|c` and `repro sweep` spellings alike.
        for spelled in re.findall(r"(?:python -m |`)repro ([a-z0-9|]+)", text):
            for command in spelled.split("|"):
                assert command in commands, f"{path.name}: no `repro {command}`"
        for target in re.findall(r"(?:`|^)make ([a-z][\w-]*)", text, re.M):
            assert target in targets, f"{path.name}: no `make {target}`"


def test_ci_steps_and_verify_mirrors_are_make_targets():
    """Every ``make <target>`` the CI job runs is one ``repro verify``
    says it mirrors, and both sets are real Makefile targets — so a gate
    added to one of the three places cannot be forgotten in the others."""
    makefile = (REPO / "Makefile").read_text(encoding="utf-8")
    targets = set(re.findall(r"^([a-z][\w-]*):", makefile, re.M))
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    ci_steps = set(re.findall(r"run: make ([a-z][\w-]*)", ci))
    cli_source = (REPO / "src" / "repro" / "__main__.py").read_text(encoding="utf-8")
    mirrored = set(re.findall(r"Mirrors[\s#]+`make ([a-z][\w-]*)`", cli_source))
    assert "bench-collect" in ci_steps
    assert ci_steps <= mirrored <= targets


def test_every_spelled_cli_flag_exists_on_its_subcommand(capsys):
    """A ``--flag`` on the same line as ``python -m repro <cmd>`` /
    `` `repro <cmd>` `` (after it, up to the next spelled command) must
    be an option of that subparser, so a retired option cannot outlive
    its removal in the prose."""
    import repro.__main__ as cli

    options: dict[str, set[str]] = {}

    def options_of(command: str) -> set[str]:
        if command not in options:
            with pytest.raises(SystemExit):
                cli.main([command, "--help"])
            options[command] = set(
                re.findall(r"--[a-z][\w-]*", capsys.readouterr().out)
            )
        return options[command]

    checked = 0
    for path in PROSE:
        for line in path.read_text(encoding="utf-8").splitlines():
            # [lead, cmd, tail, cmd, tail, ...]; `a|b|c` spellings carry no flags.
            parts = re.split(r"(?:python -m |`)repro ([a-z0-9]+)\b(?!\|)", line)
            for command, tail in zip(parts[1::2], parts[2::2]):
                for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", tail):
                    checked += 1
                    assert flag in options_of(command), (
                        f"{path.name}: `repro {command}` has no {flag}"
                    )
    assert checked >= 20  # guard against the scan silently matching nothing


def test_lint_md_rule_tables_match_the_registry():
    """Every registered rule has a row in docs/lint.md's rule tables and
    every row names a registered rule."""
    from repro.lint import all_rules

    text = (REPO / "docs" / "lint.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"^\| `([a-z][a-z-]*)` \|", text, re.M))
    assert documented == {rule.rule_id for rule in all_rules()}


def test_cli_docstring_command_table_matches_parser(capsys):
    import repro.__main__ as cli

    table = set(re.findall(r"^``(\w+)``  ", cli.__doc__, re.M))
    assert table == _cli_subcommands(capsys)


def test_design_md_bench_targets_exist():
    text = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    targets = set(re.findall(r"`(benchmarks/[\w./]+\.py)`", text))
    assert len(targets) >= 20  # one per experiment row
    for target in targets:
        assert (REPO / target).exists(), f"DESIGN.md references missing {target}"


def test_readme_examples_exist():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    scripts = set(re.findall(r"`(\w+\.py)` \|", text))
    assert len(scripts) >= 8
    for script in scripts:
        assert (REPO / "examples" / script).exists(), f"missing examples/{script}"


def test_design_md_layout_matches_tree():
    text = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    layout = text[text.index("src/repro/"):text.index("```", text.index("src/repro/"))]
    layout = layout[: layout.index("tests/")]  # only the src tree listing
    listed = set(re.findall(r"(\w+\.py)", layout))
    actual = {
        p.name
        for p in (REPO / "src" / "repro").rglob("*.py")
        if p.name != "__init__.py" and p.name != "__main__.py"
    }
    missing_from_docs = actual - listed
    phantom_in_docs = listed - actual
    assert not missing_from_docs, f"layout omits {sorted(missing_from_docs)}"
    assert not phantom_in_docs, f"layout lists nonexistent {sorted(phantom_in_docs)}"


def test_experiment_ids_consistent_between_docs():
    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    experiments = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    design_ids = set(re.findall(r"\| (E\d+) \|", design))
    experiment_ids = set(re.findall(r"\| (E\d+)/", experiments))
    assert design_ids, "no experiment rows found in DESIGN.md"
    # Every experiment measured in EXPERIMENTS.md is indexed in DESIGN.md.
    assert experiment_ids <= design_ids, experiment_ids - design_ids


def test_every_experiment_has_a_bench_file():
    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    ids = set(re.findall(r"\| (E\d+) \|", design))
    bench_files = {p.name for p in (REPO / "benchmarks").glob("test_e*.py")}
    for experiment_id in ids:
        number = int(experiment_id[1:])
        matches = [f for f in bench_files if f.startswith(f"test_e{number:02d}_")]
        assert matches, f"{experiment_id} has no bench file"
