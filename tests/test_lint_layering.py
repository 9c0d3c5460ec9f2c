"""The layering rule: declared package DAG, back-edges, import cycles.

The fixtures directory is flat, so the DAG half of the rule is driven
here with tmp_path ``repro``-shaped package trees (the same pattern the
private-import tests use).
"""

from pathlib import Path

from repro.lint import run_lint
from repro.lint.rules.layering import PACKAGE_DAG, validate_dag

SRC = Path(__file__).resolve().parent.parent / "src"


def _tree(tmp_path, files):
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        for parent in path.relative_to(tmp_path).parents:
            if str(parent) != ".":
                init = tmp_path / parent / "__init__.py"
                if not init.exists():
                    init.write_text("")
    return tmp_path


def _lint(tmp_path):
    return run_lint(root=tmp_path, rule_ids=["layering"])


def test_declared_dag_is_internally_consistent():
    assert validate_dag() == []


def test_declared_dag_matches_the_shipped_tree():
    # The real tree must be expressible under the declared DAG — and the
    # gate test keeps it that way.
    assert not run_lint(root=SRC, rule_ids=["layering"])
    packages = {
        p.name for p in (SRC / "repro").iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    }
    assert packages == set(PACKAGE_DAG)


def test_back_edge_is_flagged(tmp_path):
    _tree(tmp_path, {
        "repro/net/reliable.py": "from repro.protocols.headers import f\n",
        "repro/protocols/headers.py": "def f():\n    return 0\n",
    })
    findings = _lint(tmp_path)
    assert len(findings) == 1
    assert "repro.net may not import repro.protocols" in findings[0].message
    assert findings[0].path == "repro/net/reliable.py"


def test_allowed_edge_is_quiet(tmp_path):
    _tree(tmp_path, {
        "repro/protocols/headers.py": "from repro.net.frames import f\n",
        "repro/net/frames.py": "def f():\n    return 0\n",
    })
    assert not _lint(tmp_path)


def test_function_level_import_is_the_sanctioned_escape_hatch(tmp_path):
    _tree(tmp_path, {
        "repro/net/link.py": (
            "def profile():\n"
            "    from repro.core.latency import f\n"
            "    return f()\n"
        ),
        "repro/core/latency.py": "def f():\n    return 0\n",
    })
    assert not _lint(tmp_path)


def test_type_checking_imports_are_skipped(tmp_path):
    _tree(tmp_path, {
        "repro/net/link.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.core.latency import f\n"
        ),
        "repro/core/latency.py": "def f():\n    return 0\n",
    })
    assert not _lint(tmp_path)


def test_lower_layer_may_not_import_the_application_layer(tmp_path):
    _tree(tmp_path, {
        "repro/sim/kernel.py": "from repro.__main__ import f\n",
        "repro/__main__.py": "def f():\n    return 0\n",
    })
    findings = _lint(tmp_path)
    assert len(findings) == 1
    assert "application module repro.__main__" in findings[0].message


def test_application_layer_imports_anything(tmp_path):
    _tree(tmp_path, {
        "repro/__main__.py": (
            "from repro.core.latency import f\n"
            "from repro.sim.kernel import g\n"
        ),
        "repro/core/latency.py": "def f():\n    return 0\n",
        "repro/sim/kernel.py": "def g():\n    return 0\n",
    })
    assert not _lint(tmp_path)


def test_import_cycle_is_flagged_even_within_a_package(tmp_path):
    _tree(tmp_path, {
        "repro/net/a.py": "from repro.net.b import f\n\ndef g():\n    return f\n",
        "repro/net/b.py": "import repro.net.a\n\ndef f():\n    return 0\n",
    })
    findings = _lint(tmp_path)
    assert len(findings) == 1
    assert "import cycle: repro.net.a <-> repro.net.b" in findings[0].message
    assert findings[0].line > 0


def test_modules_outside_the_repro_tree_are_ignored(tmp_path):
    _tree(tmp_path, {
        "vendored/widget.py": "from repro.sim.kernel import g\n",
        "repro/sim/kernel.py": "def g():\n    return 0\n",
    })
    assert not _lint(tmp_path)
