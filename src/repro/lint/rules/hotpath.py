"""Hot-path rules: whole-program checks over the call-graph hot set.

The paper's budget is ~100 ns/event in the busiest 100 µs window
(Fig 2c). Meeting it is a discipline, not an optimization: nothing
reachable from a kernel event handler may allocate, log, read the wall
clock, draw ambient randomness, or build strings at call time. The
per-module rules cannot see that a violation sits two calls below a
handler; these rules walk the hot set computed by
:mod:`repro.lint.callgraph` and report every violation with the call
chain that makes it hot.

Accepted debt is marked per function with ``# lint: hot-ok(<rule-id>)``
on (or immediately above) the ``def`` line. Suppressed findings are
still produced — with ``suppressed=True`` — so the debt stays countable
in reports and ``--format json``; they just stop failing the gate.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import ProjectAnalysis, function_body_nodes
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule
from repro.lint.rules.determinism import (
    global_random_uses,
    wall_clock_allowed_module,
    wall_clock_reads,
)
from repro.lint.symbols import FunctionInfo


class HotPathRule(Rule):
    """Base for rules that check every function in the hot set.

    Subclasses implement :meth:`violations` yielding ``(node, message)``
    pairs for one hot function; the base class attaches the hot chain,
    applies per-function ``hot-ok`` suppressions, and builds findings.
    """

    requires_project = True

    def check_project(self, project: ProjectAnalysis) -> Iterator[Finding]:
        graph = project.graph
        for fid in sorted(graph.hot):
            info = project.symbols.functions.get(fid)
            if info is None:
                continue
            suppressed = self.rule_id in info.suppressions
            chain = graph.describe_hot(fid)
            for node, message in self.violations(project, info):
                yield Finding(
                    path=info.relpath,
                    line=getattr(node, "lineno", info.lineno),
                    rule_id=self.rule_id,
                    message=f"{message} [hot via {chain}]",
                    suppressed=suppressed,
                )

    def violations(
        self, project: ProjectAnalysis, info: FunctionInfo
    ) -> Iterator[tuple[ast.AST, str]]:
        raise NotImplementedError


def _error_path_node_ids(node: ast.AST) -> set[int]:
    """ids of AST nodes inside ``raise``/``assert`` statements: error
    paths terminate the run, so allocating the exception (and its
    message) there is not hot-path work."""
    skip: set[int] = set()
    for child in function_body_nodes(node):
        if isinstance(child, (ast.Raise, ast.Assert)):
            for sub in ast.walk(child):
                skip.add(id(sub))
    return skip


_COMPREHENSIONS = {
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
    ast.GeneratorExp: "generator expression",
}
_DISPLAYS = {ast.List: "list", ast.Dict: "dict", ast.Set: "set"}
_BUILTIN_COLLECTION_CTORS = frozenset({"list", "dict", "set", "frozenset"})


@register_rule
class NoAllocOnHotPath(HotPathRule):
    """No container construction or object instantiation on the hot
    path: preallocate at wiring time, reuse per event. Tuples are exempt
    (the kernel's event-args convention) and so are exception
    constructions on ``raise`` paths."""

    rule_id = "no-alloc-on-hot-path"
    description = (
        "functions reachable from kernel handlers must not build "
        "lists/dicts/sets or instantiate objects per event"
    )

    def violations(self, project, info):
        error_nodes = _error_path_node_ids(info.node)
        symbols = project.symbols
        for node in function_body_nodes(info.node):
            if id(node) in error_nodes:
                continue
            kind = _COMPREHENSIONS.get(type(node))
            if kind is not None:
                yield node, f"allocates a {kind} on the hot path"
                continue
            display = _DISPLAYS.get(type(node))
            if display is not None:
                yield node, f"allocates a {display} on the hot path"
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _BUILTIN_COLLECTION_CTORS
            ):
                yield node, f"allocates via {func.id}() on the hot path"
                continue
            cls = symbols.resolve_value_class(info.module, func)
            if cls is not None and not cls.is_exception:
                yield node, (
                    f"instantiates {cls.name} on the hot path; preallocate "
                    "or pool it"
                )


_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}
)
_LOG_RECEIVERS = frozenset({"logger", "log", "logging"})


@register_rule
class NoLoggingOnHotPath(HotPathRule):
    """No ``print`` or logger calls on the hot path: stdout/logging I/O
    per event destroys the budget. Use telemetry counters (flushed at
    window boundaries) or the trace hook instead."""

    rule_id = "no-logging-on-hot-path"
    description = (
        "functions reachable from kernel handlers must not print() or "
        "call into the logging module"
    )

    def violations(self, project, info):
        for node in function_body_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                yield node, "print() on the hot path"
            elif isinstance(func, ast.Attribute) and func.attr in _LOG_METHODS:
                base = func.value
                base_name = None
                if isinstance(base, ast.Name):
                    base_name = base.id
                elif isinstance(base, ast.Attribute):
                    base_name = base.attr
                if base_name in _LOG_RECEIVERS:
                    yield node, (
                        f"{base_name}.{func.attr}(...) logging call on the "
                        "hot path"
                    )


# Instrument-name-bearing calls, keyed by attribute with an optional
# receiver filter (None = any receiver) — the same shape the
# instrument-name-style rule uses, extended with the hot-path name
# consumers: trace records and rng stream lookups.
_NAME_BEARING_ATTRS: dict[str, frozenset | None] = {
    "counter": None,
    "gauge": None,
    "histogram": None,
    "count": frozenset({"telemetry"}),
    "gauge_set": frozenset({"telemetry"}),
    "gauge_add": frozenset({"telemetry"}),
    "record_count": frozenset({"series", "recorder"}),
    "record_sample": frozenset({"series", "recorder"}),
    "record": frozenset({"trace"}),
    "stream": frozenset({"rng"}),
}


def _builds_string(arg: ast.expr) -> str | None:
    """How ``arg`` builds a string at call time, or None if it doesn't."""
    if isinstance(arg, ast.JoinedStr):
        return "f-string"
    if isinstance(arg, ast.BinOp):
        if isinstance(arg.op, ast.Add):
            return "'+' concatenation"
        if isinstance(arg.op, ast.Mod):
            return "'%' formatting"
    if (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Attribute)
        and arg.func.attr in ("format", "join")
    ):
        return f".{arg.func.attr}() call"
    return None


@register_rule
class NoStringBuildOnHotPath(HotPathRule):
    """Instrument names must be precomputed at construction, never built
    per event: an f-string name inside a handler allocates and formats
    on every packet."""

    rule_id = "no-string-build-on-hot-path"
    description = (
        "instrument/trace-point/stream names on the hot path must be "
        "precomputed, not built per call (f-string/%/+)"
    )

    def violations(self, project, info):
        for node in function_body_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            receivers = _NAME_BEARING_ATTRS.get(func.attr)
            if func.attr not in _NAME_BEARING_ATTRS:
                continue
            if receivers is not None:
                base = func.value
                base_name = None
                if isinstance(base, ast.Name):
                    base_name = base.id
                elif isinstance(base, ast.Attribute):
                    base_name = base.attr
                if base_name not in receivers:
                    continue
            arg = node.args[0] if node.args else None
            if arg is None:
                for keyword in node.keywords:
                    if keyword.arg == "name":
                        arg = keyword.value
            if arg is None:
                continue
            how = _builds_string(arg)
            if how is not None:
                yield node, (
                    f"{func.attr}(...) builds its name via {how} per call; "
                    "precompute the name at construction"
                )


@register_rule
class NoWallClockOnHotPath(HotPathRule):
    """Transitive wall-clock ban: the per-module rule sees direct reads;
    this one proves no *hot* function reads the host clock even through
    helpers (and even in modules the direct rule exempts, should one
    ever land on the hot path)."""

    rule_id = "no-wall-clock-on-hot-path"
    description = (
        "no function reachable from a kernel handler may read the host "
        "clock (time.*/datetime.now)"
    )

    def violations(self, project, info):
        if wall_clock_allowed_module(info.module):
            return
        yield from wall_clock_reads(function_body_nodes(info.node))


@register_rule
class NoGlobalRandomOnHotPath(HotPathRule):
    """Transitive ambient-randomness ban: hot functions must draw only
    from seeded sim.rng streams — stdlib ``random.*`` calls and numpy
    global-state draws are flagged even when the import (which the
    per-module rule catches) sits in another file."""

    rule_id = "no-global-random-on-hot-path"
    description = (
        "no function reachable from a kernel handler may draw from "
        "global random state (random.*/np.random.*)"
    )

    def violations(self, project, info):
        yield from global_random_uses(
            function_body_nodes(info.node), include_stdlib_attrs=True
        )
