"""Time-unit safety rules.

Every duration in this codebase is an integer nanosecond count — the
paper's budgets (500 ns hops, ~100 ns/event) leave no room for a
misread µs/ms value. The ``unit-suffix`` rule makes the convention
mechanical: a name that holds a duration either ends in ``_ns`` or is a
parameter of an allowlisted conversion helper (``ms_to_ns`` and
friends, in :mod:`repro.sim.kernel`). ``raw-duration-literal`` keeps
magic-number durations out of the scheduler and ``*_ns=`` call sites.
The ``no-float-time-equality`` rule catches the classic companion bug:
comparing times with ``==`` after a float division has destroyed
integer exactness.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import SCHEDULER_CALLBACK_ARG
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule

# Names that announce a non-nanosecond (or unit-less) duration.
_BAD_SUFFIXES = ("_us", "_ms")
_BAD_EXACT = frozenset({"us", "ms", "latency", "delay"})

# Functions whose parameters legitimately carry other units: the
# explicit conversion helpers. Everything else converts at the boundary.
CONVERSION_HELPERS = frozenset({"ms_to_ns", "us_to_ns", "s_to_ns"})

_SUGGESTION = (
    "durations are integer nanoseconds: rename to a *_ns name or convert "
    "via ms_to_ns()/us_to_ns() at the boundary"
)


def _offending(name: str) -> bool:
    return name in _BAD_EXACT or name.endswith(_BAD_SUFFIXES)


@register_rule
class UnitSuffix(Rule):
    """Duration-bearing names must carry the ``_ns`` suffix."""

    rule_id = "unit-suffix"
    description = (
        "names holding durations must end in _ns (no _us/_ms, no bare "
        "latency/delay), outside allowlisted conversion helpers"
    )

    def check(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _offending(node.name):
                    yield self.finding(
                        module, node, f"function name {node.name!r}: {_SUGGESTION}"
                    )
                if node.name in CONVERSION_HELPERS:
                    continue  # their parameters are the conversion inputs
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if _offending(arg.arg):
                        yield self.finding(
                            module, arg, f"parameter {arg.arg!r}: {_SUGGESTION}"
                        )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                # Covers assignments, annotated fields, loop targets.
                if _offending(node.id):
                    yield self.finding(
                        module, node, f"name {node.id!r}: {_SUGGESTION}"
                    )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if _offending(node.attr):
                    yield self.finding(
                        module, node, f"attribute {node.attr!r}: {_SUGGESTION}"
                    )
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg is not None and _offending(keyword.arg):
                        yield self.finding(
                            module,
                            keyword.value,
                            f"keyword argument {keyword.arg!r}: {_SUGGESTION}",
                        )


# 1_000 reads as "maybe µs, maybe a count"; literals under 1 µs are
# self-evidently ns and stay allowed.
_RAW_LITERAL_THRESHOLD_NS = 1_000


@register_rule
class RawDurationLiteral(Rule):
    """No magic-number durations at nanosecond call sites: a bare
    ``5_000_000`` as the time argument of a scheduler call, or as a
    ``*_ns=`` keyword value, could be a mistyped µs or ms value."""

    rule_id = "raw-duration-literal"
    description = (
        "integer literals >= 1000 as a schedule_*/call_* time or *_ns= value "
        "must use ms_to_ns()/us_to_ns()/s_to_ns() or a kernel constant"
    )

    def check(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            sites = [
                (k.arg, k.value)
                for k in node.keywords
                if k.arg is not None and k.arg.endswith("_ns")
            ]
            attr = getattr(node.func, "attr", None)  # None: a plain-name call
            if attr in SCHEDULER_CALLBACK_ARG and node.args:
                sites.append((attr, node.args[0]))  # the time comes first
            for where, arg in sites:
                value = arg.value if isinstance(arg, ast.Constant) else None
                if type(value) is int and value >= _RAW_LITERAL_THRESHOLD_NS:
                    yield self.finding(
                        module,
                        arg,
                        f"raw duration literal {value:,} at {where}; use "
                        f"us_to_ns()/ms_to_ns()/s_to_ns() or a kernel constant "
                        f"(MICROSECOND, MILLISECOND, SECOND)",
                    )


_TIME_SUFFIXES = ("_ns", "_us", "_ms", "_time", "_timestamp")


def _leaf_names(node: ast.expr) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _mentions_time(node: ast.expr) -> bool:
    return any(
        name == "now" or name.endswith(_TIME_SUFFIXES) for name in _leaf_names(node)
    )


def _looks_float(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
            return True
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "float"
        ):
            return True
    return False


@register_rule
class NoFloatTimeEquality(Rule):
    """No ``==``/``!=`` between float-valued time expressions.

    ``a_ns / 1e3 == b_us`` silently depends on float rounding; integer
    nanoseconds compare exactly, so compare *before* converting (or use
    an explicit tolerance).
    """

    rule_id = "no-float-time-equality"
    description = (
        "time expressions must not be compared with ==/!= once a float "
        "division or float literal is involved"
    )

    def check(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                mentions = _mentions_time(left) or _mentions_time(right)
                floaty = _looks_float(left) or _looks_float(right)
                if mentions and floaty:
                    yield self.finding(
                        module,
                        node,
                        "float time equality: compare integer nanoseconds, "
                        "or use an explicit tolerance",
                    )
