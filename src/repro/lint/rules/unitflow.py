"""The unit-mismatch rule family, built on the unit-flow dataflow layer.

These rules consume the shared :class:`repro.lint.unitflow.UnitFlow`
analysis (one per project, cached on the
:class:`~repro.lint.callgraph.ProjectAnalysis`). Every rule fires only
when *both* sides of an operation carry different **concrete** units —
``unknown`` never participates in a finding — so an unresolvable
expression can silence a check but never invent one.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule
from repro.lint.unitflow import (
    CONCRETE_UNITS,
    CONVERSION_PARAM_UNITS,
    NS,
    SCHEDULER_TIME_ATTRS,
    Scope,
    UnitFlow,
    literal_int_value,
    unit_from_name,
    unitflow_for,
)

#: Inline integer durations at or above this many nanoseconds must go
#: through a conversion helper or a named constant: 1_000 reads as
#: "maybe µs, maybe a count" — ``MICROSECOND`` and ``us_to_ns(1)`` don't.
RAW_LITERAL_THRESHOLD_NS = 1_000


class UnitFlowRule(Rule):
    """Base: run :meth:`violations` over every unit-flow scope.

    The base class fetches the shared analysis, walks its scopes in
    deterministic order, applies per-function ``# lint: hot-ok(<rule>)``
    suppressions, and assembles findings.
    """

    requires_project = True

    def check_project(self, project) -> Iterator[Finding]:
        flow = unitflow_for(project)
        for scope in flow.scopes():
            suppressed = self.rule_id in scope.suppressions
            for node, message in self.violations(flow, scope):
                yield Finding(
                    path=scope.relpath,
                    line=getattr(node, "lineno", 0),
                    rule_id=self.rule_id,
                    message=message,
                    suppressed=suppressed,
                )

    def violations(
        self, flow: UnitFlow, scope: Scope
    ) -> Iterator[tuple[ast.AST, str]]:
        raise NotImplementedError


def _mixed(left: str, right: str) -> bool:
    return (
        left in CONCRETE_UNITS and right in CONCRETE_UNITS and left != right
    )


@register_rule
class UnitMismatchArith(UnitFlowRule):
    """No ``+``/``-`` between values of different concrete units:
    ``deadline_ns + timeout_ms`` is off by 10^6, ``latency_ns +
    payload_bytes`` is dimensional nonsense. Convert at the boundary
    (``ms_to_ns``/``us_to_ns``/``s_to_ns``) so both sides are ns."""

    rule_id = "unit-mismatch-arith"
    description = (
        "no +/- arithmetic between values of different units "
        "(ns vs us/ms/s, durations vs bytes) without conversion"
    )

    def violations(self, flow, scope):
        for node in scope.nodes:
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                left = flow.unit_of(node.left, scope)
                right = flow.unit_of(node.right, scope)
                if _mixed(left, right):
                    op = "+" if isinstance(node.op, ast.Add) else "-"
                    yield node, (
                        f"'{op}' mixes {left} and {right}; convert both "
                        f"sides to one unit first"
                    )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                target_unit = (
                    flow.unit_of(node.target, scope)
                    if isinstance(node.target, (ast.Name, ast.Attribute))
                    else "unknown"
                )
                value_unit = flow.unit_of(node.value, scope)
                if _mixed(target_unit, value_unit):
                    op = "+=" if isinstance(node.op, ast.Add) else "-="
                    yield node, (
                        f"'{op}' mixes {target_unit} and {value_unit}; "
                        f"convert the right-hand side first"
                    )


@register_rule
class UnitMismatchCompare(UnitFlowRule):
    """No ordering/equality comparison (or ``min``/``max``) across
    units: ``elapsed_ns < budget_ms`` is always True long after the
    budget blew."""

    rule_id = "unit-mismatch-compare"
    description = (
        "no comparisons or min()/max() between values of different "
        "units (ns vs us/ms/s/bytes)"
    )

    _OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

    def violations(self, flow, scope):
        for node in scope.nodes:
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for op, left, right in zip(node.ops, operands, operands[1:]):
                    if not isinstance(op, self._OPS):
                        continue
                    left_unit = flow.unit_of(left, scope)
                    right_unit = flow.unit_of(right, scope)
                    if _mixed(left_unit, right_unit):
                        yield node, (
                            f"comparison mixes {left_unit} and {right_unit}; "
                            f"convert both sides to one unit first"
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in ("min", "max")
                    and len(node.args) > 1
                ):
                    units = sorted(
                        {
                            unit
                            for arg in node.args
                            for unit in (flow.unit_of(arg, scope),)
                            if unit in CONCRETE_UNITS
                        }
                    )
                    if len(units) > 1:
                        yield node, (
                            f"{func.id}() mixes units {', '.join(units)}; "
                            f"convert the arguments to one unit first"
                        )


def _call_display(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return "<call>"


@register_rule
class UnitMismatchCall(UnitFlowRule):
    """No passing a value of one unit into a parameter whose name (or
    scheduler position) declares another: ``schedule_after(window_ms,
    ...)`` and ``wait(delay_ns=timeout_ms)`` silently scale by 10^6.
    Resolution goes through the call graph, so positional arguments are
    checked against the real callee's parameter names."""

    rule_id = "unit-mismatch-call"
    description = (
        "no passing a value of one unit into a parameter declared as "
        "another (e.g. an ms value into a *_ns parameter)"
    )

    def violations(self, flow, scope):
        for node in scope.nodes:
            if not isinstance(node, ast.Call):
                continue
            seen: set[int] = set()
            yield from self._scheduler_arg(flow, scope, node, seen)
            yield from self._keyword_args(flow, scope, node)
            yield from self._positional_args(flow, scope, node, seen)

    def _scheduler_arg(self, flow, scope, node, seen):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in SCHEDULER_TIME_ATTRS
            and node.args
        ):
            seen.add(id(node.args[0]))
            unit = flow.unit_of(node.args[0], scope)
            if unit in CONCRETE_UNITS and unit != NS:
                yield node, (
                    f"{func.attr}() takes integer nanoseconds but the "
                    f"time argument is {unit}; convert it first"
                )

    def _keyword_args(self, flow, scope, node):
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            declared = unit_from_name(keyword.arg)
            if declared not in CONCRETE_UNITS:
                continue
            unit = flow.unit_of(keyword.value, scope)
            if unit in CONCRETE_UNITS and unit != declared:
                yield node, (
                    f"keyword {keyword.arg!r} of {_call_display(node)}() "
                    f"declares {declared} but receives {unit}"
                )

    def _positional_args(self, flow, scope, node, seen):
        name = _call_display(node)
        if name in CONVERSION_PARAM_UNITS:
            declared = CONVERSION_PARAM_UNITS[name]
            if node.args:
                unit = flow.unit_of(node.args[0], scope)
                if unit in CONCRETE_UNITS and unit != declared:
                    yield node, (
                        f"{name}() converts {declared} but receives {unit}"
                    )
            return
        targets = flow.resolve_call_targets(node, scope)
        if not targets:
            return
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                return  # positions are unknowable past a *splat
            if id(arg) in seen:
                continue  # already reported as the scheduler time slot
            unit = flow.unit_of(arg, scope)
            if unit not in CONCRETE_UNITS:
                continue
            # Only flag when every candidate callee agrees on the
            # declared unit at this position (protocol fan-out may
            # resolve to several implementations).
            declared_units = set()
            param_names = set()
            for target in targets:
                slots = flow.param_slots(node, target, scope)
                if index not in slots:
                    declared_units.add("unknown")
                    continue
                param_names.add(slots[index])
                declared_units.add(unit_from_name(slots[index]))
            if len(declared_units) != 1:
                continue
            declared = declared_units.pop()
            if declared in CONCRETE_UNITS and declared != unit:
                param = sorted(param_names)[0]
                yield arg, (
                    f"argument {index + 1} of {name}() is {unit} but "
                    f"parameter {param!r} declares {declared}"
                )


@register_rule
class RawDurationLiteral(UnitFlowRule):
    """No magic-number durations at nanosecond call sites: a bare
    ``1_000`` passed to ``schedule_after`` (or any ``*_ns`` parameter)
    could be a mistyped µs or ms value. Spell the unit out with the
    conversion helpers (``us_to_ns(1)``) or the kernel constants
    (``MICROSECOND``); literals under 1 µs are self-evidently ns and
    stay allowed."""

    rule_id = "raw-duration-literal"
    description = (
        "durations >= 1000 at schedule_*/*_ns call sites must use "
        "ms_to_ns()/us_to_ns()/s_to_ns() or the kernel constants, "
        "not inline literals"
    )

    def violations(self, flow, scope):
        for node in scope.nodes:
            if not isinstance(node, ast.Call):
                continue
            seen: set[int] = set()
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in SCHEDULER_TIME_ATTRS:
                if node.args:
                    seen.add(id(node.args[0]))
                    yield from self._check(node.args[0], func.attr)
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg.endswith("_ns"):
                    yield from self._check(keyword.value, keyword.arg)
            targets = flow.resolve_call_targets(node, scope)
            if targets:
                for index, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    if id(arg) in seen:
                        continue
                    slot_names = set()
                    for target in targets:
                        slots = flow.param_slots(node, target, scope)
                        slot_names.add(slots.get(index))
                    if len(slot_names) == 1:
                        slot = slot_names.pop()
                        if slot is not None and slot.endswith("_ns"):
                            yield from self._check(arg, slot)

    def _check(self, arg: ast.expr, where: str):
        value = literal_int_value(arg)
        if value is not None and abs(value) >= RAW_LITERAL_THRESHOLD_NS:
            yield arg, (
                f"raw duration literal {value:,.0f} at {where}; use "
                f"us_to_ns()/ms_to_ns()/s_to_ns() or a kernel constant "
                f"(MICROSECOND, MILLISECOND, SECOND)"
            )


@register_rule
class UnitMismatchReturn(UnitFlowRule):
    """A function whose name declares a unit must return that unit:
    ``def timeout_ns(...)`` returning an ms value poisons every caller
    that trusted the suffix."""

    rule_id = "unit-mismatch-return"
    description = (
        "a function named *_ns (or *_bytes, ...) must not return a "
        "value inferred as a different unit"
    )

    def violations(self, flow, scope):
        info = scope.info
        if info is None or isinstance(info.node, ast.Lambda):
            return
        declared = flow.declared_return_unit(info)
        if declared not in CONCRETE_UNITS:
            return
        for node in scope.nodes:
            if isinstance(node, ast.Return) and node.value is not None:
                unit = flow.unit_of(node.value, scope)
                if unit in CONCRETE_UNITS and unit != declared:
                    yield node, (
                        f"function {info.qualname}() declares {declared} "
                        f"but returns {unit}"
                    )
