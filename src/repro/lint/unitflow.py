"""Whole-program unit/dimension dataflow over the symbol table.

Every quantitative claim in the paper lives at nanosecond scale: the
busiest 100 µs window leaves ~100 ns/event, and the §4 design
comparisons turn on sub-microsecond deltas. A single ms-vs-ns (or
bytes-vs-ns) mixup therefore corrupts a result by six orders of
magnitude without crashing anything. The ``unit-suffix`` rule polices
*names*; this module tracks *values*: it infers a unit for expressions
and propagates it through assignments, arithmetic, returns, and — via
the PR-7 symbol table and call graph — across call sites.

The unit lattice
----------------

``ns``, ``us``, ``ms``, ``s``, ``bytes``, ``hz``, ``events`` are the
*concrete* units; ``ratio`` is dimensionless-by-construction (a unit
divided by itself); ``literal`` is a bare numeric constant that adopts
whatever unit it flows into; ``unknown`` is the top element every
unresolvable expression lands on. ``join`` is the only combinator:
equal units join to themselves, ``literal`` joins to the other side,
and any other disagreement joins to ``unknown`` — so uncertainty is
always absorbed, never guessed at. The mismatch rules fire only when
*both* sides of an operation carry different **concrete** units, which
is what makes the analysis false-positive-free by construction: an
``unknown`` can never be part of a finding.

Inference sources
-----------------

* **Name suffixes** — ``*_ns``/``*_us``/``*_ms``/``*_sec``/``*_bytes``/
  ``*_hz``/``*_events``/``*_ratio`` on parameters, locals, and
  attributes (plus the exact names ``ns``/``us``/``ms``/``now``).
* **Blessed constants** — ``NANOSECOND``/``MICROSECOND``/
  ``MILLISECOND``/``SECOND`` (from :mod:`repro.sim.kernel`) are
  nanosecond counts.
* **Conversion helpers** — ``ms_to_ns``/``us_to_ns``/``s_to_ns`` return
  ``ns`` and their parameters carry the source unit.
* **Assignments** — a local picks up the joined unit of everything
  assigned to it (flow-insensitive: conflicting assignments join to
  ``unknown``, never to a wrong guess).
* **Calls** — a resolved callee contributes its *return-unit summary*:
  the unit its name announces, or the fixpoint join of its ``return``
  expressions (computed iteratively so summaries propagate through
  call chains).

:func:`unitflow_for` builds one shared :class:`UnitFlow` per
:class:`~repro.lint.callgraph.ProjectAnalysis`; the ``unit-mismatch-*``
rule family (``rules/unitflow.py``) consumes it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.callgraph import ProjectAnalysis, function_body_nodes, make_resolver
from repro.lint.symbols import FunctionInfo

# -- the lattice -------------------------------------------------------------

NS = "ns"
US = "us"
MS = "ms"
S = "s"
BYTES = "bytes"
HZ = "hz"
EVENTS = "events"
RATIO = "ratio"
LITERAL = "literal"  # numeric constant: adopts the unit it flows into
UNKNOWN = "unknown"  # top: absorbs everything unresolvable

#: Units that can participate in a mismatch finding. ``ratio`` is
#: excluded on purpose: multiplying a duration by a dimensionless factor
#: is normal arithmetic, not a mixup.
CONCRETE_UNITS = frozenset({NS, US, MS, S, BYTES, HZ, EVENTS})

_SUFFIX_UNITS = {
    "_ns": NS,
    "_us": US,
    "_ms": MS,
    "_sec": S,
    "_seconds": S,
    "_bytes": BYTES,
    "_hz": HZ,
    "_events": EVENTS,
    "_ratio": RATIO,
}
_EXACT_UNITS = {
    "ns": NS,
    "us": US,
    "ms": MS,
    "seconds": S,
    "now": NS,  # simulator virtual time is integer nanoseconds
}

#: Nanosecond-count constants from repro.sim.kernel (resolved through
#: import bindings, so ``from repro.sim.kernel import SECOND`` works).
TIME_CONSTANT_NAMES = frozenset(
    {"NANOSECOND", "MICROSECOND", "MILLISECOND", "SECOND"}
)

#: The blessed conversion boundary (repro.sim.kernel): return unit is
#: always ns; the single parameter carries the source unit.
CONVERSION_RETURNS = {"ms_to_ns": NS, "us_to_ns": NS, "s_to_ns": NS}
CONVERSION_PARAM_UNITS = {"ms_to_ns": MS, "us_to_ns": US, "s_to_ns": S}

#: Builtins that preserve their (first) argument's unit.
_UNIT_PRESERVING_BUILTINS = frozenset({"int", "float", "round", "abs", "sum"})
#: Builtins that join all their arguments' units (checked for mixing by
#: the compare rule).
_UNIT_JOINING_BUILTINS = frozenset({"min", "max"})

#: Scheduler entry points whose first argument is a nanosecond time or
#: delay (shared with the call-graph root detection).
SCHEDULER_TIME_ATTRS = frozenset(
    {"schedule_at", "schedule_after", "call_at", "call_after"}
)


def join(a: str, b: str) -> str:
    """Lattice join: equal wins, literal yields, disagreement -> unknown."""
    if a == b:
        return a
    if a == LITERAL:
        return b
    if b == LITERAL:
        return a
    return UNKNOWN


def unit_from_name(name: str) -> str:
    """The unit a bare identifier announces, or ``unknown``."""
    if name in _EXACT_UNITS:
        return _EXACT_UNITS[name]
    for suffix, unit in _SUFFIX_UNITS.items():
        if name.endswith(suffix):
            return unit
    return UNKNOWN


def literal_int_value(node: ast.expr) -> int | float | None:
    """The numeric value of a literal-only expression (constants combined
    with ``+ - * / // ** %`` and unary sign), or None when any part of
    the expression is not a plain numeric literal."""
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = literal_int_value(node.operand)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp):
        left = literal_int_value(node.left)
        right = literal_int_value(node.right)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            if isinstance(node.op, ast.FloorDiv):
                return left // right
            if isinstance(node.op, ast.Mod):
                return left % right
            if isinstance(node.op, ast.Pow):
                if abs(right) > 64:  # refuse pathological exponents
                    return None
                return left**right
        except (ZeroDivisionError, OverflowError, ValueError):
            return None
    return None


@dataclass
class Scope:
    """One unit-evaluation context: a function body or a module's
    top-level code. ``resolver`` is None for module scopes (module-level
    call sites skip resolution-dependent checks)."""

    owner: str  # function id, or "module:<name>" for top level
    module_name: str
    relpath: str
    info: FunctionInfo | None
    nodes: tuple[ast.AST, ...]
    env: dict[str, str] = field(default_factory=dict)
    resolver: object | None = None
    suppressions: frozenset[str] = frozenset()


def _module_toplevel_nodes(tree: ast.Module):
    """Every node in module-level (and class-body) code, excluding
    function bodies — those are their own scopes via the symbol table."""
    stack = list(reversed(tree.body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


class UnitFlow:
    """The shared unit-dataflow analysis for one project."""

    def __init__(self, project: ProjectAnalysis):
        self.project = project
        self.symbols = project.symbols
        # fid -> return-unit summary (name suffix, or fixpoint of returns)
        self.returns: dict[str, str] = {}
        self._scopes: list[Scope] = []
        self._scope_cache: dict[str, Scope] = {}
        self._named_return_unit: dict[str, str] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        symbols = self.symbols
        for fid in sorted(symbols.functions):
            info = symbols.functions[fid]
            unit = self._function_name_unit(info)
            self._named_return_unit[fid] = unit
            self.returns[fid] = unit
        # Fixpoint: summaries feed call-expression units feed summaries.
        # The lattice has height 2 (literal -> concrete -> unknown), so a
        # handful of rounds always converges; the bound is a safety net.
        for _ in range(4):
            if not self._refine_summaries():
                break
            for scope in self._scope_cache.values():
                self._grow_env(scope)  # let refined summaries reach locals
        self._scopes = [self._function_scope(fid) for fid in sorted(symbols.functions)]
        for module in sorted(self.project.modules, key=lambda m: m.relpath):
            self._scopes.append(self._module_scope(module))

    def declared_return_unit(self, info: FunctionInfo) -> str:
        """The unit a function's *name* commits it to returning, or
        ``unknown`` — the same judgement used for call-site summaries,
        so the return rule and the propagation can never disagree."""
        return self._function_name_unit(info)

    def _function_name_unit(self, info: FunctionInfo) -> str:
        name = info.qualname.rsplit(".", 1)[-1]
        if name in CONVERSION_RETURNS:
            return CONVERSION_RETURNS[name]
        unit = unit_from_name(name)
        # ``_events`` on a *function* name is usually a verb phrase
        # ("stamp_events", "drop_events"), not a count — keep the
        # declaration only for unambiguous value suffixes.
        if unit == EVENTS:
            return UNKNOWN
        return unit if unit in CONCRETE_UNITS or unit == RATIO else UNKNOWN

    def _refine_summaries(self) -> bool:
        changed = False
        for fid in sorted(self.symbols.functions):
            if self._named_return_unit[fid] != UNKNOWN:
                continue  # the name is authoritative
            scope = self._function_scope(fid)
            unit = LITERAL
            saw_return = False
            node = scope.info.node
            if isinstance(node, ast.Lambda):
                saw_return = True
                unit = join(unit, self.unit_of(node.body, scope))
            else:
                for child in scope.nodes:
                    if isinstance(child, ast.Return) and child.value is not None:
                        saw_return = True
                        unit = join(unit, self.unit_of(child.value, scope))
            if not saw_return or unit == LITERAL:
                unit = UNKNOWN
            if unit != self.returns[fid]:
                self.returns[fid] = unit
                changed = True
        return changed

    def _function_scope(self, fid: str) -> Scope:
        if fid in self._scope_cache:
            return self._scope_cache[fid]
        info = self.symbols.functions[fid]
        node = info.node
        env: dict[str, str] = {}
        if not isinstance(node, ast.Lambda):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                unit = unit_from_name(arg.arg)
                if unit != UNKNOWN:
                    env[arg.arg] = unit
        scope = Scope(
            owner=fid,
            module_name=info.module,
            relpath=info.relpath,
            info=info,
            nodes=tuple(function_body_nodes(node)),
            env=env,
            resolver=make_resolver(self.symbols, info),
            suppressions=info.suppressions,
        )
        self._scope_cache[fid] = scope
        self._grow_env(scope)
        return scope

    def _module_scope(self, module) -> Scope:
        scope = Scope(
            owner=f"module:{module.name}",
            module_name=module.name,
            relpath=module.relpath,
            info=None,
            nodes=tuple(_module_toplevel_nodes(module.tree)),
            resolver=None,
        )
        self._grow_env(scope)
        return scope

    def _grow_env(self, scope: Scope) -> None:
        """Flow-insensitive local units: two rounds of assignment joins
        (round two lets ``a = b; c = a`` chains settle)."""
        for _ in range(2):
            for node in scope.nodes:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    value_unit = self.unit_of(node.value, scope)
                    if isinstance(target, ast.Name):
                        self._bind(scope, target.id, value_unit)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if isinstance(node.target, ast.Name):
                        self._bind(
                            scope, node.target.id, self.unit_of(node.value, scope)
                        )
                elif isinstance(node, ast.AugAssign):
                    if isinstance(node.target, ast.Name):
                        self._bind(
                            scope, node.target.id, self.unit_of(node.value, scope)
                        )
                elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                    # Iterating a suffixed collection yields its element
                    # unit (``for t in times_ns``).
                    self._bind(scope, node.target.id, self.unit_of(node.iter, scope))

    def _bind(self, scope: Scope, name: str, unit: str) -> None:
        suffix_unit = unit_from_name(name)
        if suffix_unit != UNKNOWN:
            return  # the suffix is authoritative; assignments never override
        if unit in (UNKNOWN, LITERAL):
            # A literal alone pins nothing; an unknown assignment poisons
            # any previously-known unit (conflict -> unknown, not a guess).
            if unit == UNKNOWN and name in scope.env:
                scope.env[name] = UNKNOWN
            return
        scope.env[name] = join(scope.env.get(name, unit), unit)

    # -- evaluation --------------------------------------------------------

    def scopes(self) -> list[Scope]:
        """Every evaluation scope, deterministically ordered (functions
        by id, then module top levels by path)."""
        return self._scopes

    def unit_of(self, node: ast.expr, scope: Scope) -> str:
        """The inferred unit of ``node`` inside ``scope``."""
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return UNKNOWN
            return LITERAL
        if isinstance(node, ast.Name):
            if node.id in scope.env:
                return scope.env[node.id]
            if self._is_time_constant(scope.module_name, node.id):
                return NS
            return unit_from_name(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr in TIME_CONSTANT_NAMES:
                return NS
            return unit_from_name(node.attr)
        if isinstance(node, ast.Subscript):
            # An element of a suffixed collection carries the suffix unit.
            return self.unit_of(node.value, scope)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                return self.unit_of(node.operand, scope)
            return UNKNOWN
        if isinstance(node, ast.BinOp):
            return self._binop_unit(node, scope)
        if isinstance(node, ast.BoolOp):
            unit = LITERAL
            for value in node.values:
                unit = join(unit, self.unit_of(value, scope))
            return unit
        if isinstance(node, ast.IfExp):
            return join(
                self.unit_of(node.body, scope), self.unit_of(node.orelse, scope)
            )
        if isinstance(node, ast.Call):
            return self._call_unit(node, scope)
        return UNKNOWN

    def _binop_unit(self, node: ast.BinOp, scope: Scope) -> str:
        left = self.unit_of(node.left, scope)
        right = self.unit_of(node.right, scope)
        op = node.op
        if isinstance(op, (ast.Add, ast.Sub, ast.Mod)):
            if left == right:
                return left
            if LITERAL in (left, right):
                return left if right == LITERAL else right
            return UNKNOWN  # the mismatch rule reports this, not a guess
        if isinstance(op, ast.Mult):
            if LITERAL in (left, right) or RATIO in (left, right):
                other = left if right in (LITERAL, RATIO) else right
                return other
            return UNKNOWN  # ns * bytes etc.: a compound dimension
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if left == right and left in CONCRETE_UNITS:
                return RATIO
            if right == LITERAL:
                return left
            if left == LITERAL and right == LITERAL:
                return LITERAL
            return UNKNOWN
        if isinstance(op, ast.Pow):
            if left == LITERAL and right == LITERAL:
                return LITERAL
            return UNKNOWN
        return UNKNOWN

    def _call_unit(self, node: ast.Call, scope: Scope) -> str:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in CONVERSION_RETURNS:
            return CONVERSION_RETURNS[name]
        if isinstance(func, ast.Name):
            if name in _UNIT_PRESERVING_BUILTINS and node.args:
                return self.unit_of(node.args[0], scope)
            if name in _UNIT_JOINING_BUILTINS and node.args:
                unit = LITERAL
                for arg in node.args:
                    unit = join(unit, self.unit_of(arg, scope))
                return unit
        targets = self.resolve_call_targets(node, scope)
        if targets:
            unit = self.returns[targets[0].fid]
            for target in targets[1:]:
                unit = join(unit, self.returns[target.fid])
            return unit
        return UNKNOWN

    def _is_time_constant(self, module_name: str, name: str) -> bool:
        if name in TIME_CONSTANT_NAMES:
            return True
        bound = self.symbols.bindings.get(module_name, {}).get(name)
        return bound is not None and bound.rsplit(".", 1)[-1] in TIME_CONSTANT_NAMES

    # -- call-site resolution ----------------------------------------------

    def resolve_call_targets(self, node: ast.Call, scope: Scope):
        """The project functions a call resolves to, or [] when the
        scope has no resolver / the callee is not a project function."""
        if scope.resolver is None:
            return []
        kind, payload = scope.resolver.resolve_callable(node.func)
        if kind != "functions":
            return []
        return payload

    def param_slots(
        self, node: ast.Call, target: FunctionInfo, scope: Scope
    ) -> dict[int, str]:
        """Positional-index -> parameter-name mapping for a resolved call
        (accounting for the bound ``self``/``cls`` slot)."""
        fn = target.node
        if isinstance(fn, ast.Lambda) or not isinstance(
            fn, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return {}
        args = fn.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if (
            target.class_fqname is not None
            and names
            and names[0] in ("self", "cls")
            and not self._is_unbound_call(node, scope)
        ):
            names = names[1:]
        return dict(enumerate(names))

    def _is_unbound_call(self, node: ast.Call, scope: Scope) -> bool:
        """``Klass.method(obj, x)`` — the explicit-self calling form."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
            return False
        return (
            self.symbols.resolve_class_name(scope.module_name, func.value.id)
            is not None
        )


def unitflow_for(project: ProjectAnalysis) -> UnitFlow:
    """The shared per-project :class:`UnitFlow` (built once, cached)."""
    cached = getattr(project, "_unitflow", None)
    if cached is None:
        cached = UnitFlow(project)
        project._unitflow = cached
    return cached
