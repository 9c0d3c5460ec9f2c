"""Determinism rules: no wall clocks, no ambient randomness.

Bit-for-bit reproducibility is the load-bearing invariant of the whole
simulation (§5 of the paper's measurement methodology depends on runs
being replayable): virtual time is the integer-nanosecond simulator
clock, and every random draw flows from an explicitly seeded generator
(:mod:`repro.sim.rng` streams, or a ``default_rng(seed)`` local to a
workload generator). These rules make both properties machine-checked.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule

# Functions that read the host's wall clock (or a host-monotonic clock —
# equally nondeterministic across runs).
_WALL_CLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

# The kernel profiler's whole job is measuring the *real* cost of the
# simulation, and the lint engine's ``--stats`` accounting measures the
# real cost of the analyzer; both are sanctioned wall-clock consumers,
# and neither feeds wall time back into simulation state.
_WALL_CLOCK_ALLOWED_MODULES = frozenset(
    {"repro.telemetry.profile", "repro.lint.engine"}
)


def wall_clock_allowed_module(module_name: str) -> bool:
    """True when ``module_name`` is a sanctioned wall-clock consumer."""
    return module_name in _WALL_CLOCK_ALLOWED_MODULES


def wall_clock_reads(nodes) -> Iterator[tuple[ast.AST, str]]:
    """(node, message) for every host-clock read among ``nodes``.

    Shared between the per-module :class:`NoWallClock` rule and the
    transitive hot-path variant in :mod:`repro.lint.rules.hotpath`.
    """
    for node in nodes:
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if not isinstance(base, (ast.Name, ast.Attribute)):
            continue
        base_name = base.id if isinstance(base, ast.Name) else base.attr
        if base_name == "time" and node.attr in _WALL_CLOCK_TIME_ATTRS:
            yield node, f"wall-clock read: time.{node.attr}"
        elif (
            base_name in ("datetime", "date")
            and node.attr in _WALL_CLOCK_DATETIME_ATTRS
        ):
            yield node, f"wall-clock read: {base_name}.{node.attr}"


@register_rule
class NoWallClock(Rule):
    """Ban host-clock reads: simulated time is ``sim.now``, never real time."""

    rule_id = "no-wall-clock"
    description = (
        "sim code must use virtual time (sim.now), never time.time()/"
        "perf_counter()/datetime.now()"
    )

    def check(self, module) -> Iterator[Finding]:
        if wall_clock_allowed_module(module.name):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_TIME_ATTRS:
                            yield self.finding(
                                module,
                                node,
                                f"wall-clock import: from time import {alias.name}",
                            )
        for node, message in wall_clock_reads(ast.walk(module.tree)):
            yield self.finding(module, node, message)


# numpy.random module-level functions draw from hidden global state; the
# Generator API names below are the explicitly seeded replacements.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


def _is_np_random(node: ast.expr) -> bool:
    """True for the expression ``np.random`` / ``numpy.random``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


# Drawing functions of the stdlib ``random`` module: the per-module rule
# already flags the import, so only the transitive hot-path rule needs
# to recognize call sites (``random.choice(...)`` inside a hot helper).
_STDLIB_RANDOM_ATTRS = frozenset(
    {
        "random", "randint", "randrange", "randbytes", "getrandbits",
        "choice", "choices", "shuffle", "sample", "uniform", "triangular",
        "gauss", "normalvariate", "lognormvariate", "expovariate",
        "betavariate", "gammavariate", "paretovariate", "vonmisesvariate",
        "weibullvariate", "seed",
    }
)


def global_random_uses(nodes, include_stdlib_attrs: bool = False):
    """(node, message) for every ambient-randomness use among ``nodes``.

    Shared between the per-module :class:`NoGlobalRandom` rule and the
    transitive hot-path variant. ``include_stdlib_attrs`` additionally
    flags ``random.<draw>()`` attribute reads (the per-module rule flags
    the import instead, which lives outside any function body).
    """
    for node in nodes:
        if isinstance(node, ast.Attribute):
            if _is_np_random(node.value) and node.attr not in _NP_RANDOM_ALLOWED:
                yield node, (
                    f"np.random.{node.attr} draws from global state; "
                    "use default_rng(seed) or a sim.rng stream"
                )
            elif (
                include_stdlib_attrs
                and isinstance(node.value, ast.Name)
                and node.value.id == "random"
                and node.attr in _STDLIB_RANDOM_ATTRS
            ):
                yield node, (
                    f"random.{node.attr} draws from hidden global state; "
                    "use a sim.rng stream"
                )
        elif isinstance(node, ast.Call):
            func = node.func
            is_default_rng = (
                isinstance(func, ast.Attribute) and func.attr == "default_rng"
            ) or (isinstance(func, ast.Name) and func.id == "default_rng")
            if is_default_rng and not node.args and not node.keywords:
                yield node, (
                    "default_rng() without a seed is entropy-seeded and "
                    "nondeterministic; pass an explicit seed"
                )


@register_rule
class NoGlobalRandom(Rule):
    """All randomness must be explicitly seeded (sim.rng streams or
    ``default_rng(seed)``) — never the stdlib ``random`` module or
    numpy's hidden global state."""

    rule_id = "no-global-random"
    description = (
        "randomness must flow from seeded generators (sim.rng / "
        "default_rng(seed)), not global random state"
    )

    def check(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.finding(
                            module,
                            node,
                            "stdlib random uses hidden global state; "
                            "use sim.rng streams",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        module,
                        node,
                        "stdlib random uses hidden global state; "
                        "use sim.rng streams",
                    )
        for node, message in global_random_uses(ast.walk(module.tree)):
            yield self.finding(module, node, message)


# ---------------------------------------------------------------------------
# unordered-iteration: set iteration feeding order-sensitive sinks.
#
# Python dicts iterate in insertion order, which is deterministic as
# long as insertions are — so dict iteration is deliberately exempt.
# Sets iterate in hash order, and str hashes are randomized per process
# (PYTHONHASHSEED), so a set iteration that schedules events, records
# telemetry, or writes artifacts produces a different order every run.
# ---------------------------------------------------------------------------

# Call names whose argument order is observable in run output: event
# scheduling, telemetry recording, artifact/stream writes.
_ORDER_SINK_ATTRS = frozenset(
    {
        "schedule_at", "schedule_after", "call_at", "call_after",
        "count", "gauge_set", "gauge_add", "record_count", "record_sample",
        "stamp", "record", "write", "writerow", "writelines", "append",
    }
)


def _is_set_annotation(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    return name in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
        and not any(isinstance(arg, ast.Call) for arg in node.args)
    )


@register_rule
class UnorderedIteration(Rule):
    """Iterating a ``set`` in hash order while feeding scheduling,
    telemetry, or artifact output makes the run order depend on
    ``PYTHONHASHSEED``. Wrap the iterable in ``sorted(...)``. Dict
    iteration is exempt: insertion order is deterministic."""

    rule_id = "unordered-iteration"
    description = (
        "set iteration feeding scheduling/telemetry/artifact output must "
        "go through sorted(...)"
    )

    def check(self, module) -> Iterator[Finding]:
        set_names, set_attrs = self._collect_set_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not self._iterates_set(node.iter, set_names, set_attrs):
                continue
            sink = self._order_sink(node.body)
            if sink is not None:
                yield self.finding(
                    module,
                    node,
                    f"set iteration order is hash-randomized but feeds "
                    f"'{sink}'; iterate sorted(...) instead (dicts are "
                    "insertion-ordered and exempt)",
                )

    def _collect_set_bindings(self, tree) -> tuple[set[str], set[str]]:
        """Names (locals) and ``self.<attr>`` attributes bound to sets."""
        names: set[str] = set()
        attrs: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if not _is_set_expr(value):
                    continue
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
            elif isinstance(node, ast.AnnAssign):
                if not _is_set_annotation(node.annotation):
                    continue
                target = node.target
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if _is_set_annotation(arg.annotation):
                        names.add(arg.arg)
        return names, attrs

    def _iterates_set(
        self, iterable: ast.expr, set_names: set[str], set_attrs: set[str]
    ) -> bool:
        if _is_set_expr(iterable):
            return True
        if isinstance(iterable, ast.Name):
            return iterable.id in set_names
        if (
            isinstance(iterable, ast.Attribute)
            and isinstance(iterable.value, ast.Name)
            and iterable.value.id == "self"
        ):
            return iterable.attr in set_attrs
        return False

    def _order_sink(self, body: list[ast.stmt]) -> str | None:
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == "print":
                    return "print"
                if isinstance(func, ast.Attribute) and func.attr in _ORDER_SINK_ATTRS:
                    return f".{func.attr}()"
        return None
