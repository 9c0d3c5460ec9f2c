"""Call graph and hot-path reachability over the project symbol table.

The paper's budget — ~100 ns/event inside the busiest 100 µs window
(Fig 2c) — is enforced by a discipline, not a profiler: nothing on the
per-packet path may allocate, log, read the wall clock, or build
strings. A violation two calls below a kernel handler is exactly as
expensive as one *in* the handler, so the checker has to see the whole
program. This module provides that view:

* **edges** — every call site in every function, resolved through the
  symbol table (typed ``self.x`` attributes, import bindings, local
  defs, a methods-by-name fallback for protocol-typed receivers).
  Unresolvable dynamic calls (stored callbacks, ``getattr``) are
  recorded as ``unknown`` edges, never silently dropped.
* **roots** — functions handed to the kernel as event callbacks:
  ``sim.schedule_at`` / ``schedule_after`` / ``call_at`` /
  ``call_after``, NIC ``bind(handler)`` registration,
  and ``Timer(sim, callback)`` construction. A lambda scheduled inline
  becomes its own synthetic graph node.
* **hot set** — breadth-first reachability from the roots over resolved
  edges, remembering one shortest chain per function so findings can
  say *why* a helper is hot.

``repro lint --graph`` dumps all three for debugging.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.symbols import (
    FunctionInfo,
    SymbolTable,
    annotation_class_name,
    build_symbol_table,
    dotted_text,
)

# Scheduling entry points: attribute name -> positional index of the
# callback argument (after the time/delay argument).
SCHEDULER_CALLBACK_ARG = {
    "schedule_at": 1,
    "schedule_after": 1,
    "call_at": 1,
    "call_after": 1,
}
# Other registration idioms.
_BIND_ATTRS = frozenset({"bind", "add_trace_hook"})

# The linter is development tooling: it never runs inside the simulator,
# so its own functions are excluded from the hot set even if a shared
# method name would otherwise drag them in through the by-name fallback.
_NEVER_HOT_PREFIXES = ("repro.lint",)


@dataclass(frozen=True)
class Edge:
    """One call site. ``callee`` is a function id when resolved, or a
    best-effort source label (``"self._handler"``) when ``kind`` is
    ``unknown``."""

    caller: str
    callee: str
    lineno: int
    kind: str  # "call" | "callback" | "unknown"

    @property
    def resolved(self) -> bool:
        return self.kind != "unknown"


@dataclass(frozen=True)
class HotPath:
    """Why a function is hot: the kernel-handler root and one shortest
    call chain from it (both ends inclusive)."""

    root: str
    chain: tuple[str, ...]


@dataclass
class CallGraph:
    symbols: SymbolTable
    edges: list[Edge] = field(default_factory=list)
    roots: dict[str, str] = field(default_factory=dict)  # fid -> reason
    hot: dict[str, HotPath] = field(default_factory=dict)
    out: dict[str, set[str]] = field(default_factory=dict)

    def describe_hot(self, fid: str) -> str:
        """Human-readable chain for findings: ``Nic._deliver -> helper``."""
        hot = self.hot[fid]
        names = [self.symbols.functions[f].short_name for f in hot.chain]
        if len(names) > 4:
            names = names[:2] + ["..."] + names[-1:]
        return " -> ".join(names)


@dataclass
class ProjectAnalysis:
    """Everything the project-wide rules consume."""

    modules: list
    symbols: SymbolTable
    graph: CallGraph

    def module_for(self, name: str):
        for module in self.modules:
            if module.name == name:
                return module
        return None


def _local_types(symbols: SymbolTable, info: FunctionInfo) -> dict[str, str]:
    """Flow-insensitive local-variable types: parameter annotations,
    annotated locals, and assignments from typed self-attributes or
    known constructors."""
    types: dict[str, str] = {}
    node = info.node
    if isinstance(node, ast.Lambda):
        return types
    cls = symbols.classes.get(info.class_fqname) if info.class_fqname else None
    args = node.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.annotation is not None:
            name = annotation_class_name(arg.annotation)
            if name is not None:
                resolved = symbols.resolve_class_name(info.module, name)
                if resolved is not None:
                    types[arg.arg] = resolved
    for stmt in function_body_nodes(node):
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = annotation_class_name(stmt.annotation)
            if name is not None:
                resolved = symbols.resolve_class_name(info.module, name)
                if resolved is not None:
                    types[stmt.target.id] = resolved
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
            if not isinstance(target, ast.Name):
                continue
            if (
                cls is not None
                and isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
                and value.attr in cls.attr_types
            ):
                types[target.id] = cls.attr_types[value.attr]
            elif isinstance(value, ast.Call):
                resolved_cls = symbols.resolve_value_class(info.module, value.func)
                if resolved_cls is not None:
                    types[target.id] = resolved_cls.fqname
    return types


def function_body_nodes(node: ast.AST):
    """Every AST node in a function's *own* body: nested defs and lambdas
    are separate call-graph nodes and are not descended into."""
    if isinstance(node, ast.Lambda):
        roots = [node.body]
    else:
        roots = list(node.body)
    stack = list(reversed(roots))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(child))))


class _Resolver:
    """Resolves one function's call expressions against the table."""

    def __init__(self, symbols: SymbolTable, info: FunctionInfo):
        self.symbols = symbols
        self.info = info
        self.cls = (
            symbols.classes.get(info.class_fqname) if info.class_fqname else None
        )
        self.locals_ = symbols.local_functions.get(info.fid, {})
        self.local_types = _local_types(symbols, info)

    def _method_on(self, class_fqname: str, attr: str) -> list[FunctionInfo] | None:
        cls = self.symbols.classes.get(class_fqname)
        if cls is None:
            return None
        found = self.symbols.class_method(cls, attr)
        if found is None:
            return None
        if cls.is_protocol:
            # A protocol method is a contract, not an implementation:
            # fan out to every project implementation of that name.
            implementations = [
                m
                for m in self.symbols.methods_named(attr)
                if m.class_fqname != class_fqname
            ]
            return implementations or [found]
        return [found]

    def _param_names(self) -> frozenset[str]:
        node = self.info.node
        if isinstance(node, ast.Lambda) or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            args = node.args
            return frozenset(
                a.arg
                for a in (
                    args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])
                )
            )
        return frozenset()

    def resolve_callable(self, func: ast.expr):
        """(kind, payload): ("functions", [FunctionInfo]),
        ("class", ClassInfo), ("unknown", label) or ("skip", label)."""
        symbols = self.symbols
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.locals_:
                return "functions", [self.locals_[name]]
            module_funcs = symbols.module_functions.get(self.info.module, {})
            if name in module_funcs:
                return "functions", [module_funcs[name]]
            own_class = symbols.classes.get(f"{self.info.module}.{name}")
            if own_class is not None:
                return "class", own_class
            bound = symbols.bindings.get(self.info.module, {}).get(name)
            if bound is not None:
                target = symbols.function_at(bound)
                if target is not None:
                    return "functions", [target]
                if bound in symbols.classes:
                    return "class", symbols.classes[bound]
                return "unknown", name
            if name in self._param_names():
                # A call through a parameter is a stored callback — a
                # real blind spot, not a builtin.
                return "unknown", name
            return "skip", name  # builtins: len, int, print, ...
        if isinstance(func, ast.Attribute):
            attr = func.attr
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls") and self.cls is not None:
                    found = self._method_on(self.cls.fqname, attr)
                    if found:
                        return "functions", found
                    attr_type = self.cls.attr_types.get(attr)
                    if attr_type is not None and attr_type in self.symbols.classes:
                        return "class", self.symbols.classes[attr_type]
                    return self._by_name(attr, f"self.{attr}")
                if base.id in self.local_types:
                    found = self._method_on(self.local_types[base.id], attr)
                    if found:
                        return "functions", found
                    return self._by_name(attr, f"{base.id}.{attr}")
                bound = symbols.bindings.get(self.info.module, {}).get(base.id)
                if bound is not None:
                    if bound in symbols.module_names:
                        module_funcs = symbols.module_functions.get(bound, {})
                        if attr in module_funcs:
                            return "functions", [module_funcs[attr]]
                        if f"{bound}.{attr}" in symbols.classes:
                            return "class", symbols.classes[f"{bound}.{attr}"]
                        return "unknown", f"{base.id}.{attr}"
                    if bound in symbols.classes:
                        found = self._method_on(bound, attr)
                        if found:
                            return "functions", found
                own_class = symbols.classes.get(f"{self.info.module}.{base.id}")
                if own_class is not None:
                    found = self._method_on(own_class.fqname, attr)
                    if found:
                        return "functions", found
                return self._by_name(attr, f"{base.id}.{attr}")
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and self.cls is not None
            ):
                # self.link.send: through the inferred attribute type.
                attr_type = self.cls.attr_types.get(base.attr)
                if attr_type is not None:
                    found = self._method_on(attr_type, attr)
                    if found:
                        return "functions", found
                return self._by_name(attr, f"self.{base.attr}.{attr}")
            label = dotted_text(func) or f"<dynamic>.{attr}"
            return self._by_name(attr, label)
        return "unknown", "<dynamic>"

    def _by_name(self, attr: str, label: str):
        candidates = self.symbols.methods_named(attr)
        if candidates:
            return "functions", list(candidates)
        return "unknown", label


def _callback_expr(call: ast.Call) -> ast.expr | None:
    """The callback argument of a scheduling/registration call, if any."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    if attr in SCHEDULER_CALLBACK_ARG:
        index = SCHEDULER_CALLBACK_ARG[attr]
        if len(call.args) > index:
            return call.args[index]
        for keyword in call.keywords:
            if keyword.arg == "callback":
                return keyword.value
        return None
    if attr in _BIND_ATTRS and call.args:
        return call.args[0]
    return None


def _timer_callback_expr(call: ast.Call, resolver: _Resolver) -> ast.expr | None:
    """``Timer(sim, callback)``: the callback when this instantiates a
    class named Timer."""
    kind, payload = resolver.resolve_callable(call.func)
    if kind != "class" or payload.name != "Timer":
        return None
    if len(call.args) >= 2:
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "callback":
            return keyword.value
    return None


def build_call_graph(symbols: SymbolTable, modules) -> CallGraph:
    graph = CallGraph(symbols=symbols)
    module_by_name = {m.name: m for m in modules}

    for fid in sorted(symbols.functions):
        info = symbols.functions[fid]
        if isinstance(info.node, ast.Lambda):
            continue  # synthetic nodes are walked when registered
        _walk_function(graph, info, module_by_name)

    graph.edges.sort(key=lambda e: (e.caller, e.lineno, e.callee))
    _propagate_hot(graph)
    return graph


def _walk_function(graph: CallGraph, info: FunctionInfo, module_by_name) -> None:
    symbols = graph.symbols
    resolver = _Resolver(symbols, info)
    for node in function_body_nodes(info.node):
        if not isinstance(node, ast.Call):
            continue
        callback = _callback_expr(node) or _timer_callback_expr(node, resolver)
        if callback is not None:
            reason = (
                dotted_text(node.func) or getattr(node.func, "attr", "callback")
            )
            _register_root(graph, resolver, info, callback, node.lineno, reason,
                           module_by_name)
        kind, payload = resolver.resolve_callable(node.func)
        if kind == "functions":
            for target in payload:
                graph.edges.append(
                    Edge(info.fid, target.fid, node.lineno, "call")
                )
                graph.out.setdefault(info.fid, set()).add(target.fid)
        elif kind == "unknown":
            graph.edges.append(Edge(info.fid, payload, node.lineno, "unknown"))
        # "class" (instantiation) and "skip" (builtins) add no call edge;
        # the hot-path allocation rule inspects instantiations itself.


def _register_root(
    graph: CallGraph, resolver, info, callback: ast.expr, lineno: int,
    reason: str, module_by_name,
) -> None:
    symbols = graph.symbols
    if isinstance(callback, ast.Lambda):
        fid = f"{info.fid}.<lambda:{lineno}>"
        if fid not in symbols.functions:
            synthetic = FunctionInfo(
                fid=fid,
                module=info.module,
                qualname=f"{info.qualname}.<lambda:{lineno}>",
                relpath=info.relpath,
                lineno=callback.lineno,
                class_fqname=info.class_fqname,
                node=callback,
                suppressions=info.suppressions,
            )
            symbols.functions[fid] = synthetic
            _walk_function(graph, synthetic, module_by_name)
        graph.roots.setdefault(fid, f"{reason} lambda")
        graph.edges.append(Edge(info.fid, fid, lineno, "callback"))
        graph.out.setdefault(info.fid, set()).add(fid)
        return
    kind, payload = resolver.resolve_callable(callback)
    if kind == "functions":
        for target in payload:
            graph.roots.setdefault(target.fid, f"{reason} callback")
            graph.edges.append(Edge(info.fid, target.fid, lineno, "callback"))
            graph.out.setdefault(info.fid, set()).add(target.fid)
    elif kind == "unknown":
        graph.edges.append(Edge(info.fid, payload, lineno, "unknown"))


def _propagate_hot(graph: CallGraph) -> None:
    """Breadth-first hot propagation from the roots, shortest chain wins;
    ties break on sorted function id so the result is deterministic."""
    queue: list[str] = []
    for fid in sorted(graph.roots):
        if fid.startswith(_NEVER_HOT_PREFIXES):
            continue
        graph.hot[fid] = HotPath(root=fid, chain=(fid,))
        queue.append(fid)
    index = 0
    while index < len(queue):
        fid = queue[index]
        index += 1
        current = graph.hot[fid]
        for callee in sorted(graph.out.get(fid, ())):
            if callee in graph.hot or callee.startswith(_NEVER_HOT_PREFIXES):
                continue
            graph.hot[callee] = HotPath(
                root=current.root, chain=current.chain + (callee,)
            )
            queue.append(callee)


def analyze_modules(modules) -> ProjectAnalysis:
    """Symbol table + call graph + hot set for one set of modules."""
    modules = list(modules)
    symbols = build_symbol_table(modules)
    graph = build_call_graph(symbols, modules)
    return ProjectAnalysis(modules=modules, symbols=symbols, graph=graph)


def render_graph(project: ProjectAnalysis) -> str:
    """The ``repro lint --graph`` debug dump: roots, hot set, edges."""
    graph = project.graph
    lines: list[str] = []
    lines.append(f"# call graph: {len(project.symbols.functions)} functions, "
                 f"{len(graph.edges)} edges, {len(graph.roots)} roots, "
                 f"{len(graph.hot)} hot")
    for fid in sorted(graph.roots):
        lines.append(f"root {fid}  [{graph.roots[fid]}]")
    for fid in sorted(graph.hot):
        hot = graph.hot[fid]
        if hot.root != fid:
            lines.append(f"hot  {fid}  via {graph.describe_hot(fid)}")
    for edge in graph.edges:
        marker = {"call": "->", "callback": "=>", "unknown": "-?"}[edge.kind]
        lines.append(f"edge {edge.caller} {marker} {edge.callee}  "
                     f"(line {edge.lineno})")
    return "\n".join(lines)
