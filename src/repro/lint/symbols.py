"""Project-wide symbol table: every def, class, method, and import binding.

The per-module rules see one file at a time; the hot-path and
determinism rule families need to know *who calls whom* across the whole
tree. This module builds the name-resolution layer those rules stand on:

* every function and method, keyed by a stable function id
  (``"repro.net.nic:Nic._deliver"`` — module, colon, qualname);
* every class, with its methods, base-class names, and the inferred
  types of its ``self.*`` attributes (from annotations and from
  ``self.x = <typed param / constructor call>`` assignments in
  ``__init__``-style methods);
* per-module import bindings (``from repro.net.link import Link as L``
  binds ``L`` → ``repro.net.link.Link``), including relative imports;
* a methods-by-name index used as the class-hierarchy-analysis fallback
  when a receiver's type cannot be inferred.

Resolution is deliberately *static and deterministic*: the same tree
always produces the same table, and anything genuinely dynamic (a stored
callback, ``getattr``, a value threaded through an untyped container)
resolves to an ``unknown`` answer that the call graph records rather
than drops.

Per-function suppressions are parsed here too: a ``# lint:
hot-ok(rule-id, ...)`` comment on (or immediately above) a ``def`` line
marks that function's findings for the named rules as accepted debt.
Suppressed findings are still produced — counted, rendered, and visible
in ``--format json`` — they just stop failing the gate.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*hot-ok\(([^)]*)\)")

# Method names owned by builtins/stdlib containers: a dotted call ending
# in one of these is never resolved against project classes by the
# by-name fallback (``self.queue.append`` must not match a project
# class's unrelated ``append``).
_BUILTIN_METHOD_NAMES = frozenset(
    {
        "add", "append", "appendleft", "clear", "close", "copy", "count",
        "decode", "discard", "encode", "endswith", "extend", "flush",
        "format", "get", "index", "insert", "items", "join", "keys",
        "lower", "most_common", "pop", "popitem", "popleft", "read",
        "readline", "remove", "replace", "reverse", "rstrip", "setdefault",
        "sort", "split", "splitlines", "startswith", "strip", "update",
        "upper", "values", "write", "writelines",
    }
)


@dataclass(frozen=True)
class ImportEdge:
    """One top-level import: ``target`` is the dotted source the binding
    points at (module or symbol — consumers trim to a known module).
    ``type_only`` marks imports inside ``if TYPE_CHECKING:`` blocks:
    annotation-time dependencies that never execute at runtime."""

    target: str
    lineno: int
    type_only: bool = False


@dataclass(frozen=True)
class FunctionInfo:
    """One function, method, or scheduled lambda in the project."""

    fid: str  # "module:qualname", the call-graph node id
    module: str  # dotted module name
    qualname: str  # "Class.method", "outer.<locals>.inner", ...
    relpath: str  # posix path of the defining file
    lineno: int
    class_fqname: str | None  # enclosing class ("repro.net.nic.Nic")
    node: ast.AST = field(repr=False, compare=False)
    suppressions: frozenset[str] = frozenset()

    @property
    def short_name(self) -> str:
        """The qualname alone — what hot-path chains render."""
        return self.qualname


@dataclass
class ClassInfo:
    """One class definition and what the table knows about it."""

    fqname: str  # "repro.net.nic.Nic"
    module: str
    name: str
    base_names: tuple[str, ...]  # source-level dotted base expressions
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    # self.<attr> -> class fqname, inferred from annotations and typed
    # constructor assignments.
    attr_types: dict[str, str] = field(default_factory=dict)

    @property
    def is_protocol(self) -> bool:
        return any(base.split(".")[-1] == "Protocol" for base in self.base_names)

    @property
    def is_exception(self) -> bool:
        suffixes = ("Error", "Exception", "Warning")
        return self.name.endswith(suffixes) or any(
            base.split(".")[-1].endswith(suffixes) for base in self.base_names
        )


def dotted_text(node: ast.expr) -> str | None:
    """``a.b.c`` as a string, or None for anything not a plain name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def annotation_class_name(node: ast.expr) -> str | None:
    """The single concrete class named by an annotation, if any.

    ``Link`` and ``Link | None`` and ``Optional[Link]`` resolve to
    ``Link``; containers (``dict[str, Nic]``) and unions of two real
    classes resolve to None — the *receiver* of a method call on those
    is the container, not the element.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return dotted_text(node)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        names = [
            annotation_class_name(side) for side in (node.left, node.right)
        ]
        real = [n for n in names if n is not None and n != "None"]
        return real[0] if len(real) == 1 else None
    if isinstance(node, ast.Subscript):
        head = dotted_text(node.value)
        if head is not None and head.split(".")[-1] == "Optional":
            return annotation_class_name(node.slice)
    return None


def _suppressions_for(node: ast.AST, source_lines: list[str]) -> frozenset[str]:
    """Rule ids named by ``# lint: hot-ok(...)`` on or just above a def."""
    first = getattr(node, "lineno", 0)
    for decorator in getattr(node, "decorator_list", []):
        first = min(first, decorator.lineno)
    rule_ids: set[str] = set()
    for index in (getattr(node, "lineno", 0) - 1, first - 2):
        if 0 <= index < len(source_lines):
            for match in _SUPPRESS_RE.finditer(source_lines[index]):
                rule_ids.update(
                    part.strip() for part in match.group(1).split(",") if part.strip()
                )
    return frozenset(rule_ids)


def _direct_nested_defs(node: ast.AST) -> list[ast.AST]:
    """Named defs whose nearest enclosing function is ``node`` itself."""
    found: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(child)  # do not descend: grand-children register later
        elif not isinstance(child, (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(child))
    found.sort(key=lambda n: n.lineno)
    return found


def _is_type_checking_test(test: ast.expr) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` guards."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _import_source(module_name: str, node: ast.ImportFrom) -> str:
    """Absolute dotted source of a ``from X import ...`` (resolves dots)."""
    if node.level:
        base = module_name.split(".")
        parts = base[: len(base) - node.level]
        if node.module:
            parts = parts + [node.module]
        return ".".join(parts)
    return node.module or ""


class SymbolTable:
    """Name resolution over one set of parsed modules."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.module_functions: dict[str, dict[str, FunctionInfo]] = {}
        self.bindings: dict[str, dict[str, str]] = {}
        self.module_names: set[str] = set()
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        # fid -> {local def name: FunctionInfo} for nested functions.
        self.local_functions: dict[str, dict[str, FunctionInfo]] = {}
        # module -> its top-level import edges (the layering rule's input;
        # function-level lazy imports are deliberately absent).
        self.import_edges: dict[str, list[ImportEdge]] = {}

    # -- construction ------------------------------------------------------

    def add_module(self, module) -> None:
        """Index one :class:`repro.lint.engine.Module`."""
        self.module_names.add(module.name)
        bindings = self.bindings.setdefault(module.name, {})
        functions = self.module_functions.setdefault(module.name, {})
        self.import_edges.setdefault(module.name, [])
        source_lines = module.source.splitlines()
        self._collect_imports(module.name, module.tree.body, bindings)
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._register_function(
                    module, node, node.name, None, source_lines
                )
                functions[node.name] = info
            elif isinstance(node, ast.ClassDef):
                self._register_class(module, node, source_lines)

    def _collect_imports(
        self,
        module_name: str,
        body: list[ast.stmt],
        bindings: dict[str, str],
        type_only: bool = False,
    ) -> None:
        edges = self.import_edges.setdefault(module_name, [])
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bindings[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        bindings.setdefault(head, head)
                    edges.append(ImportEdge(alias.name, node.lineno, type_only))
            elif isinstance(node, ast.ImportFrom):
                source = _import_source(module_name, node)
                for alias in node.names:
                    if alias.name == "*":
                        if source:
                            edges.append(
                                ImportEdge(source, node.lineno, type_only)
                            )
                        continue
                    local = alias.asname or alias.name
                    bindings[local] = f"{source}.{alias.name}" if source else alias.name
                    edges.append(
                        ImportEdge(bindings[local], node.lineno, type_only)
                    )
            elif isinstance(node, ast.If):
                guarded = type_only or _is_type_checking_test(node.test)
                self._collect_imports(module_name, node.body, bindings, guarded)
                self._collect_imports(module_name, node.orelse, bindings, type_only)
            elif isinstance(node, ast.Try):
                for block in (node.body, node.orelse, node.finalbody):
                    self._collect_imports(module_name, block, bindings, type_only)
                for handler in node.handlers:
                    self._collect_imports(
                        module_name, handler.body, bindings, type_only
                    )

    def _register_function(
        self,
        module,
        node: ast.AST,
        qualname: str,
        class_fqname: str | None,
        source_lines: list[str],
    ) -> FunctionInfo:
        info = FunctionInfo(
            fid=f"{module.name}:{qualname}",
            module=module.name,
            qualname=qualname,
            relpath=module.relpath,
            lineno=node.lineno,
            class_fqname=class_fqname,
            node=node,
            suppressions=_suppressions_for(node, source_lines),
        )
        self.functions[info.fid] = info
        # Nested named defs are their own graph nodes, resolvable by name
        # from inside the enclosing function.
        for child in _direct_nested_defs(node):
            nested = self._register_function(
                module,
                child,
                f"{qualname}.<locals>.{child.name}",
                class_fqname,
                source_lines,
            )
            self.local_functions.setdefault(info.fid, {})[child.name] = nested
        return info

    def _register_class(self, module, node: ast.ClassDef, source_lines) -> None:
        fqname = f"{module.name}.{node.name}"
        bases = tuple(
            text
            for text in (dotted_text(base) for base in node.bases)
            if text is not None
        )
        cls = ClassInfo(
            fqname=fqname,
            module=module.name,
            name=node.name,
            base_names=bases,
        )
        self.classes[fqname] = cls
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._register_function(
                    module, item, f"{node.name}.{item.name}", fqname, source_lines
                )
                cls.methods[item.name] = info
                self.methods_by_name.setdefault(item.name, []).append(info)
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                # Dataclass-style field annotation.
                self._note_attr_type(cls, item.target.id, item.annotation)
        for method in cls.methods.values():
            self._infer_self_attr_types(cls, method)

    def _note_attr_type(self, cls: ClassInfo, attr: str, annotation) -> None:
        name = annotation_class_name(annotation)
        if name is None:
            return
        resolved = self.resolve_class_name(cls.module, name)
        if resolved is not None:
            cls.attr_types.setdefault(attr, resolved)

    def _infer_self_attr_types(self, cls: ClassInfo, method: FunctionInfo) -> None:
        """Learn ``self.x`` types from annotations and typed assignments."""
        node = method.node
        args = node.args
        param_types: dict[str, str] = {}
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                name = annotation_class_name(arg.annotation)
                if name is not None:
                    resolved = self.resolve_class_name(cls.module, name)
                    if resolved is not None:
                        param_types[arg.arg] = resolved
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self._note_attr_type(cls, target.attr, stmt.annotation)
                continue
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target, value = stmt.targets[0], stmt.value
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if isinstance(value, ast.Name) and value.id in param_types:
                cls.attr_types.setdefault(target.attr, param_types[value.id])
            elif isinstance(value, ast.Call):
                resolved = self.resolve_value_class(cls.module, value.func)
                if resolved is not None:
                    cls.attr_types.setdefault(target.attr, resolved.fqname)

    # -- resolution --------------------------------------------------------

    def resolve_class_name(self, module_name: str, dotted: str) -> str | None:
        """Fully-qualified class name for ``dotted`` seen from ``module_name``."""
        parts = dotted.split(".")
        bound = self.bindings.get(module_name, {}).get(parts[0])
        candidates = []
        if bound is not None:
            candidates.append(".".join([bound] + parts[1:]))
        candidates.append(f"{module_name}.{dotted}")
        for candidate in candidates:
            if candidate in self.classes:
                return candidate
        return None

    def resolve_value_class(self, module_name: str, func: ast.expr) -> ClassInfo | None:
        """The class a constructor-call expression instantiates, if known."""
        dotted = dotted_text(func)
        if dotted is None:
            return None
        fqname = self.resolve_class_name(module_name, dotted)
        return self.classes.get(fqname) if fqname else None

    def function_at(self, dotted: str) -> FunctionInfo | None:
        """A function by absolute dotted path (``repro.net.link.fiber_link``)."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module_name = ".".join(parts[:split])
            if module_name in self.module_names:
                qualname = ".".join(parts[split:])
                return self.functions.get(f"{module_name}:{qualname}")
        return None

    def class_method(
        self, cls: ClassInfo, name: str, _seen: set | None = None
    ) -> FunctionInfo | None:
        """Method lookup through the (project-resolvable) base classes."""
        seen = _seen if _seen is not None else set()
        if cls.fqname in seen:
            return None
        seen.add(cls.fqname)
        if name in cls.methods:
            return cls.methods[name]
        for base_name in cls.base_names:
            base_fq = self.resolve_class_name(cls.module, base_name)
            base = self.classes.get(base_fq) if base_fq else None
            if base is not None:
                found = self.class_method(base, name, seen)
                if found is not None:
                    return found
        return None

    def methods_named(self, name: str) -> list[FunctionInfo]:
        """Every project method with this name (the CHA fallback), or []
        when the name belongs to builtins."""
        if name in _BUILTIN_METHOD_NAMES:
            return []
        return self.methods_by_name.get(name, [])


def build_symbol_table(modules) -> SymbolTable:
    """Index every module; input order does not affect the result."""
    table = SymbolTable()
    for module in sorted(modules, key=lambda m: m.relpath):
        table.add_module(module)
    for infos in table.methods_by_name.values():
        infos.sort(key=lambda info: info.fid)
    return table
