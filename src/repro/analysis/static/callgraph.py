"""Project call graph with alias-aware resolution.

Builds, from a :class:`~repro.analysis.project.ProjectIndex`, a graph
of every function/method in the project and the calls between them.
Resolution covers the shapes that actually occur in ``src/repro``:

- **module-level calls** — ``two_norm(x)`` where ``two_norm`` was
  imported via ``from ..linalg import two_norm`` (relative imports are
  resolved against the module's dotted path, and re-export chains
  through ``__init__`` modules are followed);
- **module-attribute calls** — ``kernels.range_matvec(...)`` where
  ``kernels`` is a project module imported as an alias;
- **``self.`` method calls** — resolved against the enclosing class,
  then its project-local base classes (single level chains are walked
  by name through the import table);
- **nested functions** — ``worker()`` inside ``run_threaded`` resolves
  to the closure, which is what lets the lockset analysis follow a
  helper call out of a thread body.

Calls whose receiver cannot be typed statically (``xpol.add(...)``)
are kept as unresolved :class:`CallSite` records — downstream passes
apply their own policy (the lockset analysis, for instance, treats
``.add``/``.assign_slice`` on a write-policy variable as a *covered*
write rather than guessing an implementation).

Qualified names are ``module:Class.method`` / ``module:func`` /
``module:outer.inner`` (nested functions use the lexical chain).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..project import ParsedModule, ProjectIndex

__all__ = ["FunctionInfo", "ClassInfo", "CallSite", "CallGraph", "build_callgraph"]

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One function, method, or nested closure in the project."""

    qualname: str
    module: str
    relpath: str
    node: FuncNode
    class_name: Optional[str] = None
    parent: Optional[str] = None
    """Qualname of the lexically enclosing function, if nested."""
    params: List[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    qualname: str
    module: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)
    """method name -> function qualname"""
    base_names: List[str] = field(default_factory=list)
    """syntactic base-class names, resolved lazily through imports"""


@dataclass
class CallSite:
    """One call expression inside a function."""

    node: ast.Call
    callees: List[str]
    """Resolved callee qualnames (empty when unresolvable)."""
    kind: str
    """'name' | 'self' | 'module' | 'method'"""
    receiver: Optional[str] = None
    """Receiver identifier for attribute calls (``xpol`` in
    ``xpol.add(...)``), used by duck-typed downstream policies."""
    attr: Optional[str] = None
    """Attribute name for attribute calls."""


@dataclass
class CallGraph:
    index: ProjectIndex
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    calls: Dict[str, List[CallSite]] = field(default_factory=dict)
    callers: Dict[str, List[Tuple[str, CallSite]]] = field(default_factory=dict)
    imports: Dict[str, Dict[str, str]] = field(default_factory=dict)
    """module name -> {local alias: 'target.module' or 'target.module:name'}"""

    def callees_of(self, qualname: str) -> List[CallSite]:
        return self.calls.get(qualname, [])

    def callers_of(self, qualname: str) -> List[Tuple[str, CallSite]]:
        return self.callers.get(qualname, [])

    def resolve_class(self, module: str, name: str) -> Optional[ClassInfo]:
        """Resolve a class name as seen from ``module`` (local class or
        imported project class)."""
        ci = self.classes.get(f"{module}:{name}")
        if ci is not None:
            return ci
        target = self.imports.get(module, {}).get(name)
        if target and ":" in target:
            tmod, tname = target.split(":", 1)
            return self.classes.get(f"{tmod}:{tname}")
        return None

    def method_in_class(self, ci: ClassInfo, method: str) -> Optional[str]:
        """Find ``method`` on ``ci`` or its project-local bases."""
        seen = set()
        stack = [ci]
        while stack:
            cur = stack.pop()
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            if method in cur.methods:
                return cur.methods[method]
            for base in cur.base_names:
                base_ci = self.resolve_class(cur.module, base)
                if base_ci is not None:
                    stack.append(base_ci)
        return None


def _parent_package(module: str, level: int) -> str:
    """Package obtained by going ``level`` dots up from ``module``
    (PEP 328 relative-import semantics for plain modules)."""
    parts = module.split(".") if module else []
    # level=1 is the module's own package.
    drop = level
    if drop > len(parts):
        return ""
    return ".".join(parts[: len(parts) - drop])


def _collect_imports(mod: ParsedModule, index: ProjectIndex) -> Dict[str, str]:
    """Local alias -> project target ('mod' or 'mod:name'); names from
    outside the indexed root (numpy, threading, ...) are skipped."""
    table: Dict[str, str] = {}
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = alias.name
                local = alias.asname or alias.name.split(".")[0]
                if index.resolve_module(target) is not None:
                    table[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # PEP 328: level 1 anchors at the containing package —
                # which is the module itself when it *is* a package
                # (__init__.py), its parent otherwise.
                is_pkg = (
                    mod.relpath.replace("\\", "/").endswith("__init__.py")
                    or mod.module == ""
                )
                anchor = mod.module if is_pkg else _parent_package(mod.module, 1)
                base = _parent_package(anchor, node.level - 1)
                src = f"{base}.{node.module}" if node.module and base else (
                    node.module or base
                )
            else:
                src = node.module or ""
            if index.resolve_module(src) is None:
                # `from . import kernels` — the *name* may be a module.
                for alias in node.names:
                    cand = f"{src}.{alias.name}" if src else alias.name
                    if index.resolve_module(cand) is not None:
                        table[alias.asname or alias.name] = cand
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                cand = f"{src}.{alias.name}" if src else alias.name
                if index.resolve_module(cand) is not None:
                    table[local] = cand
                else:
                    table[local] = f"{src}:{alias.name}"
    return table


def _follow_reexports(cg: CallGraph, target: str, depth: int = 0) -> str:
    """Follow ``pkg:name`` through ``__init__`` re-export chains to the
    defining module."""
    if depth > 8 or ":" not in target:
        return target
    mod, name = target.split(":", 1)
    if f"{mod}:{name}" in cg.functions or f"{mod}:{name}" in cg.classes:
        return target
    nxt = cg.imports.get(mod, {}).get(name)
    if nxt is None:
        return target
    if ":" not in nxt:
        # alias of a whole module — not a function target
        return target
    return _follow_reexports(cg, nxt, depth + 1)


class _Collector(ast.NodeVisitor):
    """Collect functions/classes of one module with lexical context."""

    def __init__(self, cg: CallGraph, mod: ParsedModule) -> None:
        self.cg = cg
        self.mod = mod
        self.class_stack: List[ClassInfo] = []
        self.func_stack: List[str] = []

    def _qual(self, name: str) -> str:
        if self.func_stack:
            return f"{self.func_stack[-1]}.{name}"
        if self.class_stack:
            return f"{self.mod.module}:{self.class_stack[-1].node.name}.{name}"
        return f"{self.mod.module}:{name}"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = f"{self.mod.module}:{node.name}"
        ci = ClassInfo(
            qualname=qual,
            module=self.mod.module,
            node=node,
            base_names=[b.id for b in node.bases if isinstance(b, ast.Name)]
            + [b.attr for b in node.bases if isinstance(b, ast.Attribute)],
        )
        self.cg.classes[qual] = ci
        self.class_stack.append(ci)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_func(self, node: FuncNode) -> None:
        qual = self._qual(node.name)
        args = node.args
        params = (
            [a.arg for a in getattr(args, "posonlyargs", [])]
            + [a.arg for a in args.args]
            + ([args.vararg.arg] if args.vararg else [])
            + [a.arg for a in args.kwonlyargs]
            + ([args.kwarg.arg] if args.kwarg else [])
        )
        info = FunctionInfo(
            qualname=qual,
            module=self.mod.module,
            relpath=self.mod.relpath,
            node=node,
            class_name=(
                self.class_stack[-1].node.name
                if self.class_stack and not self.func_stack
                else None
            ),
            parent=self.func_stack[-1] if self.func_stack else None,
            params=params,
        )
        self.cg.functions[qual] = info
        if info.class_name is not None:
            self.class_stack[-1].methods[node.name] = qual
        self.func_stack.append(qual)
        self.generic_visit(node)
        self.func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node)


def _resolve_call(
    cg: CallGraph, info: FunctionInfo, call: ast.Call
) -> CallSite:
    fn = call.func
    module = info.module
    imports = cg.imports.get(module, {})
    if isinstance(fn, ast.Name):
        name = fn.id
        # 1. nested function / sibling closure in the lexical chain
        scope: Optional[str] = info.qualname
        while scope is not None:
            cand = f"{scope}.{name}"
            if cand in cg.functions:
                return CallSite(call, [cand], "name")
            parent_info = cg.functions.get(scope)
            scope = parent_info.parent if parent_info is not None else None
        # 2. module-level function in this module
        cand = f"{module}:{name}"
        if cand in cg.functions:
            return CallSite(call, [cand], "name")
        # 2b. class constructor in this module / imported
        ci = cg.resolve_class(module, name)
        if ci is not None:
            init = cg.method_in_class(ci, "__init__")
            return CallSite(call, [init] if init else [], "name")
        # 3. imported name
        target = imports.get(name)
        if target is not None and ":" in target:
            target = _follow_reexports(cg, target)
            if target in cg.functions:
                return CallSite(call, [target], "name")
        return CallSite(call, [], "name")
    if isinstance(fn, ast.Attribute):
        attr = fn.attr
        recv = fn.value
        if isinstance(recv, ast.Name):
            if recv.id == "self" and info.class_name is not None:
                ci = cg.classes.get(f"{module}:{info.class_name}")
                if ci is not None:
                    target2 = cg.method_in_class(ci, attr)
                    if target2 is not None:
                        return CallSite(call, [target2], "self", receiver="self", attr=attr)
                return CallSite(call, [], "self", receiver="self", attr=attr)
            # module alias: kernels.range_matvec(...)
            target3 = imports.get(recv.id)
            if target3 is not None and ":" not in target3:
                cand = _follow_reexports(cg, f"{target3}:{attr}")
                if cand in cg.functions:
                    return CallSite(call, [cand], "module", receiver=recv.id, attr=attr)
                return CallSite(call, [], "module", receiver=recv.id, attr=attr)
            return CallSite(call, [], "method", receiver=recv.id, attr=attr)
        return CallSite(call, [], "method", receiver=None, attr=attr)
    return CallSite(call, [], "method")


def walk_own(node: ast.AST) -> List[ast.AST]:
    """Every AST node lexically inside ``node`` but *outside* nested
    function/class definitions (those are their own graph nodes)."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        out.append(cur)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def own_calls(info: FunctionInfo) -> List[ast.Call]:
    """Every call expression lexically inside ``info`` but outside its
    nested functions."""
    return [n for n in walk_own(info.node) if isinstance(n, ast.Call)]


def build_callgraph(index: ProjectIndex) -> CallGraph:
    """Index every function and resolve every call site, once."""
    cg = CallGraph(index=index)
    for mod in index:
        cg.imports[mod.module] = {}
    for mod in index:
        _Collector(cg, mod).visit(mod.tree)
    for mod in index:
        cg.imports[mod.module] = _collect_imports(mod, index)
    for info in cg.functions.values():
        sites: List[CallSite] = []
        for call in own_calls(info):
            sites.append(_resolve_call(cg, info, call))
        cg.calls[info.qualname] = sites
        for site in sites:
            for callee in site.callees:
                cg.callers.setdefault(callee, []).append((info.qualname, site))
    return cg
