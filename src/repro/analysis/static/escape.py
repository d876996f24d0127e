"""Shared-state escape analysis.

"Shared" used to be a name list (``x``, ``r``, ``x_true`` in RPR001);
here it is *computed*: an array is shared when it is created in a
function's setup and **flows into a worker closure** that the function
hands off as a value — ``threading.Thread(target=worker)`` in
``run_threaded``, an executor ``submit``, a callback registration.
Once a closure escapes, every array free in it is concurrently
reachable, and the lockset analysis holds raw writes to those arrays
(and to anything they are passed to) to the write-policy contract.

Detection, per function ``F``:

1. **array-valued locals** — names assigned from a NumPy constructor
   (``np.zeros(n)``, ``np.array(x0)``...), from ``<expr>.copy()``, or
   from an expression containing a matrix product (``b - A @ x``);
   single-step copy propagation covers ``y = x`` chains;
2. **escaping closures** — nested ``def``s whose *name is referenced
   as a value* in ``F``'s own body (an argument, a keyword like
   ``target=``, a container element, an assignment RHS) rather than
   only called;
3. ``shared(F)`` = array locals of ``F`` that occur free in at least
   one escaping closure.  The same set is attributed to each escaping
   closure (they all race on it).

``global``/``nonlocal`` declarations are honored when computing a
closure's free names.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set

from .callgraph import CallGraph, FunctionInfo, walk_own

__all__ = ["EscapeInfo", "analyze_escapes", "array_locals", "escaping_closures"]

#: NumPy array-constructor names (terminal attribute of the call)
_ARRAY_CTORS = frozenset(
    {
        "zeros",
        "empty",
        "ones",
        "full",
        "array",
        "asarray",
        "arange",
        "linspace",
        "copy",
        "zeros_like",
        "empty_like",
        "ones_like",
        "full_like",
    }
)


@dataclass
class EscapeInfo:
    """Escape facts of one setup function."""

    func: str
    shared: Dict[str, int] = field(default_factory=dict)
    """shared array name -> creation line"""
    escaping_closures: List[str] = field(default_factory=list)
    """qualnames of closures handed off as values"""


def _is_array_expr(expr: ast.expr, known_arrays: Set[str]) -> bool:
    """Heuristic: does ``expr`` produce a NumPy array?"""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr in _ARRAY_CTORS:
                return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            return True
        if isinstance(node, ast.Name) and node.id in known_arrays:
            if isinstance(expr, (ast.Name, ast.BinOp, ast.IfExp)):
                return True
    return False


def array_locals(info: FunctionInfo) -> Dict[str, int]:
    """Names of array-valued locals of ``info`` (created in its own
    body) -> first creation line."""
    created: Dict[str, int] = {}
    # Two passes so `y = x` after `x = np.zeros(n)` is picked up.
    for _ in range(2):
        for node in walk_own(info.node):
            if not isinstance(node, ast.Assign):
                continue
            if not _is_array_expr(node.value, set(created)):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    created.setdefault(target.id, node.lineno)
    return created


def _bound_names(fn: ast.AST) -> Set[str]:
    """Names bound inside a function (params, assignments, loop
    targets, with-as, imports), minus nonlocal/global declarations."""
    bound: Set[str] = set()
    free_decl: Set[str] = set()
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = fn.args
        bound.update(a.arg for a in getattr(args, "posonlyargs", []))
        bound.update(a.arg for a in args.args)
        bound.update(a.arg for a in args.kwonlyargs)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    for node in walk_own(fn):
        if isinstance(node, (ast.Nonlocal, ast.Global)):
            free_decl.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    return bound - free_decl


def _nested_def_names(fn: ast.AST) -> Set[str]:
    names: Set[str] = set()
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(cur.name)
            continue
        if isinstance(cur, ast.ClassDef):
            names.add(cur.name)
            continue
        stack.extend(ast.iter_child_nodes(cur))
    return names


def free_names(fn: ast.AST) -> FrozenSet[str]:
    """Names read inside ``fn`` (including inside its own nested defs)
    that are not bound locally — the closure's free variables."""
    bound = _bound_names(fn) | _nested_def_names(fn)
    used: Set[str] = set()
    body = fn.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) else []
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
    return frozenset(used - bound)


def escaping_closures(cg: CallGraph, info: FunctionInfo) -> List[FunctionInfo]:
    """Nested functions of ``info`` whose names are used as *values*
    (not just called) in ``info``'s own body."""
    nested = {
        f.name: f
        for f in cg.functions.values()
        if f.parent == info.qualname
    }
    if not nested:
        return []
    escaped: Dict[str, FunctionInfo] = {}
    # Parent links let us skip Name nodes that are a call's callee.
    parents: Dict[ast.AST, ast.AST] = {}
    for node in walk_own(info.node):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in walk_own(info.node):
        if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
            continue
        if node.id not in nested:
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.Call) and parent.func is node:
            continue  # direct call, not a hand-off
        escaped[node.id] = nested[node.id]
    return list(escaped.values())


def analyze_escapes(cg: CallGraph) -> Dict[str, EscapeInfo]:
    """Escape facts for every function that hands off a closure.

    Returns a map whose keys include both the creator function and each
    escaping closure (both "see" the shared arrays)."""
    out: Dict[str, EscapeInfo] = {}
    for info in cg.functions.values():
        closures = escaping_closures(cg, info)
        if not closures:
            continue
        arrays = array_locals(info)
        if not arrays:
            continue
        shared: Dict[str, int] = {}
        for closure in closures:
            for name in free_names(closure.node):
                if name in arrays:
                    shared[name] = arrays[name]
        if not shared:
            continue
        entry = out.setdefault(info.qualname, EscapeInfo(func=info.qualname))
        entry.shared.update(shared)
        for closure in closures:
            entry.escaping_closures.append(closure.qualname)
            closure_entry = out.setdefault(
                closure.qualname, EscapeInfo(func=closure.qualname)
            )
            closure_entry.shared.update(shared)
    return out
