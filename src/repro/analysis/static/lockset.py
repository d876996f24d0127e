"""Interprocedural lockset analysis (Eraser / RacerD style).

Two questions are answered statically, over the whole project:

**RPR009 — is every shared-array write protected?**  A *raw* write
(``x += e``, ``r[lo:hi] = v``) to a shared array must happen with a
non-empty **must-hold lockset**, or go through a write policy
(``xpol.add(x, e)`` — the policy owns the synchronization).  "Shared"
is computed by the escape analysis (arrays flowing into handed-off
worker closures) and propagated through call-site argument bindings:
a helper that receives the shared iterate and writes it raw is flagged
even though the helper itself never spawned a thread.

**RPR010 — are locks acquired in one global order?**  Every
acquisition observed while other locks are (must-)held contributes an
edge ``held -> acquired`` to a project-wide lock-order graph; a cycle
means two code paths disagree about the order (the classic AB/BA
deadlock), and an acquisition from a striped collection while a
*caller* already holds a stripe of the same collection breaks
``AtomicWrite``'s ascending-sweep argument across function boundaries
(the per-function case is RPR002's).

Mechanics
---------
Per function, a forward **must** dataflow (:class:`LockHeld`, solved by
the worklist engine over the lowered CFG) tracks the set of held lock
tokens through ``with`` regions and ``.acquire()``/``.release()``
pairs, honoring aliases like ``lock = self._locks[s]``.  Tokens are
canonicalized against the lexical scope chain (``module:Class.attr``,
``module:func.name``) so the same lock object names the same token in
every function that touches it.  Summaries (raw-write sites, acquire
sites, call sites — each with its local lockset) are then propagated
over the call graph:

- *context locksets* (must): the locks every caller provably holds
  around a call, intersected over all call sites — seeded empty at
  escape roots (a spawned thread holds nothing);
- *shared-ness* (may): unioned along argument bindings.

A write is reported when ``context ∪ local`` is empty; order edges use
``context ∪ local`` as the held side.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from .callgraph import CallGraph, CallSite, FunctionInfo, walk_own
from .cfg import RegionEnter, RegionExit, Stmt, build_cfg
from .dataflow import TOP, Analysis, MustSet, _Top, must_discard, must_join, must_union, solve
from .escape import EscapeInfo, _bound_names, analyze_escapes

__all__ = [
    "LockToken",
    "WriteSite",
    "AcquireSite",
    "FunctionSummary",
    "SiteReport",
    "LocksetReport",
    "summarize_function",
    "analyze_locksets",
]

#: methods that delegate a shared write to a WritePolicy
_POLICY_WRITE_METHODS = frozenset({"add", "assign_slice"})
#: call that constructs a policy
_POLICY_FACTORY = "make_write_policy"


@dataclass(frozen=True)
class LockToken:
    """Canonical identity of one lock (or one stripe collection slot)."""

    key: str
    collection: Optional[str] = None
    display: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Lock({self.display or self.key})"


@dataclass
class WriteSite:
    """One raw mutation of a name-based target."""

    func: str
    node: ast.stmt
    target: str
    held: MustSet


@dataclass
class AcquireSite:
    """One lock acquisition (with-entry or ``.acquire()``)."""

    func: str
    node: Union[ast.stmt, RegionEnter]
    token: LockToken
    held: MustSet
    lineno: int


@dataclass
class CallRecord:
    """One resolved call with the lockset held around it."""

    func: str
    site: CallSite
    callee: str
    held: MustSet
    argmap: Dict[str, str] = field(default_factory=dict)
    """callee param name -> caller argument name (Name args only)"""


@dataclass
class FunctionSummary:
    info: FunctionInfo
    writes: List[WriteSite] = field(default_factory=list)
    acquires: List[AcquireSite] = field(default_factory=list)
    calls: List[CallRecord] = field(default_factory=list)
    covered_targets: Set[str] = field(default_factory=set)
    """names written *through a policy* in this function"""
    policy_vars: Set[str] = field(default_factory=set)


@dataclass
class SiteReport:
    """One finding-shaped fact (the rules wrap these into Findings)."""

    relpath: str
    node: Union[ast.stmt, RegionEnter]
    lineno: int
    col: int
    message: str
    func: str


@dataclass
class LocksetReport:
    races: List[SiteReport] = field(default_factory=list)
    order_violations: List[SiteReport] = field(default_factory=list)
    shared: Dict[str, Set[str]] = field(default_factory=dict)
    """function qualname -> shared names seen there"""
    contexts: Dict[str, MustSet] = field(default_factory=dict)
    summaries: Dict[str, FunctionSummary] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Token canonicalization
# ----------------------------------------------------------------------


def _lockish_name(name: str) -> bool:
    low = name.lower()
    return "lock" in low and "block" not in low


class _Scope:
    """Resolves where a bare name is bound, walking the lexical chain."""

    def __init__(self, cg: CallGraph, info: FunctionInfo) -> None:
        self.cg = cg
        self.info = info
        self._locals: Dict[str, Set[str]] = {}

    def _local_names(self, qual: str) -> Set[str]:
        if qual not in self._locals:
            fn = self.cg.functions.get(qual)
            self._locals[qual] = _bound_names(fn.node) if fn is not None else set()
        return self._locals[qual]

    def owner_of(self, name: str) -> str:
        qual: Optional[str] = self.info.qualname
        while qual is not None:
            if name in self._local_names(qual):
                return qual
            fn = self.cg.functions.get(qual)
            qual = fn.parent if fn is not None else None
        return f"{self.info.module}:"  # module-global


def _canon_expr(expr: ast.expr, scope: _Scope, info: FunctionInfo) -> Optional[str]:
    """Canonical string for a lock-bearing expression, or None."""
    if isinstance(expr, ast.Name):
        return f"{scope.owner_of(expr.id)}.{expr.id}"
    if isinstance(expr, ast.Attribute):
        base = expr.value
        if isinstance(base, ast.Name) and base.id == "self" and info.class_name:
            return f"{info.module}:{info.class_name}.{expr.attr}"
        inner = _canon_expr(base, scope, info)
        if inner is None:
            return None
        return f"{inner}.{expr.attr}"
    if isinstance(expr, ast.Subscript):
        return _canon_expr(expr.value, scope, info)
    if isinstance(expr, ast.Call):
        # `with threading.Lock():` — a per-site anonymous lock.
        return f"{info.qualname}.<anon@{getattr(expr, 'lineno', 0)}>"
    return None


def _terminal_name(expr: ast.expr) -> str:
    node: ast.expr = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Attribute):
            return fn.attr
        if isinstance(fn, ast.Name):
            return fn.id
    return ""


def _subscript_index_repr(expr: ast.expr) -> str:
    if isinstance(expr, ast.Subscript):
        idx = expr.slice
        if isinstance(idx, ast.Constant):
            return repr(idx.value)
        return "*"
    return ""


def lock_token(
    expr: ast.expr,
    scope: _Scope,
    info: FunctionInfo,
    aliases: Dict[str, ast.expr],
    _depth: int = 0,
) -> Optional[LockToken]:
    """Token for ``expr`` when it denotes a lock, else None."""
    if _depth > 4:
        return None
    # Alias chase: `lock = self._locks[s]` makes `lock` a lock name.
    if isinstance(expr, ast.Name) and expr.id in aliases:
        return lock_token(aliases[expr.id], scope, info, aliases, _depth + 1)
    name = _terminal_name(expr)
    is_ctor = False
    if isinstance(expr, ast.Call):
        fn = expr.func
        ctor = fn.attr if isinstance(fn, ast.Attribute) else (
            fn.id if isinstance(fn, ast.Name) else ""
        )
        is_ctor = ctor in {"Lock", "RLock", "Semaphore", "BoundedSemaphore"}
    if not is_ctor and not _lockish_name(name):
        return None
    canon = _canon_expr(expr, scope, info)
    if canon is None:
        return None
    if isinstance(expr, ast.Subscript):
        idx = _subscript_index_repr(expr)
        return LockToken(
            key=f"{canon}[{idx}]",
            collection=canon,
            display=f"{name}[{idx}]",
        )
    return LockToken(key=canon, collection=None, display=name)


# ----------------------------------------------------------------------
# Per-function must-lockset dataflow
# ----------------------------------------------------------------------


class LockHeld(Analysis[MustSet]):
    """Forward must-analysis: locks held on every path to a point."""

    def __init__(
        self,
        scope: _Scope,
        info: FunctionInfo,
        aliases: Dict[str, ast.expr],
    ) -> None:
        self.scope = scope
        self.info = info
        self.aliases = aliases

    def boundary(self) -> MustSet:
        return frozenset()

    def init(self) -> MustSet:
        return TOP

    def join(self, a: MustSet, b: MustSet) -> MustSet:
        return must_join(a, b)

    def eq(self, a: MustSet, b: MustSet) -> bool:
        if isinstance(a, _Top) or isinstance(b, _Top):
            return isinstance(a, _Top) and isinstance(b, _Top)
        return a == b

    def _token_of(self, expr: ast.expr) -> Optional[LockToken]:
        return lock_token(expr, self.scope, self.info, self.aliases)

    def transfer(self, stmt: Stmt, value: MustSet) -> MustSet:
        if isinstance(stmt, RegionEnter):
            token = self._token_of(stmt.item.context_expr)
            if token is not None:
                return must_union(value, frozenset({token}))
            return value
        if isinstance(stmt, RegionExit):
            token = self._token_of(stmt.item.context_expr)
            if token is not None:
                return must_discard(value, frozenset({token}))
            return value
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            fn = stmt.value.func
            if isinstance(fn, ast.Attribute) and fn.attr in ("acquire", "release"):
                token = self._token_of(fn.value)
                if token is not None:
                    if fn.attr == "acquire":
                        return must_union(value, frozenset({token}))
                    return must_discard(value, frozenset({token}))
        return value


def _concrete(held: MustSet) -> FrozenSet[LockToken]:
    if isinstance(held, _Top):
        return frozenset()
    return frozenset(t for t in held if isinstance(t, LockToken))


def _must_eq(a: MustSet, b: MustSet) -> bool:
    if isinstance(a, _Top) or isinstance(b, _Top):
        return isinstance(a, _Top) and isinstance(b, _Top)
    return a == b


def _stmt_call_roots(stmt: Stmt) -> List[ast.AST]:
    """Sub-expressions of ``stmt`` evaluated *at this program point*.

    Compound headers only evaluate their test/iterator here — their
    bodies live in other blocks — and nested ``def`` bodies belong to
    the nested function's own summary."""
    if isinstance(stmt, (RegionEnter, RegionExit)):
        return []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(
        stmt,
        (ast.Try, ast.With, ast.AsyncWith, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
    ):
        return []
    return [stmt]


def _calls_at(stmt: Stmt) -> List[ast.Call]:
    out: List[ast.Call] = []
    stack: List[ast.AST] = list(_stmt_call_roots(stmt))
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(cur, ast.Call):
            out.append(cur)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def _lock_aliases(
    info: FunctionInfo, scope: _Scope
) -> Dict[str, ast.expr]:
    """Syntactic alias map: local name -> lock expression it was
    assigned from (``lock = self._locks[s]``)."""
    aliases: Dict[str, ast.expr] = {}
    for node in walk_own(info.node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        term = _terminal_name(node.value)
        if _lockish_name(term) and not isinstance(node.value, ast.Call):
            aliases[target.id] = node.value
    return aliases


def _policy_vars(info: FunctionInfo) -> Set[str]:
    """Names bound to WritePolicy objects in ``info``: the factory
    result, anything wrapping a policy var, and policy-annotated
    parameters."""
    pols: Set[str] = set()
    node = info.node
    for arg in list(node.args.args) + list(node.args.kwonlyargs):
        ann = arg.annotation
        if ann is not None:
            text = ast.dump(ann)
            if "Policy" in text:
                pols.add(arg.arg)
    for _ in range(3):  # wrap chains: pol2 = wrap(pol)
        for stmt in walk_own(node):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            callee = _terminal_name(value.func)
            arg_names = {
                a.id for a in value.args if isinstance(a, ast.Name)
            } | {
                kw.value.id
                for kw in value.keywords
                if isinstance(kw.value, ast.Name)
            }
            if callee == _POLICY_FACTORY or (arg_names & pols):
                pols.add(target.id)
    return pols


def _base_name(target: ast.AST) -> str:
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _bind_args(
    cg: CallGraph, callee: str, call: ast.Call
) -> Dict[str, str]:
    """Map callee parameter names to caller argument *names* (only
    plain-Name arguments participate in shared-ness propagation)."""
    info = cg.functions.get(callee)
    if info is None:
        return {}
    params = list(info.params)
    if info.class_name is not None and params and params[0] in ("self", "cls"):
        params = params[1:]
    out: Dict[str, str] = {}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Name) and i < len(params):
            out[params[i]] = arg.id
    for kw in call.keywords:
        if kw.arg is not None and isinstance(kw.value, ast.Name) and kw.arg in info.params:
            out[kw.arg] = kw.value.id
    return out


def summarize_function(cg: CallGraph, info: FunctionInfo) -> FunctionSummary:
    """CFG + must-lockset pass over one function, collecting its
    write/acquire/call sites with their local locksets."""
    summary = FunctionSummary(info=info)
    scope = _Scope(cg, info)
    aliases = _lock_aliases(info, scope)
    summary.policy_vars = _policy_vars(info)
    analysis = LockHeld(scope, info, aliases)
    try:
        cfg = build_cfg(info.node)
        result = solve(cfg, analysis)
        stream = list(result.stmt_values())
    except (RecursionError, RuntimeError):  # pragma: no cover - defensive
        return summary

    # Call-site index so the dataflow value at the statement carrying a
    # call is attached to the resolved CallSite record.
    call_by_node: Dict[ast.Call, CallSite] = {
        site.node: site for site in cg.callees_of(info.qualname)
    }

    for _bid, stmt, held in stream:
        if isinstance(stmt, RegionEnter):
            token = lock_token(stmt.item.context_expr, scope, info, aliases)
            if token is not None:
                summary.acquires.append(
                    AcquireSite(
                        func=info.qualname,
                        node=stmt,
                        token=token,
                        held=held,
                        lineno=stmt.lineno,
                    )
                )
            continue
        if isinstance(stmt, RegionExit):
            continue
        # Raw writes
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Subscript)]
        for target in targets:
            name = _base_name(target)
            if name:
                summary.writes.append(
                    WriteSite(func=info.qualname, node=stmt, target=name, held=held)
                )
        # Calls within this statement: covered policy writes,
        # `.acquire()` acquisition sites, resolved call records.
        for node in _calls_at(stmt):
            fn = node.func
            if isinstance(fn, ast.Attribute):
                if fn.attr in _POLICY_WRITE_METHODS and isinstance(fn.value, ast.Name):
                    if fn.value.id in summary.policy_vars and node.args:
                        covered = node.args[0]
                        if isinstance(covered, ast.Name):
                            summary.covered_targets.add(covered.id)
                if fn.attr == "acquire":
                    token = lock_token(fn.value, scope, info, aliases)
                    if token is not None:
                        summary.acquires.append(
                            AcquireSite(
                                func=info.qualname,
                                node=stmt,
                                token=token,
                                held=held,
                                lineno=getattr(node, "lineno", stmt.lineno),
                            )
                        )
            site = call_by_node.get(node)
            if site is not None:
                for callee in site.callees:
                    summary.calls.append(
                        CallRecord(
                            func=info.qualname,
                            site=site,
                            callee=callee,
                            held=held,
                            argmap=_bind_args(cg, callee, node),
                        )
                    )
    return summary


# ----------------------------------------------------------------------
# Whole-program propagation
# ----------------------------------------------------------------------


def _compute_contexts(
    cg: CallGraph,
    summaries: Dict[str, FunctionSummary],
    roots: Set[str],
) -> Dict[str, MustSet]:
    """Context locksets: what every caller provably holds, intersected
    over all call sites; escape roots start empty."""
    contexts: Dict[str, MustSet] = {q: TOP for q in summaries}
    for root in roots:
        if root in contexts:
            contexts[root] = frozenset()
    # Functions nobody in the project calls are public entry points —
    # assume lock-free callers (the conservative Eraser default).
    for qual in summaries:
        if not cg.callers_of(qual) and qual not in roots:
            contexts[qual] = frozenset()
    changed = True
    iters = 0
    while changed and iters < 50:
        changed = False
        iters += 1
        for qual, summary in summaries.items():
            ctx_f = contexts[qual]
            if isinstance(ctx_f, _Top):
                continue
            for rec in summary.calls:
                if rec.callee not in contexts:
                    continue
                effective = must_union(ctx_f, _concrete(rec.held))
                merged = must_join(contexts[rec.callee], effective)
                if not _must_eq(contexts[rec.callee], merged):
                    contexts[rec.callee] = merged
                    changed = True
    return contexts


def _propagate_shared(
    summaries: Dict[str, FunctionSummary],
    escapes: Dict[str, EscapeInfo],
) -> Dict[str, Set[str]]:
    """May-propagation of shared-array names along argument bindings."""
    shared: Dict[str, Set[str]] = {q: set() for q in summaries}
    for qual, info in escapes.items():
        if qual in shared:
            shared[qual] |= set(info.shared)
    changed = True
    iters = 0
    while changed and iters < 50:
        changed = False
        iters += 1
        for qual, summary in summaries.items():
            if not shared[qual]:
                continue
            for rec in summary.calls:
                if rec.callee not in shared:
                    continue
                for param, arg in rec.argmap.items():
                    if arg in shared[qual] and param not in shared[rec.callee]:
                        shared[rec.callee].add(param)
                        changed = True
    return shared


def _effective(ctx: MustSet, local: MustSet) -> FrozenSet[LockToken]:
    return _concrete(ctx) | _concrete(local)


def analyze_locksets(
    cg: CallGraph, escapes: Optional[Dict[str, EscapeInfo]] = None
) -> LocksetReport:
    """Run the whole-program lockset analysis; returns raw site
    reports for the RPR009/RPR010 rules."""
    if escapes is None:
        escapes = analyze_escapes(cg)
    report = LocksetReport()
    summaries: Dict[str, FunctionSummary] = {}
    for qual, info in cg.functions.items():
        summaries[qual] = summarize_function(cg, info)
    report.summaries = summaries

    roots: Set[str] = set()
    for info_e in escapes.values():
        roots.update(info_e.escaping_closures)
    contexts = _compute_contexts(cg, summaries, roots)
    shared = _propagate_shared(summaries, escapes)
    report.contexts = contexts
    report.shared = shared

    # ---- RPR009: unprotected shared writes ---------------------------
    for qual, summary in summaries.items():
        shared_here = shared.get(qual, set())
        if not shared_here:
            continue
        ctx = contexts.get(qual, TOP)
        if isinstance(ctx, _Top):
            continue  # unreachable from any entry — nothing to prove
        for w in summary.writes:
            if w.target not in shared_here:
                continue
            # A policy call elsewhere does not excuse a raw write to the
            # same name — policy calls are simply not in `writes`.
            eff = _effective(ctx, w.held)
            if eff:
                continue
            origin = "escaping array" if qual in escapes and w.target in escapes[
                qual
            ].shared else "shared argument"
            report.races.append(
                SiteReport(
                    relpath=summary.info.relpath,
                    node=w.node,
                    lineno=getattr(w.node, "lineno", 1),
                    col=getattr(w.node, "col_offset", 0),
                    message=(
                        f"write to shared array {w.target!r} ({origin}) with an "
                        "empty lockset and no covering write policy"
                    ),
                    func=qual,
                )
            )

    # ---- RPR010: lock-order edges, cycles, cross-function stripes ----
    @dataclass
    class _Edge:
        src: LockToken
        dst: LockToken
        site: AcquireSite
        relpath: str
        from_context: bool

    edges: List[_Edge] = []
    seen_sites: Set[Tuple[str, int, str]] = set()
    for qual, summary in summaries.items():
        ctx = contexts.get(qual, TOP)
        ctx_tokens = _concrete(ctx)
        for acq in summary.acquires:
            local_tokens = _concrete(acq.held)
            for holder in ctx_tokens | local_tokens:
                if holder.key == acq.token.key:
                    continue
                edges.append(
                    _Edge(
                        src=holder,
                        dst=acq.token,
                        site=acq,
                        relpath=summary.info.relpath,
                        from_context=holder in ctx_tokens and holder not in local_tokens,
                    )
                )
            # Same-collection stripes across a call boundary.  Checked
            # directly (not via the edge list) because two "*"-indexed
            # stripes of one collection share a token key — the very
            # case the cycle graph's self-edge skip must not see.
            for holder in ctx_tokens:
                if holder in local_tokens:
                    continue  # held locally too — RPR002's territory
                if (
                    holder.collection is None
                    or holder.collection != acq.token.collection
                ):
                    continue
                key = (summary.info.relpath, acq.lineno, "stripe")
                if key in seen_sites:
                    continue
                seen_sites.add(key)
                report.order_violations.append(
                    SiteReport(
                        relpath=summary.info.relpath,
                        node=acq.node,
                        lineno=acq.lineno,
                        col=0,
                        message=(
                            f"stripe lock {acq.token.display!r} acquired while a "
                            f"caller already holds a lock from the same collection "
                            f"({holder.display!r}) — ascending order cannot be "
                            "proven across the call"
                        ),
                        func=acq.func,
                    )
                )

    # Cycles in the order graph (AB/BA inversions).
    graph: Dict[str, Set[str]] = {}
    for edge in edges:
        graph.setdefault(edge.src.key, set()).add(edge.dst.key)
        graph.setdefault(edge.dst.key, set())
    in_cycle = _cycle_nodes(graph)
    for edge in edges:
        if edge.src.key in in_cycle and edge.dst.key in in_cycle:
            key = (edge.relpath, edge.site.lineno, "cycle")
            if key in seen_sites:
                continue
            seen_sites.add(key)
            report.order_violations.append(
                SiteReport(
                    relpath=edge.relpath,
                    node=edge.site.node,
                    lineno=edge.site.lineno,
                    col=0,
                    message=(
                        f"lock {edge.dst.display!r} acquired while holding "
                        f"{edge.src.display!r}, but another code path acquires "
                        "them in the opposite order (deadlock cycle)"
                    ),
                    func=edge.site.func,
                )
            )
    return report


def _cycle_nodes(graph: Dict[str, Set[str]]) -> Set[str]:
    """Nodes on some directed cycle (members of a non-trivial SCC)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    result: Set[str] = set()

    def strongconnect(v: str) -> None:
        work: List[Tuple[str, Optional[str], List[str]]] = [
            (v, None, list(graph.get(v, ())))
        ]
        while work:
            node, parent, succs = work[-1]
            if node not in index:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            while succs:
                w = succs.pop()
                if w not in index:
                    work.append((w, node, list(graph.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    w2 = stack.pop()
                    on_stack.discard(w2)
                    component.append(w2)
                    if w2 == node:
                        break
                if len(component) > 1:
                    result.update(component)
            work.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[node])

    for v in list(graph):
        if v not in index:
            strongconnect(v)
    return result
