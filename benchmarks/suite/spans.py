"""In-memory spans recorded around the benchmark's calls into repro.

A traced run swaps a few attributes for thin wrappers: the module
attribute each *caller* looks up at call time (``setup_hierarchy``
inside ``repro.kernels.setupcache``, ``classical_strength`` inside
``repro.amg.hierarchy``, ...), a classmethod, or a method on one solver
instance.  Nothing under ``src/`` changes, and untraced runs execute
the unmodified code.  Each wrapper records one span: name, layer,
start, end, parent, thread, and the operation (solve or job) it belongs
to.  Spans stay in memory until the run ends; then :func:`self_times`
splits each root's wall time into per-layer self times and
:func:`chrome_trace` renders the Chrome ``traceEvents`` file.

Spans nest per thread.  A span opened on a thread with no open span
is a root; :func:`self_times` reports each root's subtree.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = ["Span", "Tracer", "self_times", "chrome_trace"]

#: per-call attributes computed from a wrapped call's arguments
Tag = Callable[..., Dict[str, Any]]

#: shared by every span without attributes (no dict per span)
_NO_ATTRS: Mapping[str, Any] = MappingProxyType({})


class Span:
    __slots__ = ("sid", "name", "layer", "t0", "t1", "parent", "op", "tid", "attrs")

    def __init__(self, sid: int, name: str, layer: str, parent: Optional["Span"],
                 op: Optional[int], attrs: Mapping[str, Any]) -> None:
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent.sid if parent is not None else None
        self.op = parent.op if parent is not None else op
        self.tid = threading.get_ident()
        self.attrs = attrs
        self.t0 = self.t1 = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


_RESTORE_BY_DELETE = object()


class Tracer:
    """Span recorder plus the attribute swaps that feed it.

    :meth:`install` replaces ``owner.attr`` by a recording wrapper and
    :meth:`uninstall` puts every original back.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._swaps: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: Optional[int]) -> None:
        """Operation id given to root spans opened on this thread."""
        self._local.op = op

    def begin(self, name: str, layer: str, attrs: Mapping[str, Any] = _NO_ATTRS) -> Span:
        stack = self._stack()
        rec = Span(next(self._ids), name, layer, stack[-1] if stack else None,
                   getattr(self._local, "op", None), attrs)
        stack.append(rec)
        rec.t0 = perf_counter()
        return rec

    def end(self, rec: Span) -> None:
        rec.t1 = perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    @contextmanager
    def span(self, name: str, layer: str, **attrs: Any) -> Iterator[Span]:
        rec = self.begin(name, layer, attrs)
        try:
            yield rec
        finally:
            self.end(rec)

    def _wrap(self, fn: Callable[..., Any], name: str, layer: str, tag: Optional[Tag]):
        begin, end = self.begin, self.end

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rec = begin(name, layer, tag(*args, **kwargs) if tag is not None else _NO_ATTRS)
            try:
                return fn(*args, **kwargs)
            finally:
                end(rec)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(
        self, owner: Any, attr: str, layer: str, tag: Optional[Tag] = None
    ) -> str:
        """Swap ``owner.attr`` (a module function, a classmethod, or a
        method seen through one instance) for a span-recording wrapper;
        returns the span name, ``<owner>.<attr>``."""
        owner_name = getattr(owner, "__name__", type(owner).__name__)
        name = f"{owner_name}.{attr}"
        raw = vars(owner).get(attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, layer, tag)))
        else:
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, layer, tag))
        # A method wrapped on one instance is restored by deleting the
        # instance attribute that shadows it.
        self._swaps.append((owner, attr, _RESTORE_BY_DELETE if raw is None else raw))
        return name

    def uninstall(self) -> None:
        while self._swaps:
            owner, attr, original = self._swaps.pop()
            if original is _RESTORE_BY_DELETE:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def self_times(spans: List[Span]) -> Dict[int, Dict[str, float]]:
    """Layer self times under each root span: ``{root sid: {layer: s}}``.

    A span's self time is its duration minus its children's durations,
    so over a root's subtree the layers add up to the root's duration; a
    sum that does not is a span that escaped its parent.
    """
    by_id = {s.sid: s for s in spans}
    child_dur: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_dur[s.parent] += s.dur

    def root_of(s: Span) -> int:
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
        return s.sid

    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[root_of(s)][s.layer] += s.dur - child_dur[s.sid]
    return out


def chrome_trace(spans: List[Span], t_origin: float) -> Dict[str, Any]:
    """Chrome ``about:tracing`` / Perfetto JSON for the recorded spans."""
    tids: Dict[int, int] = {}
    events = []
    for s in sorted(spans, key=lambda s: s.t0):
        args: Dict[str, Any] = {"layer": s.layer, "sid": s.sid, "parent": s.parent, "op": s.op}
        args.update({k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str))})
        events.append(
            {
                "name": s.name,
                "cat": s.layer.split(".")[0],
                "ph": "X",
                "ts": (s.t0 - t_origin) * 1e6,
                "dur": s.dur * 1e6,
                "pid": 1,
                "tid": tids.setdefault(s.tid, len(tids) + 1),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
