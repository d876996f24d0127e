"""Typed trace events — the vocabulary of the observability layer.

On the hot path an event is a plain 6-tuple ``(t, kind, grid, a, b,
tag)`` appended to a per-worker :class:`~repro.observe.tracer.TraceBuffer`
(no object construction, no locking).  :class:`Event` is the *merged*
view — the same record plus its worker key and within-worker sequence
number — produced once at run end by
:meth:`~repro.observe.tracer.Tracer.events` and consumed by the
exporters and the :class:`~repro.observe.analyze.TraceAnalyzer`.

Event kinds and their payload fields (``a``/``b`` are floats, ``tag``
is a short string):

=================  ====================================================
kind               meaning of ``a`` / ``b`` / ``tag``
=================  ====================================================
``correct_begin``  a correction started; ``a`` = correction index
``correct_end``    a correction committed; ``a`` = completed count,
                   ``b`` = effective read staleness in commit epochs
                   (−1 when unknown — e.g. the first correction)
``read``           a shared-vector read; ``a`` = commit epoch observed,
                   ``tag`` = vector (``"x"``/``"r"``)
``write``          a shared-vector commit; ``a`` = lock-wait seconds,
                   ``b`` = read staleness at commit (−1 when n/a),
                   ``tag`` = vector
``residual``       a residual-norm snapshot; ``a`` = relative residual,
                   ``tag`` = ``"global"`` (true residual) or
                   ``"local"`` (a worker's replica view)
``guard``          a guard action; ``tag`` names it (``checkpoint``,
                   ``rollback``, ``restart``, ``watchdog``, ``reject``)
``fault``          an injected fault landed; ``tag`` names it
                   (``crash``, ``stall``, ``corrupt``, ``drop``, ...)
``msg``            distributed message traffic; ``tag`` =
                   ``send``/``recv``/``drop``, ``a`` = peer rank
``member``         an elastic-membership transition (distributed
                   simulator); ``tag`` names it (``join``, ``suspect``,
                   ``evict``, ``recover``, ``leave``, ``crash``,
                   ``stall``, ``repartition``, ``handoff``); for rank
                   transitions ``grid`` is the *rank* id and ``a`` the
                   grid it was assigned to (−1 when unassigned), for
                   ``repartition`` ``a`` = assignable ranks and ``b`` =
                   staffed grids, for ``handoff`` ``a`` = checkpoint
                   transfer seconds
``retry``          a dropped transmission was rescheduled with backoff;
                   ``a`` = message id, ``b`` = backoff delay, ``tag`` =
                   attempt number (``"a1"``, ``"a2"``, ...)
``kernel``         per-kernel timing digest recorded once at run end
                   (grid −1); ``a`` = accumulated wall seconds, ``b`` =
                   call count, ``tag`` = kernel name (see
                   :data:`repro.kernels.KERNEL_NAMES`)
``alert``          an online anomaly detector fired (see
                   :mod:`repro.observe.alerts`); ``a`` = observed
                   value, ``b`` = the threshold it crossed, ``tag`` =
                   alert kind (``stagnation``, ``divergence``,
                   ``oscillation``, ``heartbeat_gap``); ``grid`` is
                   the implicated grid (−1 when run-wide).  Recorded
                   from the live snapshot collector's own buffer
                   (worker ``"live"``), never from a solve thread.
=================  ====================================================

The ``t`` field follows the recording backend's clock (see the
tracer's ``clock`` attribute): ``"s"`` — wall seconds from run start
(threaded executor), ``"steps"`` — scheduler micro-steps (sequential
engine; integral, fully deterministic), ``"sim"`` — simulated seconds
(distributed simulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple, Union

__all__ = [
    "CORRECT_BEGIN",
    "CORRECT_END",
    "READ",
    "WRITE",
    "RESIDUAL",
    "GUARD",
    "FAULT",
    "MSG",
    "MEMBER",
    "RETRY",
    "KERNEL",
    "ALERT",
    "EVENT_KINDS",
    "Event",
]

CORRECT_BEGIN = "correct_begin"
CORRECT_END = "correct_end"
READ = "read"
WRITE = "write"
RESIDUAL = "residual"
GUARD = "guard"
FAULT = "fault"
MSG = "msg"
MEMBER = "member"
RETRY = "retry"
KERNEL = "kernel"
ALERT = "alert"

EVENT_KINDS: Tuple[str, ...] = (
    CORRECT_BEGIN,
    CORRECT_END,
    READ,
    WRITE,
    RESIDUAL,
    GUARD,
    FAULT,
    MSG,
    MEMBER,
    RETRY,
    KERNEL,
    ALERT,
)


@dataclass(frozen=True)
class Event:
    """One merged trace event (see the module docstring for the
    per-kind meaning of ``a``/``b``/``tag``)."""

    t: float
    kind: str
    grid: int
    a: float = 0.0
    b: float = 0.0
    tag: str = ""
    worker: Union[int, str] = -1
    seq: int = 0
    worker_pid: int = -1
    """OS process id of the recording worker (procs backend), −1 for
    in-process workers — lets a cross-process trace merge attribute
    events to real processes."""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable record (the JSONL line schema)."""
        d = {
            "t": self.t,
            "kind": self.kind,
            "grid": self.grid,
            "a": self.a,
            "b": self.b,
            "tag": self.tag,
            "worker": self.worker,
            "seq": self.seq,
        }
        if self.worker_pid != -1:
            d["worker_pid"] = self.worker_pid
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Event":
        return cls(
            t=float(d["t"]),
            kind=str(d["kind"]),
            grid=int(d["grid"]),
            a=float(d.get("a", 0.0)),
            b=float(d.get("b", 0.0)),
            tag=str(d.get("tag", "")),
            worker=d.get("worker", -1),
            seq=int(d.get("seq", 0)),
            worker_pid=int(d.get("worker_pid", -1)),
        )

    @property
    def sort_key(self) -> Tuple[float, str, int]:
        """Total order: time, then worker key, then per-worker sequence
        (stable and deterministic for logical clocks)."""
        return (self.t, str(self.worker), self.seq)
