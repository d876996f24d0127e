"""Elastic membership and crash-recovery for the distributed simulator.

The paper's asynchronous model (Section III) tolerates arbitrarily
stale reads but assumes a *fixed* worker set.  This module removes that
assumption for the distributed simulator: a pool of ``nranks``
simulated ranks backs the ``ngrids`` grid processes, ranks join, stall,
crash and leave continuously (a :class:`ChurnPlan`), and a
:class:`MembershipManager` keeps the solve going — degraded if it must,
but converging.

Two layers are kept strictly apart:

**World physics** (what actually happens).  A crashed rank stops
computing and heartbeating *immediately* — its grid's compute capacity
drops the moment the churn event fires, and if the grid's whole team
dies its in-flight correction dies too (the simulator cancels the
pending ``done`` event).  Physics is recorded in the ``alive`` /
``stall_until`` arrays.

**Membership protocol** (what the survivors can know).  Nobody is told
about the crash.  Ranks heartbeat every ``heartbeat_interval`` of
simulated time; a rank silent for ``suspect_timeout`` becomes SUSPECT,
and a suspect silent for ``evict_timeout`` is evicted (declared DEAD).
Only *then* does the manager re-partition work over the believed-alive
ranks (incrementally, via :func:`repro.partition.partition_ranks`,
moving as few ranks as possible) and schedule checkpoint **handoffs**
for grids whose whole team changed.  A stalled rank that resumes
heartbeating before eviction is re-admitted (SUSPECT → ACTIVE, a
*recovery*) with its assignment intact.  Graceful departures
(``leave``) are announced, so they skip the suspect phase.

Degradation semantics: with fewer believed-alive ranks than grids,
:func:`~repro.partition.partition_ranks` parks the smallest-work grids
(zero ranks — no corrections from those grids until ranks return).
The solve *continues* and the result is recorded as **degraded**, not
failed (``RunResult.degraded``) — the asynchronous model needs
no barrier, so losing contributors only slows convergence, exactly the
robustness argument of the fault-tolerance literature (Coleman &
Sosonkina) transplanted onto the paper's method.

Determinism: membership draws nothing at all, and
:func:`ChurnPlan.random` seeds its own generator, so enabling
elasticity never perturbs an existing seeded message trace, and a
churn-free elastic run is bit-identical to the plain simulator.

All membership state lives in vectorised per-rank numpy arrays and is
mutated **only** by :class:`MembershipManager` methods (enforced by
linter rule RPR008) — the scan over 1k+ ranks is a handful of array
ops, not a Python loop over ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..partition import partition_ranks
from ..resilience import FaultTelemetry
from ..resilience.faults import split_clauses

if TYPE_CHECKING:  # runtime import would cycle through repro.observe
    from ..observe.tracer import Tracer

__all__ = [
    "JOINING",
    "ACTIVE",
    "SUSPECT",
    "DEAD",
    "LEFT",
    "STATE_NAMES",
    "ChurnEvent",
    "ChurnPlan",
    "parse_churn_spec",
    "ElasticityPolicy",
    "MembershipManager",
]

# Protocol states (what membership believes about a rank).
JOINING = 0
ACTIVE = 1
SUSPECT = 2
DEAD = 3
LEFT = 4
STATE_NAMES: Tuple[str, ...] = ("joining", "active", "suspect", "dead", "left")

_CHURN_KINDS = ("crash", "stall", "join", "leave")


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled membership disturbance.

    ``kind`` is ``crash`` (silent fail-stop), ``stall`` (silent pause
    of ``duration`` simulated seconds, then resume), ``join`` (a cold
    rank arrives; ``rank`` is ignored — new ranks get fresh ids) or
    ``leave`` (announced graceful departure).
    """

    t: float
    kind: str
    rank: int = -1
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _CHURN_KINDS:
            raise ValueError(f"churn kind must be one of {_CHURN_KINDS}")
        if self.t < 0.0:
            raise ValueError("churn time must be non-negative")
        if self.kind == "stall" and self.duration <= 0.0:
            raise ValueError("stall churn needs a positive duration")
        if self.kind != "join" and self.rank < 0:
            raise ValueError(f"{self.kind} churn needs a target rank")


@dataclass(frozen=True)
class ChurnPlan:
    """A seeded schedule of :class:`ChurnEvent`\\ s for one run."""

    events: Tuple[ChurnEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def active(self) -> bool:
        return bool(self.events)

    def __bool__(self) -> bool:  # pragma: no cover - convenience alias
        return self.active

    @classmethod
    def random(
        cls,
        nranks: int,
        fraction: float,
        window: float,
        seed: int = 0,
        kind: str = "crash",
        duration: float = 0.0,
    ) -> "ChurnPlan":
        """Seeded plan hitting ``round(fraction * nranks)`` distinct
        ranks with ``kind`` events at uniform times in ``(0, window)``.

        Uses its own ``default_rng(seed)`` — independent of every
        simulator stream, so the same ``(nranks, fraction, window,
        seed)`` always yields the same plan.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if window <= 0.0:
            raise ValueError("window must be positive")
        if kind not in _CHURN_KINDS:
            raise ValueError(f"churn kind must be one of {_CHURN_KINDS}")
        rng = np.random.default_rng(seed)
        nhit = int(round(fraction * nranks))
        if kind == "join":
            ranks = np.full(nhit, -1, dtype=np.int64)
        else:
            nhit = min(nhit, nranks)
            ranks = rng.choice(nranks, size=nhit, replace=False)
        times = np.sort(rng.uniform(0.0, window, size=nhit))
        dur = duration if duration > 0.0 else (0.25 * window if kind == "stall" else 0.0)
        return cls(
            events=tuple(
                ChurnEvent(float(t), kind, int(r), dur) for t, r in zip(times, ranks)
            )
        )


def parse_churn_spec(spec: str) -> ChurnPlan:
    """Parse the CLI's compact churn spec into a :class:`ChurnPlan`.

    Same clause grammar as :func:`repro.resilience.parse_fault_spec`
    (both tokenize with :func:`~repro.resilience.faults.split_clauses`):
    ``;``-separated ``kind:rank@time`` clauses with ``,``-separated
    ``key=value`` options::

        crash:3@0.5
        stall:1@0.2,duration=0.3
        join:@1.0                     (rank slot empty — new ranks get fresh ids)
        leave:2@0.8
        random:0.1@2.0,seed=1,kind=crash

    ``random`` expands to :meth:`ChurnPlan.random` with the fraction
    before the ``@`` and the window after it.
    """
    events: List[ChurnEvent] = []
    for clause, kind, positional, opts in split_clauses(spec, "churn"):
        try:
            if kind == "random":
                if positional is None or "@" not in positional:
                    raise ValueError("random churn needs fraction@window")
                if "nranks" not in opts:
                    raise ValueError("random churn needs nranks=<pool size>")
                frac_s, _, win_s = positional.partition("@")
                sub = ChurnPlan.random(
                    nranks=int(opts["nranks"]),
                    fraction=float(frac_s),
                    window=float(win_s),
                    seed=int(opts.get("seed", "0")),
                    kind=opts.get("kind", "crash"),
                    duration=float(opts.get("duration", "0")),
                )
                events.extend(sub.events)
            elif kind in _CHURN_KINDS:
                rank, t = -1, None
                if positional is not None and "@" in positional:
                    r_s, _, t_s = positional.partition("@")
                    if r_s:
                        rank = int(r_s)
                    t = float(t_s)
                if "rank" in opts:
                    rank = int(opts["rank"])
                if "t" in opts:
                    t = float(opts["t"])
                if t is None:
                    raise ValueError("missing @time")
                events.append(
                    ChurnEvent(t, kind, rank, float(opts.get("duration", "0")))
                )
            else:
                raise ValueError(
                    f"unknown churn kind {kind!r} "
                    "(known: crash, stall, join, leave, random)"
                )
        except ValueError as exc:
            if "churn" in str(exc):  # already contextualized
                raise
            raise ValueError(
                f"cannot parse churn clause {clause!r}: {exc}"
            ) from None
    return ChurnPlan(events=tuple(sorted(events, key=lambda e: (e.t, e.kind, e.rank))))


@dataclass(frozen=True)
class ElasticityPolicy:
    """The membership protocol's heartbeat interval (simulated seconds);
    a rank is suspected after 3 and evicted after 6 silent intervals."""

    heartbeat_interval: float = 1e-3

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0.0:
            raise ValueError("heartbeat_interval must be positive")

    @property
    def suspect_timeout(self) -> float:
        return 3.0 * self.heartbeat_interval

    @property
    def evict_timeout(self) -> float:
        return 6.0 * self.heartbeat_interval


class MembershipManager:
    """Single mutator of all liveness/membership state (rule RPR008).

    Holds two families of state:

    - **grid liveness** (``grid_down``): the legacy fail-stop flags the
      plain simulator path uses for injected grid crashes — present in
      every run so *all* liveness writes route through this class;
    - **rank membership** (elastic runs only): vectorised per-rank
      arrays — ``alive`` / ``stall_until`` are world physics,
      ``rank_state`` / ``last_heard`` are the protocol's belief, and
      ``rank_grid`` is the current work assignment.

    The simulator calls :meth:`apply_churn` when a churn event fires
    (physics), :meth:`scan` from the periodic heartbeat event
    (protocol), and :meth:`repartition` when a scan reports a believed
    membership change.
    """

    def __init__(
        self,
        ngrids: int,
        nranks: int = 0,
        work: Optional[np.ndarray] = None,
        policy: Optional[ElasticityPolicy] = None,
        telemetry: Optional[FaultTelemetry] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.ngrids = int(ngrids)
        self.nranks0 = int(nranks)
        self.policy = policy or ElasticityPolicy()
        self.telemetry = telemetry
        self.tracer = tracer
        self.grid_down = np.zeros(self.ngrids, dtype=bool)
        self.work = (
            np.asarray(work, dtype=np.float64)
            if work is not None
            else np.ones(self.ngrids)
        )
        n = self.nranks0
        self.alive = np.ones(n, dtype=bool)
        self.stall_until = np.zeros(n, dtype=np.float64)
        self.rank_state = np.full(n, ACTIVE, dtype=np.int8)
        self.last_heard = np.zeros(n, dtype=np.float64)
        self.rank_grid = np.full(n, -1, dtype=np.int64)
        #: set once the protocol believes no rank is left; the
        #: simulator then ends the run as stalled, not degraded
        self.no_ranks_left = False
        if n:
            self._assign(partition_ranks(self.work, n))

    # -- grid liveness (plain + elastic paths) -------------------------
    def mark_grid_down(self, g: int) -> None:
        self.grid_down[g] = True

    def mark_grid_up(self, g: int) -> None:
        self.grid_down[g] = False

    # -- world physics --------------------------------------------------
    def apply_churn(self, ev: ChurnEvent, t: float) -> bool:
        """Apply one churn event's *physics* at time ``t``.

        Returns True when believed membership changed immediately (only
        graceful ``leave`` — it is announced; crash/stall are silent
        and surface through :meth:`scan`).
        """
        if ev.kind == "join":
            r = self.alive.size
            self.alive = np.append(self.alive, True)
            self.stall_until = np.append(self.stall_until, 0.0)
            self.rank_state = np.append(self.rank_state, np.int8(JOINING))
            self.last_heard = np.append(self.last_heard, t)
            self.rank_grid = np.append(self.rank_grid, -1)
            self._trace("member", r, t, tag="joining")
            return False  # counted as a join when its first beat lands
        r = ev.rank
        if r >= self.alive.size or not self.alive[r]:
            return False  # target already gone — plan raced ahead of itself
        if ev.kind == "crash":
            self.alive[r] = False
            self._bump("rank_crashes")
            self._trace("member", r, t, a=float(self.rank_grid[r]), tag="crash")
            return False
        if ev.kind == "stall":
            self.stall_until[r] = max(self.stall_until[r], t + ev.duration)
            self._bump("rank_stalls")
            self._trace("member", r, t, a=float(ev.duration), tag="stall")
            return False
        # graceful leave: announced, so belief updates instantly
        self.alive[r] = False
        self.rank_state[r] = LEFT
        self.rank_grid[r] = -1
        self._bump("member_leaves")
        self._trace("member", r, t, tag="leave")
        return True

    # -- membership protocol -------------------------------------------
    def scan(self, t: float) -> bool:
        """One heartbeat sweep at time ``t``; returns True when the
        believed-alive set changed (caller should repartition).

        Physically-able ranks (alive, not mid-stall) beat; everyone
        else stays silent.  Transitions are pure array ops:
        JOINING→ACTIVE on first beat, ACTIVE→SUSPECT after
        ``suspect_timeout`` of silence, SUSPECT→ACTIVE on a fresh beat
        (recovery), SUSPECT→DEAD after ``evict_timeout``.
        """
        pol = self.policy
        beating = self.alive & (self.stall_until <= t)
        self.last_heard[beating] = t
        changed = False
        silent_for = t - self.last_heard
        admitted = beating & (self.rank_state == JOINING)
        if np.any(admitted):
            self.rank_state[admitted] = ACTIVE
            self._bump("member_joins", int(admitted.sum()))
            for r in np.flatnonzero(admitted):
                self._trace("member", int(r), t, tag="join")
            changed = True
        recovered = beating & (self.rank_state == SUSPECT)
        if np.any(recovered):
            self.rank_state[recovered] = ACTIVE
            self._bump("member_recoveries", int(recovered.sum()))
            for r in np.flatnonzero(recovered):
                self._trace("member", int(r), t, a=float(self.rank_grid[r]), tag="recover")
            # assignment kept — a recovery alone does not repartition
        suspects = (
            (self.rank_state == ACTIVE) & ~beating & (silent_for > pol.suspect_timeout)
        )
        if np.any(suspects):
            self.rank_state[suspects] = SUSPECT
            self._bump("member_suspects", int(suspects.sum()))
            for r in np.flatnonzero(suspects):
                self._trace("member", int(r), t, a=float(self.rank_grid[r]), tag="suspect")
        evicted = (
            (self.rank_state == SUSPECT) & ~beating & (silent_for > pol.evict_timeout)
        )
        if np.any(evicted):
            self.rank_state[evicted] = DEAD
            self.rank_grid[evicted] = -1
            self._bump("member_evictions", int(evicted.sum()))
            for r in np.flatnonzero(evicted):
                self._trace("member", int(r), t, tag="evict")
            changed = True
        if self.believed_ranks() == 0:
            self.no_ranks_left = True
        return changed

    def repartition(self, t: float) -> Tuple[np.ndarray, List[int]]:
        """Re-spread believed-alive ranks over grids, incrementally.

        Returns ``(teams, handoff_grids)``: the new per-grid team
        sizes, and the grids whose team has **no surviving member** of
        the previous team (parked grids being revived, or fully-replaced
        teams) — those need a checkpoint handoff before computing.
        Assignments move as few ranks as possible: members beyond a
        grid's new quota are released (lowest rank id first), then
        deficits are filled in grid order from released + unassigned
        ranks.
        """
        assignable = (self.rank_state == ACTIVE) | (self.rank_state == SUSPECT)
        navail = int(assignable.sum())
        old_grid = self.rank_grid.copy()
        teams = partition_ranks(self.work, navail) if navail else np.zeros(
            self.ngrids, dtype=np.int64
        )
        # Release: unassign ranks that are no longer assignable, then trim
        # each grid's membership down to its new quota.
        self.rank_grid[~assignable] = -1
        pool: List[int] = list(np.flatnonzero(assignable & (self.rank_grid < 0)))
        for g in range(self.ngrids):
            members = np.flatnonzero(assignable & (self.rank_grid == g))
            excess = members.size - int(teams[g])
            if excess > 0:
                drop = members[:excess]
                self.rank_grid[drop] = -1
                pool.extend(int(r) for r in drop)
        pool.sort()
        # Fill deficits in grid order from the pool.
        for g in range(self.ngrids):
            members = np.flatnonzero(assignable & (self.rank_grid == g))
            deficit = int(teams[g]) - members.size
            for _ in range(deficit):
                self.rank_grid[pool.pop(0)] = g
        handoff: List[int] = []
        for g in range(self.ngrids):
            if teams[g] == 0:
                continue
            old_members = np.flatnonzero(old_grid == g)
            kept = old_members[
                assignable[old_members] & (self.rank_grid[old_members] == g)
            ]
            if kept.size == 0:
                handoff.append(g)
        self._bump("repartitions")
        self._trace(
            "member", -1, t, a=float(navail), b=float(np.count_nonzero(teams)),
            tag="repartition",
        )
        return teams, handoff

    # -- queries --------------------------------------------------------
    def capacity(self, g: int, t: float) -> int:
        """Physical compute capacity of grid ``g`` at time ``t``:
        assigned ranks that are alive and not mid-stall."""
        return int(
            np.count_nonzero(
                (self.rank_grid == g) & self.alive & (self.stall_until <= t)
            )
        )

    def next_stall_end(self, g: int, t: float) -> Optional[float]:
        """Earliest future stall-end among grid ``g``'s alive members
        (None when no member is merely stalled)."""
        mine = (self.rank_grid == g) & self.alive & (self.stall_until > t)
        if not np.any(mine):
            return None
        return float(self.stall_until[mine].min())

    def staffed(self) -> np.ndarray:
        """Boolean per-grid mask: grid has at least one assigned rank.
        In plain (non-elastic) runs there are no ranks and every grid
        counts as staffed."""
        if self.rank_grid.size == 0:
            return np.ones(self.ngrids, dtype=bool)
        assigned = self.rank_grid[self.rank_grid >= 0]
        return np.bincount(assigned, minlength=self.ngrids) > 0

    def believed_ranks(self) -> int:
        """Ranks the protocol currently believes are usable."""
        return int(
            np.count_nonzero(
                (self.rank_state == ACTIVE) | (self.rank_state == SUSPECT)
            )
        )

    def census(self) -> Dict[str, int]:
        """Final membership head-count for ``RunResult.membership``."""
        out: Dict[str, int] = {"initial_ranks": self.nranks0}
        for code, name in enumerate(STATE_NAMES):
            out[name] = int(np.count_nonzero(self.rank_state == code))
        out["physically_alive"] = int(np.count_nonzero(self.alive))
        out["parked_grids"] = int(
            np.count_nonzero(np.bincount(
                self.rank_grid[self.rank_grid >= 0], minlength=self.ngrids
            ) == 0)
        ) if self.alive.size else 0
        return out

    # -- internals ------------------------------------------------------
    def _assign(self, teams: np.ndarray) -> None:
        """Initial deterministic assignment: rank ids in order, grid by
        grid (rank 0..teams[0]-1 → grid 0, and so on)."""
        bounds = np.cumsum(teams)
        start = 0
        for g in range(self.ngrids):
            self.rank_grid[start : int(bounds[g])] = g
            start = int(bounds[g])

    def _bump(self, counter: str, by: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.bump(counter, by)

    def _trace(self, kind: str, who: int, t: float, a: float = 0.0,
               b: float = 0.0, tag: str = "") -> None:
        if self.tracer is not None:
            self.tracer.record(kind, who, t, a, b, tag)
