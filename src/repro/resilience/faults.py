"""Declarative fault plans and the seeded runtime injector.

A :class:`FaultPlan` describes *what goes wrong* in one asynchronous
run, independent of which executor runs it:

- **fail-stop crashes** (:class:`CrashFault`) — grid/process ``grid``
  dies for good after completing its ``after``-th correction;
- **transient stalls** (:class:`StallFault`) — grid ``grid`` freezes
  for ``duration`` after its ``after``-th correction (a straggler, not
  a death);
- **correction corruption** — each computed correction is, with
  probability ``corruption_probability``, perturbed in one entry:
  ``nan``/``inf`` poison values or a ``scale`` perturbation (one entry
  multiplied by ``corruption_scale`` — the "bit flipped in the
  exponent" model of Coleman & Sosonkina's transient-fault study);
- **message faults** (distributed simulator only) — extra loss on top
  of :class:`~repro.distributed.NetworkModel.drop_probability`, plus
  duplication and long-delay schedules.

``duration``/delay units are the executing backend's native clock:
micro-steps for :func:`repro.core.engine.run_async_engine`, wall-clock
seconds for :func:`repro.core.threaded.run_threaded`, simulated seconds
for :func:`repro.distributed.simulate_distributed`.

The runtime side is :class:`FaultInjector`: built once per run from the
plan, it draws every random decision from its own independent seeded
streams (corruption, drop, duplication, delay), so enabling one fault
class never perturbs another's sequence — the same property the
satellite fix gives :class:`~repro.distributed.NetworkModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .telemetry import FaultTelemetry

__all__ = [
    "CrashFault",
    "StallFault",
    "FaultPlan",
    "FaultInjector",
    "parse_fault_spec",
    "split_clauses",
]

_CORRUPTION_MODES = ("nan", "inf", "scale")


@dataclass(frozen=True)
class CrashFault:
    """Fail-stop: ``grid`` dies after completing ``after`` corrections."""

    grid: int
    after: int

    def __post_init__(self) -> None:
        if self.grid < 0 or self.after < 0:
            raise ValueError("crash grid/after must be non-negative")


@dataclass(frozen=True)
class StallFault:
    """Transient straggler: ``grid`` pauses ``duration`` (backend time
    units) after completing ``after`` corrections."""

    grid: int
    after: int
    duration: float

    def __post_init__(self) -> None:
        if self.grid < 0 or self.after < 0:
            raise ValueError("stall grid/after must be non-negative")
        if self.duration <= 0:
            raise ValueError("stall duration must be positive")


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will be injected into one asynchronous run."""

    crashes: Tuple[CrashFault, ...] = ()
    stalls: Tuple[StallFault, ...] = ()
    corruption_probability: float = 0.0
    corruption_mode: str = "nan"
    corruption_scale: float = 1e8
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    delay_probability: float = 0.0
    delay_factor: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stalls", tuple(self.stalls))
        for name in (
            "corruption_probability",
            "drop_probability",
            "duplicate_probability",
            "delay_probability",
        ):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.corruption_mode not in _CORRUPTION_MODES:
            raise ValueError(
                f"corruption_mode must be one of {_CORRUPTION_MODES}"
            )
        if self.corruption_scale <= 0 or self.delay_factor <= 0:
            raise ValueError("corruption_scale/delay_factor must be positive")

    @property
    def active(self) -> bool:
        """True when the plan injects anything at all."""
        return bool(
            self.crashes
            or self.stalls
            or self.corruption_probability
            or self.drop_probability
            or self.duplicate_probability
            or self.delay_probability
        )

    def __bool__(self) -> bool:  # pragma: no cover - convenience alias
        return self.active


def split_clauses(
    spec: str, what: str
) -> Iterator[Tuple[str, str, Optional[str], Dict[str, str]]]:
    """Tokenize a compact CLI spec into ``(clause, kind, positional,
    opts)`` per ``;``-separated clause ``kind:tok,tok,...``: ``opts``
    holds the ``key=value`` tokens and ``positional`` the one bare
    token, if any.  A second bare token raises :class:`ValueError`
    naming the ``what`` clause."""
    for raw in spec.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        kind, _, rest = clause.partition(":")
        opts: Dict[str, str] = {}
        positional: Optional[str] = None
        for tok in filter(None, (t.strip() for t in rest.split(","))):
            if "=" in tok:
                key, _, val = tok.partition("=")
                opts[key.strip()] = val.strip()
            elif positional is None:
                positional = tok
            else:
                raise ValueError(f"cannot parse {what} clause {clause!r}")
        yield clause, kind.strip().lower(), positional, opts


def parse_fault_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Parse the CLI's compact fault spec into a :class:`FaultPlan`.

    Clauses are ``;``-separated, each ``kind:options`` with
    ``,``-separated ``key=value`` options.  Crash/stall accept the
    shorthand ``grid@after``::

        crash:1@5
        stall:2@3,duration=200
        corrupt:p=0.01,mode=nan,scale=1e8
        drop:p=0.05 ; dup:p=0.01 ; delay:p=0.1,factor=5

    Example: ``"crash:1@5;corrupt:p=0.01;drop:p=0.05"``.
    """
    crashes: List[CrashFault] = []
    stalls: List[StallFault] = []
    kw: Dict[str, object] = {}
    for clause, kind, positional, opts in split_clauses(spec, "fault"):
        try:
            if kind in ("crash", "stall"):
                if positional is not None and "@" in positional:
                    g, _, a = positional.partition("@")
                    opts.setdefault("grid", g)
                    opts.setdefault("after", a)
                grid = int(opts["grid"])
                after = int(opts["after"])
                if kind == "crash":
                    crashes.append(CrashFault(grid, after))
                else:
                    stalls.append(
                        StallFault(grid, after, float(opts.get("duration", 1.0)))
                    )
            elif kind == "corrupt":
                kw["corruption_probability"] = float(opts["p"])
                if "mode" in opts:
                    kw["corruption_mode"] = opts["mode"]
                if "scale" in opts:
                    kw["corruption_scale"] = float(opts["scale"])
            elif kind == "drop":
                kw["drop_probability"] = float(opts["p"])
            elif kind == "dup":
                kw["duplicate_probability"] = float(opts["p"])
            elif kind == "delay":
                kw["delay_probability"] = float(opts["p"])
                if "factor" in opts:
                    kw["delay_factor"] = float(opts["factor"])
            else:
                raise ValueError(
                    f"unknown fault kind {kind!r} "
                    "(known: crash, stall, corrupt, drop, dup, delay)"
                )
        except KeyError as exc:
            raise ValueError(
                f"fault clause {clause!r} is missing option {exc}"
            ) from None
        except ValueError as exc:
            if "fault" in str(exc):  # already contextualized
                raise
            raise ValueError(
                f"cannot parse fault clause {clause!r}: {exc}"
            ) from None
    return FaultPlan(crashes=tuple(crashes), stalls=tuple(stalls), seed=seed, **kw)


class FaultInjector:
    """Runtime sampler for one :class:`FaultPlan`.

    Each fault class draws from its own stream spawned from
    ``plan.seed`` (`SeedSequence.spawn`), so the corruption sequence for
    a given seed is identical whether or not message faults are enabled,
    and vice versa.  Deterministic schedules (crashes, stalls) are
    indexed by ``(grid, corrections completed)``.
    """

    def __init__(self, plan: FaultPlan, ngrids: int) -> None:
        self.plan = plan
        self.ngrids = int(ngrids)
        for f in plan.crashes:
            if f.grid >= ngrids:
                raise ValueError(f"crash grid {f.grid} out of range (ngrids={ngrids})")
        for f in plan.stalls:
            if f.grid >= ngrids:
                raise ValueError(f"stall grid {f.grid} out of range (ngrids={ngrids})")
        streams = np.random.SeedSequence(plan.seed).spawn(4)
        self._rng_corrupt = np.random.default_rng(streams[0])
        self._rng_drop = np.random.default_rng(streams[1])
        self._rng_dup = np.random.default_rng(streams[2])
        self._rng_delay = np.random.default_rng(streams[3])
        self._crash_at: Dict[int, int] = {}
        for f in plan.crashes:
            prev = self._crash_at.get(f.grid)
            self._crash_at[f.grid] = f.after if prev is None else min(prev, f.after)
        self._crash_fired: set = set()
        self._stalls: Dict[Tuple[int, int], float] = {
            (f.grid, f.after): f.duration for f in plan.stalls
        }

    # -- deterministic schedules --------------------------------------
    def crash_due(self, grid: int, completed: int) -> bool:
        """True when ``grid`` fail-stops having completed ``completed``.

        One-shot (consuming): a fail-stop kills a process once; a
        guard-restarted replacement does not inherit the sentence.
        """
        at = self._crash_at.get(grid)
        if at is None or grid in self._crash_fired or completed < at:
            return False
        self._crash_fired.add(grid)
        return True

    def stall_due(self, grid: int, completed: int) -> Optional[float]:
        """Stall duration due for ``grid`` at ``completed``, else None."""
        return self._stalls.get((grid, completed))

    def forgive_completed_crashes(self, counts: np.ndarray) -> None:
        """Mark crash faults whose trigger point already passed as fired.

        A restarted worker *process* builds a fresh injector (the
        one-shot ``_crash_fired`` state died with its predecessor); the
        shared correction counts say which sentences were already
        executed, and those must not be re-served — otherwise a
        restarted process crash-loops until the restart budget runs out.
        """
        for grid, at in self._crash_at.items():
            if int(counts[grid]) >= at:
                self._crash_fired.add(grid)

    # -- stochastic faults --------------------------------------------
    def corrupt(
        self, e: np.ndarray, telemetry: Optional[FaultTelemetry] = None
    ) -> np.ndarray:
        """Return ``e`` possibly perturbed in one entry (copy if so)."""
        p = self.plan.corruption_probability
        if p == 0.0 or self._rng_corrupt.uniform() >= p:
            return e
        out = np.array(e, copy=True)
        if out.size:
            idx = int(self._rng_corrupt.integers(out.size))
            mode = self.plan.corruption_mode
            if mode == "nan":
                out[idx] = np.nan
            elif mode == "inf":
                out[idx] = np.inf if self._rng_corrupt.uniform() < 0.5 else -np.inf
            else:  # scale — exponent bit-flip model
                out[idx] *= self.plan.corruption_scale
        if telemetry is not None:
            telemetry.bump("injected_corruptions")
        return out

    def message_dropped(self) -> bool:
        """Extra (plan-level) loss, sampled per transmission attempt."""
        p = self.plan.drop_probability
        return bool(p and self._rng_drop.uniform() < p)

    def message_duplicated(self) -> bool:
        p = self.plan.duplicate_probability
        return bool(p and self._rng_dup.uniform() < p)

    def message_delay_factor(self) -> Optional[float]:
        """Multiplier (> 1) for a delayed message's latency, else None."""
        p = self.plan.delay_probability
        if p and self._rng_delay.uniform() < p:
            return float(self.plan.delay_factor)
        return None
