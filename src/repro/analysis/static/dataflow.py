"""Worklist dataflow engine and the must-set lattice.

The engine solves classic iterative dataflow over the CFGs of
:mod:`repro.analysis.static.cfg`: an :class:`Analysis` supplies the
lattice (``join`` / ``eq``), the entry and initial values, and a
per-statement transfer function; :func:`solve` iterates a worklist to
the fixpoint, forward (values flow entry -> exit, joined over
predecessors).

Lattice
-------
:data:`MustSet` — join = intersection, initial value = ``TOP`` (the
set of everything, represented symbolically) — carries *must* facts
("this lock is held on **every** path"): the lockset analysis of
:mod:`repro.analysis.static.lockset`.  ``TOP`` is a singleton, not a
materialized universal set, so must analyses work over unbounded token
universes (lock names) without enumerating them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Generic, Iterator, Tuple, TypeVar, Union

from .cfg import CFG, BasicBlock, Stmt

__all__ = [
    "TOP",
    "MustSet",
    "Analysis",
    "DataflowSolution",
    "solve",
]

T = TypeVar("T")


class _Top:
    """Symbolic greatest element for must-set lattices."""

    _instance: "_Top | None" = None

    def __new__(cls) -> "_Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()

#: a must-set value: TOP (everything) or a concrete frozen set
MustSet = Union[_Top, FrozenSet[object]]


def must_join(a: MustSet, b: MustSet) -> MustSet:
    """Meet of two must-sets (intersection; TOP is the identity)."""
    if isinstance(a, _Top):
        return b
    if isinstance(b, _Top):
        return a
    return a & b


def must_union(a: MustSet, items: FrozenSet[object]) -> MustSet:
    if isinstance(a, _Top):
        return a
    return a | items


def must_discard(a: MustSet, items: FrozenSet[object]) -> MustSet:
    if isinstance(a, _Top):
        return a
    return a - items


class Analysis(ABC, Generic[T]):
    """One forward dataflow problem: lattice + transfer functions."""

    @abstractmethod
    def boundary(self) -> T:
        """Value at the entry block."""

    @abstractmethod
    def init(self) -> T:
        """Optimistic initial value for every other block."""

    @abstractmethod
    def join(self, a: T, b: T) -> T:
        """Least upper bound of two values."""

    def eq(self, a: T, b: T) -> bool:
        return bool(a == b)

    @abstractmethod
    def transfer(self, stmt: Stmt, value: T) -> T:
        """Flow ``value`` through one lowered statement."""

    def transfer_block(self, block: BasicBlock, value: T) -> T:
        for stmt in block.stmts:
            value = self.transfer(stmt, value)
        return value


@dataclass
class DataflowSolution(Generic[T]):
    """Fixpoint values at block boundaries.

    ``block_in[b]`` is the value entering block ``b``, ``block_out[b]``
    the value after its transfer.
    """

    cfg: CFG
    analysis: Analysis[T]
    block_in: Dict[int, T]
    block_out: Dict[int, T]
    iterations: int

    def stmt_values(self) -> Iterator[Tuple[int, Stmt, T]]:
        """Per-statement input values, recomputed by replaying each
        block's transfer."""
        for bid in sorted(self.cfg.blocks):
            value = self.block_in[bid]
            for stmt in self.cfg.blocks[bid].stmts:
                yield bid, stmt, value
                value = self.analysis.transfer(stmt, value)


def solve(cfg: CFG, analysis: Analysis[T], max_iterations: int = 100_000) -> DataflowSolution[T]:
    """Iterate ``analysis`` forward over ``cfg`` to its fixpoint."""
    start = cfg.entry
    block_in: Dict[int, T] = {bid: analysis.init() for bid in cfg.blocks}
    block_out: Dict[int, T] = {}
    block_in[start] = analysis.boundary()

    order = cfg.rpo()
    # Blocks unreachable from the entry (orphaned dead code) still get
    # a seat so site-collection passes over them terminate.
    for bid in cfg.blocks:
        if bid not in order:
            order.append(bid)
    work = deque(order)
    queued = set(order)
    iterations = 0
    while work:
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - safety valve
            raise RuntimeError("dataflow did not converge")
        bid = work.popleft()
        queued.discard(bid)
        sources = cfg.blocks[bid].preds
        if sources:
            value = block_out.get(sources[0], analysis.init())
            for src in sources[1:]:
                value = analysis.join(value, block_out.get(src, analysis.init()))
            if bid == start:
                value = analysis.join(value, analysis.boundary())
            block_in[bid] = value
        out = analysis.transfer_block(cfg.blocks[bid], block_in[bid])
        if bid not in block_out or not analysis.eq(block_out[bid], out):
            block_out[bid] = out
            for nxt in cfg.blocks[bid].succs:
                if nxt not in queued:
                    work.append(nxt)
                    queued.add(nxt)
    return DataflowSolution(
        cfg=cfg,
        analysis=analysis,
        block_in=block_in,
        block_out=block_out,
        iterations=iterations,
    )
