"""Sampling profiler: wall time attributed to kernel × grid × worker.

The run-end ``kernel`` trace events already say how much accumulated
wall time each kernel *recorded about itself*; this module answers
the complementary live question — where are the solve threads
*actually standing right now* — by sampling ``sys._current_frames()``
from a low-rate daemon thread.  No ``sys.setprofile``, no per-call
bookkeeping on the hot path: the solve threads are never touched,
only observed, so the overhead is the sampler's own work (a dict walk
every :attr:`SamplingProfiler.INTERVAL_S`, 5 ms).

Attribution: each sampled thread is mapped to its ``(worker, grid)``
via the tracer's thread registry (:meth:`Tracer.worker_threads`); its
stack is walked innermost-first and the first frame whose file lives
under ``repro/kernels/`` names the kernel (frames outside the kernel
layer bucket as ``"other"``).  The result is a flame-ordered table
(:meth:`ProfileReport.table`) and Chrome-trace ``C`` (counter) tracks
(:meth:`ProfileReport.chrome_counter_events`) that drop into the same
``chrome://tracing`` file as the event spans.
"""

from __future__ import annotations

import os
import sys
import threading
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .tracer import Tracer

__all__ = ["SamplingProfiler", "ProfileReport", "KERNELS_PATH_FRAGMENT"]

WorkerKey = Union[int, str]

#: a frame whose filename contains this names a kernel-layer frame
KERNELS_PATH_FRAGMENT = os.sep.join(("repro", "kernels")) + os.sep


@dataclass
class ProfileReport:
    """Aggregated samples: ``counts[(kernel, grid, worker)]`` plus a
    coarse timeline for counter tracks.

    ``seconds`` figures are shares of the measured span — with N
    solve threads running concurrently the per-bucket seconds sum to
    roughly N × span, the usual convention for thread-time profiles.
    """

    interval_s: float = 0.005
    span_s: float = 0.0
    samples: int = 0
    counts: Dict[Tuple[str, int, WorkerKey], int] = field(default_factory=dict)
    #: (t_offset_s, {kernel: concurrent-thread count}) per sample tick
    timeline: List[Tuple[float, Dict[str, int]]] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        """Flame-ordered (descending seconds) attribution rows."""
        total = sum(self.counts.values())
        out: List[Dict[str, object]] = []
        for (kernel, grid, worker), n in sorted(
            self.counts.items(), key=lambda kv: (-kv[1], str(kv[0]))
        ):
            share = n / total if total else 0.0
            out.append(
                {
                    "kernel": kernel,
                    "grid": grid,
                    "worker": worker,
                    "samples": n,
                    "share": share,
                    "seconds": share * self.span_s * self._concurrency(),
                }
            )
        return out

    def _concurrency(self) -> float:
        """Mean threads observed per tick (scales share → thread-seconds)."""
        ticks = len(self.timeline)
        return (self.samples / ticks) if ticks else 1.0

    def table(self) -> str:
        """The flame-ordered table, rendered for terminals/logs."""
        rows = self.rows()
        if not rows:
            return "(no profile samples)"
        lines = [
            f"{'kernel':<24} {'grid':>4} {'worker':>8} {'samples':>8} "
            f"{'share':>7} {'seconds':>9}"
        ]
        for r in rows:
            lines.append(
                f"{str(r['kernel']):<24} {r['grid']:>4} {str(r['worker']):>8} "
                f"{r['samples']:>8} {float(r['share']):>6.1%} "
                f"{float(r['seconds']):>9.4f}"
            )
        return "\n".join(lines)

    def chrome_counter_events(self, bucket_s: float = 0.05) -> List[Dict[str, object]]:
        """Chrome-trace ``C`` (counter) events: per-kernel concurrent
        thread counts, bucketed to ``bucket_s`` so huge profiles stay
        loadable.  Timestamps are microseconds from profile start, on
        the counter track pid 0 / "profiler"."""
        out: List[Dict[str, object]] = []
        if not self.timeline:
            return out
        acc: Dict[str, float] = {}
        ticks = 0
        bucket_start = self.timeline[0][0]
        kernels = sorted({k for _, by_k in self.timeline for k in by_k})

        def flush(at: float) -> None:
            nonlocal acc, ticks
            if not ticks:
                return
            args = {k: acc.get(k, 0.0) / ticks for k in kernels}
            out.append(
                {
                    "name": "threads_in_kernel",
                    "ph": "C",
                    "ts": at * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
            acc = {}
            ticks = 0

        for t, by_kernel in self.timeline:
            if t - bucket_start >= bucket_s:
                flush(bucket_start)
                bucket_start = t
            for k, n in by_kernel.items():
                acc[k] = acc.get(k, 0.0) + n
            ticks += 1
        flush(bucket_start)
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "interval_s": self.interval_s,
            "span_s": self.span_s,
            "samples": self.samples,
            "rows": self.rows(),
        }


class SamplingProfiler:
    """Low-rate stack sampler over the registered solve threads.

    ``start()`` launches a daemon thread; ``stop()`` joins it and
    freezes the report.  Only threads present in the tracer's worker
    registry are attributed; when *nothing* is registered (the
    sequential engine runs all workers on the caller's thread) every
    sampled thread is attributed to worker ``"main"`` instead, so the
    engine still gets kernel-level attribution.
    """

    #: seconds between stack samples
    INTERVAL_S = 0.005

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer
        self.report = ProfileReport(interval_s=self.INTERVAL_S)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._t0 = 0.0

    # -- sampling ------------------------------------------------------
    @staticmethod
    def _kernel_of(frame: object) -> str:
        f = frame
        while f is not None:
            code = f.f_code  # type: ignore[attr-defined]
            if KERNELS_PATH_FRAGMENT in code.co_filename:
                name = str(code.co_name)
                return name[1:] if name.startswith("_") else name
            f = f.f_back  # type: ignore[attr-defined]
        return "other"

    def sample_once(self) -> int:
        """Take one sample; returns the number of threads attributed."""
        registry = self.tracer.worker_threads()
        me = threading.get_ident()
        now = _time.perf_counter() - self._t0
        by_kernel: Dict[str, int] = {}
        attributed = 0
        for ident, frame in sys._current_frames().items():
            if ident == me:
                continue
            if registry:
                ent = registry.get(ident)
                if ent is None:
                    continue
                worker, grid = ent
            elif ident == threading.main_thread().ident:
                worker, grid = "main", -1
            else:
                continue
            kernel = self._kernel_of(frame)
            key = (kernel, grid, worker)
            self.report.counts[key] = self.report.counts.get(key, 0) + 1
            by_kernel[kernel] = by_kernel.get(kernel, 0) + 1
            attributed += 1
        self.report.samples += attributed
        self.report.timeline.append((now, by_kernel))
        return attributed

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self.sample_once()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._t0 = _time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> ProfileReport:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=2.0)
            self._thread = None
        self.report.span_s = _time.perf_counter() - self._t0 if self._t0 else 0.0
        return self.report
