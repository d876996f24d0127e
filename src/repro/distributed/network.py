"""Network model for the distributed simulator.

Message transfer time follows the classic alpha-beta (latency +
bandwidth) model with optional per-message jitter:

    T(bytes) = latency * (1 + jitter) + bytes / BANDWIDTH

Every link has the same latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BANDWIDTH", "NetworkModel"]

#: link bandwidth, bytes per second (10 GB/s)
BANDWIDTH = 1.0e10


@dataclass
class NetworkModel:
    """Latency/bandwidth network with seeded jitter.

    Attributes
    ----------
    latency:
        Base one-way message latency in seconds (default 1 us — a
        fast interconnect).
    jitter:
        Relative standard deviation of the per-message latency noise.
    drop_probability:
        Probability that a message is silently lost (lossy transport /
        no retransmission — the regime an asynchronous method must
        tolerate by design, since it never waits for acknowledgements).
    seed:
        Seed of the jitter and drop processes.  The two draw from
        *independent* streams spawned from this seed, so enabling
        jitter never perturbs the drop sequence for a given seed (and
        vice versa).
    """

    latency: float = 1.0e-6
    jitter: float = 0.1
    drop_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.jitter < 0:
            raise ValueError("latency/jitter must be non-negative")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        jitter_stream, drop_stream = np.random.SeedSequence(self.seed).spawn(2)
        self._rng_jitter = np.random.default_rng(jitter_stream)
        self._rng_drop = np.random.default_rng(drop_stream)

    def transfer_time(self, nbytes: float) -> float:
        """Sampled wall-clock for one message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        lat = self.latency
        if self.jitter > 0:
            lat *= 1.0 + abs(float(self._rng_jitter.normal(0.0, self.jitter)))
        return lat + nbytes / BANDWIDTH

    def dropped(self) -> bool:
        """Sample whether the next message is lost in transit."""
        if self.drop_probability == 0.0:
            return False
        return bool(self._rng_drop.uniform() < self.drop_probability)
