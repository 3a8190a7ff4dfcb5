"""Deterministic named random streams for measurement noise.

Every source of variance in the paper's measurements (OS scheduling jitter
on syscalls, interrupt interference, rare long stalls that produce the
Eager-Maps CoV outliers in §V.A.1) is modeled with an explicit, seeded
random stream.  Streams are derived from a root seed plus a stable string
name, so adding a new noise source never perturbs existing ones — a
requirement for regression-testing calibrated experiment outputs.  By
the same token a stream nobody draws from need not exist:
:meth:`RngHub.jitter` builds one only for a jitter that can draw, so a
noiseless run seeds no generator at all (nor loads ``numpy.random``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import numpy as np

__all__ = ["RngHub", "Jitter"]

#: lognormal factors a tail-free jitter draws per block
_BLOCK = 1024


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngHub:
    """Factory of independent, reproducible per-purpose generators."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(_derive_seed(self.root_seed, name))
            self._streams[name] = gen
        return gen

    def fork(self, name: str, index: int) -> "RngHub":
        """A child hub (e.g. one per repetition) with an independent seed."""
        return RngHub(_derive_seed(self.root_seed, f"{name}[{index}]"))

    def jitter(
        self,
        name: str,
        sigma: float = 0.0,
        tail_p: float = 0.0,
        tail_scale_us: float = 0.0,
        scale: float = 1.0,
    ) -> "Jitter":
        """A :class:`Jitter` drawing from stream ``name``, which is built
        only if the jitter can draw."""
        rng = self.stream(name) if Jitter.draws(sigma, tail_p) else None
        return Jitter(rng, sigma, tail_p, tail_scale_us, scale)


class Jitter:
    """Multiplicative noise model for operation latencies.

    Latencies are scaled by ``exp(N(0, sigma))`` (lognormal around 1), and
    with probability ``tail_p`` an additional heavy-tail stall of
    ``tail_scale`` times an Exp(1) draw is added.  The heavy tail is what
    produces the order-of-magnitude Eager-Maps outlier the paper reports
    for S32 at 8 threads (CoV 4.2): a syscall-heavy configuration
    occasionally eats an OS-interference stall.

    ``sigma=0`` and ``tail_p=0`` make the jitter an exact no-op, which the
    test suite relies on for deterministic latency assertions; such a
    jitter never draws, so it takes ``rng=None``.  One that draws
    without a generator is a :class:`ValueError`.

    A tail-free jitter owns its stream's normal draws, so it draws the
    factors ``_BLOCK`` at a time and hands them out one by one: numpy's
    block draws and ``exp`` give exactly the values of the scalar calls,
    in the same order.  With a tail, ``random()`` and ``exponential()``
    draws interleave on the stream, so every factor is drawn on its own.
    """

    __slots__ = ("rng", "sigma", "tail_p", "tail_scale_us", "scale", "_factors")

    def __init__(
        self,
        rng: Optional[np.random.Generator],
        sigma: float = 0.0,
        tail_p: float = 0.0,
        tail_scale_us: float = 0.0,
        scale: float = 1.0,
    ):
        if sigma < 0 or not (0.0 <= tail_p <= 1.0) or tail_scale_us < 0 or scale <= 0:
            raise ValueError("invalid jitter parameters")
        if rng is None and self.draws(sigma, tail_p):
            raise ValueError("a jitter that draws needs a generator")
        self.rng = rng
        self.sigma = sigma
        self.tail_p = tail_p
        self.tail_scale_us = tail_scale_us
        #: correlated per-run factor (machine state: clocks, thermal,
        #: co-located load).  Constant within one simulation, drawn per
        #: run — this is what gives whole-run CoVs of a few percent, as
        #: per-operation noise averages out over ~1e5 operations.
        self.scale = scale
        #: the rest of the current block of factors, last one next
        self._factors: list = []

    @staticmethod
    def draws(sigma: float, tail_p: float) -> bool:
        """Whether a jitter with these parameters ever draws a number."""
        return sigma > 0.0 or tail_p > 0.0

    def apply(self, latency_us: float) -> float:
        """Return the jittered latency; never less than zero."""
        out = latency_us * self.scale
        if self.sigma > 0.0:
            if self.tail_p > 0.0:
                out *= float(np.exp(self.rng.normal(0.0, self.sigma)))
            else:
                factors = self._factors
                if not factors:
                    block = np.exp(self.rng.normal(0.0, self.sigma, _BLOCK))
                    factors = self._factors = block.tolist()[::-1]
                return out * factors.pop()
        if self.tail_p > 0.0 and self.rng.random() < self.tail_p:
            out += self.tail_scale_us * float(self.rng.exponential(1.0))
        return out

    @classmethod
    def none(cls) -> "Jitter":
        """A jitter that changes nothing (deterministic runs)."""
        return cls(None)
