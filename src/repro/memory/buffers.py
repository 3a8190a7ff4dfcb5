"""Buffers: the functional/timed duality at the heart of the reproduction.

Every buffer couples

* a **modeled extent** — a virtual :class:`AddressRange` whose size drives
  all timing (copy durations, page counts for faults and prefaults), with
* a **numpy payload** — real data that kernels actually read and write, so
  that OpenMP mapping semantics are executable and the four runtime
  configurations can be checked for bit-identical results.

The payload may be *smaller* than the modeled extent (a 12 GiB spline
table is modeled at full size but carries, say, a 64 Ki-element payload);
kernels are written against payloads and cost models against extents.
When the payload size equals the modeled size the two coincide exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .layout import AddressRange

__all__ = ["HostBuffer", "DeviceBuffer"]


class HostBuffer:
    """Host-allocated memory (OS allocator) with a functional payload."""

    __slots__ = ("name", "range", "nbytes", "payload", "region", "freed")

    def __init__(
        self,
        name: str,
        rng: AddressRange,
        payload: Optional[np.ndarray] = None,
        region: str = "heap",
    ):
        self.name = name
        self.range = rng
        #: modeled size in bytes (drives all timing); ``range`` never rebinds
        self.nbytes = rng.nbytes
        if payload is None:
            # default payload: capped so huge modeled buffers stay cheap
            elems = min(max(rng.nbytes // 8, 1), 4096)
            payload = np.zeros(elems, dtype=np.float64)
        if payload.nbytes > rng.nbytes:
            raise ValueError(
                f"payload of {payload.nbytes}B exceeds modeled size {rng.nbytes}B"
            )
        self.payload = payload
        self.region = region
        self.freed = False

    def check_alive(self) -> None:
        if self.freed:
            raise RuntimeError(f"use-after-free of host buffer {self.name!r}")

    def __repr__(self) -> str:
        state = "freed" if self.freed else "live"
        return f"<HostBuffer {self.name!r} {self.nbytes}B {state}>"


class DeviceBuffer:
    """ROCr pool allocation shadowing a host buffer (Legacy Copy only).

    Carries its own payload array: under Copy, kernels operate on this
    copy, and the ``to``/``from`` map semantics transfer data between the
    two payloads.  The modeled extent lives in the device-pool VA window.
    """

    __slots__ = ("range", "payload", "freed")

    def __init__(self, rng: AddressRange, payload_like: np.ndarray):
        self.range = rng
        self.payload = np.zeros_like(payload_like)
        self.freed = False

    @property
    def nbytes(self) -> int:
        return self.range.nbytes

    def check_alive(self) -> None:
        if self.freed:
            raise RuntimeError("use-after-free of device buffer")

    def __repr__(self) -> str:
        state = "freed" if self.freed else "live"
        return f"<DeviceBuffer 0x{self.range.start:x} {self.nbytes}B {state}>"
