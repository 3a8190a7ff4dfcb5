"""Runtime configurations and the environment-driven selection logic.

§IV of the paper defines four runtime *configurations* — all equivalent
under OpenMP semantics, differing only in how data environments are
realized on the APU:

* :attr:`RuntimeConfig.COPY` — "Legacy" Copy: device-pool allocations and
  HBM-to-HBM transfers, exactly as on a discrete GPU.
* :attr:`RuntimeConfig.UNIFIED_SHARED_MEMORY` — the app was compiled with
  ``#pragma omp requires unified_shared_memory``; maps are no-ops and GPU
  globals are pointers into host memory (double indirection).
* :attr:`RuntimeConfig.IMPLICIT_ZERO_COPY` — the runtime detects an APU
  with XNACK enabled and toggles zero-copy automatically; globals keep the
  per-device-copy protocol of Copy mode.
* :attr:`RuntimeConfig.EAGER_MAPS` — zero-copy where every map operation
  prefaults the GPU page table through a syscall; does not require XNACK.

:func:`select_config` reproduces the decision procedure described in
§IV.C and footnote 1 (``HSA_XNACK`` / ``OMPX_APU_MAPS`` environment
variables, APU detection, the USM requirement pragma).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["RuntimeConfig", "RunEnvironment", "ConfigError", "select_config"]


class ConfigError(RuntimeError):
    """Raised for impossible deployment combinations (e.g. USM app on a
    system without unified-memory support)."""


class RuntimeConfig(enum.Enum):
    """The four runtime configurations of §IV."""

    COPY = "copy"
    UNIFIED_SHARED_MEMORY = "usm"
    IMPLICIT_ZERO_COPY = "implicit_zero_copy"
    EAGER_MAPS = "eager_maps"

    def __init__(self, value: str):
        #: whether kernels receive host pointers (no shadow allocations)
        self.is_zero_copy = value != "copy"

    @property
    def needs_xnack(self) -> bool:
        """USM and Implicit Z-C rely on XNACK replay; Eager Maps and Copy
        run with XNACK disabled (§IV.D: "the GPU does not need to run
        with XNACK support")."""
        return self in (
            RuntimeConfig.UNIFIED_SHARED_MEMORY,
            RuntimeConfig.IMPLICIT_ZERO_COPY,
        )

    @property
    def globals_as_pointer(self) -> bool:
        """USM compiles GPU globals as pointers to the host global; every
        other configuration keeps a per-device copy (§IV.B/IV.C)."""
        return self is RuntimeConfig.UNIFIED_SHARED_MEMORY

    @property
    def label(self) -> str:
        return {
            RuntimeConfig.COPY: "Copy",
            RuntimeConfig.UNIFIED_SHARED_MEMORY: "Unified Shared Memory",
            RuntimeConfig.IMPLICIT_ZERO_COPY: "Implicit Z-C",
            RuntimeConfig.EAGER_MAPS: "Eager Maps",
        }[self]


@dataclass(frozen=True)
class RunEnvironment:
    """Deployment facts the runtime inspects at startup."""

    is_apu: bool = True                      #: MI300A socket vs discrete GPU
    hsa_xnack: bool = True                   #: HSA_XNACK environment variable
    ompx_apu_maps: bool = False              #: OMPX_APU_MAPS=1 (footnote 1)
    ompx_eager_maps: bool = False            #: opt-in eager prefaulting
    app_requires_usm: bool = False           #: compiled with the USM pragma
    extra: Dict[str, str] = field(default_factory=dict)


def select_config(env: RunEnvironment) -> RuntimeConfig:
    """Pick the runtime configuration for a deployment (§IV.C, fn. 1).

    Priority order mirrors the implementation the paper describes:

    1. An application built with ``requires unified_shared_memory`` *must*
       run as USM; it "can only be deployed on GPUs that support Unified
       Memory" — anything else is a :class:`ConfigError`.
    2. Eager Maps is an explicit opt-in and takes effect on any APU
       regardless of XNACK.
    3. On an APU with XNACK enabled the runtime automatically toggles
       Implicit Zero-Copy; the same applies on a discrete GPU when
       ``OMPX_APU_MAPS=1`` and XNACK is enabled.
    4. Otherwise the legacy Copy configuration is used.
    """
    if env.app_requires_usm:
        if not env.hsa_xnack:
            raise ConfigError(
                "application requires unified_shared_memory but XNACK "
                "(unified memory support) is disabled in this environment"
            )
        return RuntimeConfig.UNIFIED_SHARED_MEMORY
    if env.ompx_eager_maps and env.is_apu:
        return RuntimeConfig.EAGER_MAPS
    if env.is_apu and env.hsa_xnack:
        return RuntimeConfig.IMPLICIT_ZERO_COPY
    if env.ompx_apu_maps and env.hsa_xnack:
        # footnote 1: opt-in Implicit Zero-Copy on discrete GPUs
        return RuntimeConfig.IMPLICIT_ZERO_COPY
    return RuntimeConfig.COPY


#: Convenient iteration order used throughout experiments: the baseline
#: first, then the three zero-copy configurations in the paper's order.
ALL_CONFIGS = (
    RuntimeConfig.COPY,
    RuntimeConfig.UNIFIED_SHARED_MEMORY,
    RuntimeConfig.IMPLICIT_ZERO_COPY,
    RuntimeConfig.EAGER_MAPS,
)

ZERO_COPY_CONFIGS = (
    RuntimeConfig.UNIFIED_SHARED_MEMORY,
    RuntimeConfig.IMPLICIT_ZERO_COPY,
    RuntimeConfig.EAGER_MAPS,
)

__all__ += ["ALL_CONFIGS", "ZERO_COPY_CONFIGS"]
