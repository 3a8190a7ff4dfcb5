"""repro — a simulation-based reproduction of "Performance Analysis of
Runtime Handling of Zero-Copy for OpenMP Programs on MI300A APUs"
(Bertolli et al., SC 2024).

Quick start::

    from repro import ApuSystem, OpenMPRuntime, RuntimeConfig
    from repro.omp import MapClause, MapKind

    system = ApuSystem()
    runtime = OpenMPRuntime(system, RuntimeConfig.IMPLICIT_ZERO_COPY)

    def body(th, tid):
        import numpy as np
        x = yield from th.alloc("x", 1 << 24, payload=np.arange(16.0))
        yield from th.target(
            "double", 100.0,
            maps=[MapClause(x, MapKind.TOFROM)],
            fn=lambda args, g: args["x"].__imul__(2.0),
        )

    result = runtime.run(body)
    print(result.elapsed_us, result.hsa_trace.as_rows())

See ``examples/`` for realistic scenarios and ``benchmarks/`` for the
regeneration of every table and figure in the paper.
"""

from .core.config import (
    ALL_CONFIGS,
    ZERO_COPY_CONFIGS,
    ConfigError,
    RunEnvironment,
    RuntimeConfig,
    select_config,
)
from .core.params import CostModel
from .core.system import ApuSystem
from .omp.api import OmpThread
from .omp.mapping import MapClause, MapKind
from .omp.runtime import OpenMPRuntime, RunResult

__version__ = "1.0.0"

__all__ = [
    "ALL_CONFIGS",
    "ApuSystem",
    "ConfigError",
    "CostModel",
    "MapClause",
    "MapKind",
    "OmpThread",
    "OpenMPRuntime",
    "RunEnvironment",
    "RunResult",
    "RuntimeConfig",
    "ZERO_COPY_CONFIGS",
    "select_config",
    "__version__",
]
