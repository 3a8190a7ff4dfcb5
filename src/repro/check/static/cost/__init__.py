"""MapCost: symbolic static cost prediction over the MapFlow IR.

The paper's headline artifacts are *counts and costs* — HSA call
statistics (Table I), pages prefaulted vs. XNACK-faulted, copy bytes,
and the MM/MI overhead decomposition.  MapCost predicts those per-config
counts directly from the extracted IR, without constructing a simulator:

* :mod:`.intervals` — the ``[lo, hi]`` integer interval domain;
* :mod:`.model` — the per-config HSA emission model (device init, the
  libomptarget MemoryManager buckets, counter key taxonomy);
* :mod:`.walker` — the abstract cost interpreter over the structured IR;
* :mod:`.rules` — the MC-W perf-lint rules and their config matrices;
* :mod:`.differential` — static-vs-simulated validation (bit-exact HSA
  and map-op counts, interval containment for bytes and pages).
"""

from .differential import CounterCell, CounterDifferential, cost_differential
from .intervals import Interval
from .model import (
    ALL_KEYS,
    BOUNDED_KEYS,
    EXACT_KEYS,
    HSA_KEYS,
    CostEnv,
    device_init_counts,
)
from .rules import PERF_RULE_IDS, perf_report
from .walker import CostPrediction, predict_costs

__all__ = [
    "Interval",
    "CostEnv",
    "CostPrediction",
    "CounterCell",
    "CounterDifferential",
    "ALL_KEYS",
    "BOUNDED_KEYS",
    "EXACT_KEYS",
    "HSA_KEYS",
    "PERF_RULE_IDS",
    "device_init_counts",
    "predict_costs",
    "perf_report",
    "cost_differential",
]
