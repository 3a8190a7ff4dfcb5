"""Static-cost-vs-simulation differential: MapCost's validation harness.

For every clean registry workload under every runtime configuration:

* the *predicted* side runs the cost walker over the extracted IR with
  ``ApuSystem.__init__`` poisoned (the prediction must be genuinely
  static — reusing the guard from the MapFlow differential);
* the *measured* side runs one noise-free simulation and harvests the
  HSA trace, the run ledger and the KFD driver counters.

The contract is two-tier (see :mod:`.model`): predicted HSA call counts
by API name, map-op counts and kernel launches must be **bit-exact**
singleton intervals equal to the measured telemetry; predicted copy
bytes, prefaulted pages and first-touch fault pages must *contain* the
measured value.  Any traced HSA API name the model does not know about
is also a failure — new simulator emission can't silently drift past
the predictor.

:class:`CounterCell`, :class:`CounterDifferential` and
:func:`harvest_counters` are shared with the MapPlace differential,
which applies the same contract per socket of a multi-socket card.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ....core.config import ALL_CONFIGS, RuntimeConfig
from ....core.params import CostModel
from ....workloads.base import Fidelity
from ...findings import Finding
from ..differential import _forbid_simulation
from ..extract import extract_workload
from .model import BOUNDED_KEYS, EXACT_KEYS, HSA_KEYS, CostEnv
from .walker import CostPrediction, predict_costs

if TYPE_CHECKING:  # pragma: no cover
    from ..place.model import PlaceSpec

__all__ = [
    "CounterCell",
    "CounterDifferential",
    "cost_differential",
    "harvest_counters",
    "measure_costs",
]


def harvest_counters(trace, ledger, **driver: int) -> Dict[str, int]:
    """The measured counters of one run: every traced HSA call count (so
    names the model does not know surface too), the ledger's map-op,
    kernel and copy counts, then the driver/placement counters given."""
    measured = {name: trace.count(name) for name in HSA_KEYS}
    for name in trace.names():
        measured.setdefault(name, trace.count(name))
    measured.update({
        "map_enters": ledger.n_map_enters,
        "map_exits": ledger.n_map_exits,
        "kernels": ledger.n_kernels,
        "h2d_bytes": ledger.h2d_bytes,
        "d2h_bytes": ledger.d2h_bytes,
        "shadow_bytes": ledger.shadow_bytes,
    })
    measured.update(driver)
    return measured


def measure_costs(workload, config: RuntimeConfig,
                  cost: Optional[CostModel] = None) -> Dict[str, int]:
    """Run one noise-free simulation and harvest the measured counters."""
    from ....core.system import ApuSystem
    from ....omp.runtime import OpenMPRuntime

    system = ApuSystem(cost=cost or CostModel(), seed=0)
    runtime = OpenMPRuntime(system, config)
    prepare = getattr(workload, "prepare", None)
    if prepare is not None:
        prepare(runtime)
    result = runtime.run(
        workload.make_body(),
        n_threads=workload.n_threads,
        outputs=workload.outputs.values,
    )
    return harvest_counters(
        system.hsa_trace, result.ledger,
        pages_prefaulted=system.driver.pages_prefaulted,
        pages_faulted=system.driver.xnack_faults_serviced,
    )


@dataclass
class CounterCell:
    """Predicted vs. measured counters for one differential cell: a
    (workload, config) pair of the cost differential, or one socket of a
    (workload, config, analysis point) cell of the place differential."""

    workload: str
    config: RuntimeConfig
    prediction: CostPrediction
    measured: Dict[str, int] = field(default_factory=dict)
    #: keys whose predicted interval must contain the measured value
    bounded: Tuple[str, ...] = BOUNDED_KEYS
    #: the place differential's analysis point (``None``: single socket)
    spec: Optional[PlaceSpec] = None
    socket: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def check(self) -> "CounterCell":
        for key in EXACT_KEYS:
            iv = self.prediction.interval(key)
            got = self.measured.get(key, 0)
            if not iv.is_exact or iv.lo != got:
                self.mismatches.append(
                    f"{key}: predicted {iv}, measured {got} (exact contract)"
                )
        for key in self.bounded:
            iv = self.prediction.interval(key)
            got = self.measured.get(key, 0)
            if not iv.contains(got):
                self.mismatches.append(
                    f"{key}: predicted {iv} does not contain measured {got}"
                )
        model = "cost" if self.spec is None else "place"
        known = set(EXACT_KEYS) | set(self.bounded)
        for key in sorted(set(self.measured) - known):
            if self.measured[key]:
                self.mismatches.append(
                    f"simulation traced {key!r} ({self.measured[key]}x), "
                    f"which the {model} model does not predict"
                )
        return self

    def render(self) -> str:
        point = ("" if self.spec is None
                 else f"{self.spec.label():<22} s{self.socket} ")
        head = (
            f"{self.workload:<18} {self.config.value:<22} {point}"
            f"{'ok' if self.ok else 'FAIL'}"
        )
        if self.ok:
            return head
        return head + "".join(f"\n    {m}" for m in self.mismatches)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "workload": self.workload,
            "config": self.config.value,
        }
        if self.spec is not None:
            out.update(spec=self.spec.label(), socket=self.socket)
        out.update(
            ok=self.ok,
            predicted={k: str(self.prediction.interval(k))
                       for k in EXACT_KEYS + self.bounded},
            measured=dict(self.measured),
            mismatches=list(self.mismatches),
        )
        return out


@dataclass
class CounterDifferential:
    """One cost or place sweep: every cell, plus the place differential's
    MC-A false-positive gate on the clean registry."""

    kind: str                                 #: "cost" or "place"
    cells: List[CounterCell] = field(default_factory=list)
    #: MC-A findings on the clean registry under the default first-touch
    #: analysis point — must be empty
    false_positives: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.false_positives and all(c.ok for c in self.cells)

    def render(self) -> str:
        lines = [c.render() for c in self.cells]
        for f in self.false_positives:
            lines.append(
                f"FALSE POSITIVE {f.rule_id} on clean workload "
                f"{f.workload!r} ({f.buffer})"
            )
        n_fail = sum(1 for c in self.cells if not c.ok)
        lines.append(
            f"{self.kind} differential: "
            f"{len(self.cells) - n_fail}/{len(self.cells)} cells ok, "
            f"{len(self.false_positives)} lint false positive(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "n_cells": len(self.cells),
            "false_positives": [
                {"rule": f.rule_id, "workload": f.workload, "buffer": f.buffer}
                for f in self.false_positives
            ],
            "cells": [c.to_dict() for c in self.cells],
        }


def cost_differential(
    names: Optional[Sequence[str]] = None,
    *,
    fidelity: Fidelity = Fidelity.TEST,
    configs: Sequence[RuntimeConfig] = ALL_CONFIGS,
    cost: Optional[CostModel] = None,
) -> CounterDifferential:
    """Run the full predicted-vs-measured sweep.

    The static phase (extraction + cost walk for every configuration)
    runs with ``ApuSystem`` poisoned; only then does the measured phase
    simulate each cell.
    """
    from ...registry import WORKLOADS, make_workload

    names = list(names) if names is not None else sorted(WORKLOADS)
    predictions: Dict[tuple, CostPrediction] = {}
    with _forbid_simulation():
        for name in names:
            ir = extract_workload(make_workload(name, fidelity), name=name)
            for config in configs:
                predictions[(name, config)] = predict_costs(
                    ir, CostEnv.for_config(config, cost)
                )
    result = CounterDifferential("cost")
    for name in names:
        for config in configs:
            measured = measure_costs(make_workload(name, fidelity), config, cost)
            result.cells.append(CounterCell(
                workload=name,
                config=config,
                prediction=predictions[(name, config)],
                measured=measured,
            ).check())
    return result
