"""Place differential: per-socket predicted counters vs. card telemetry.

The MapCost differential validates the single-socket cost walker; this
harness extends it along the topology axis.  For every clean registry
workload, every runtime configuration and a set of (topology, placement)
analysis points:

* the *predicted* side extracts the workload once and runs the MapPlace
  walker (:func:`~.walker.predict_card`) for every (config, point) pair
  with ``ApuSystem.__init__`` poisoned — the prediction phase must not
  simulate anything;
* the *measured* side runs one noise-free :class:`~repro.multisocket.card.ApuCard`
  simulation per cell with every host thread pinned to the executing
  socket, and harvests per-socket HSA traces, run ledgers and
  driver/placement counters.

The contract is MapCost's two-tier contract per socket (the same
:class:`~..cost.differential.CounterCell` check and counter harvest): HSA call
counts, map-op counts and kernel launches bit-exact; byte/page counters
*and* the new remote/local placement counters inside the predicted
intervals.  Unknown traced keys with nonzero counts fail.

The harness also carries the affinity-lint false-positive gate: under
the default first-touch analysis point the clean registry must produce
zero MC-A findings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ....core.config import ALL_CONFIGS, RuntimeConfig
from ....core.params import CostModel
from ....workloads.base import Fidelity
from ..cost.differential import CounterCell, CounterDifferential, harvest_counters
from ..cost.model import BOUNDED_KEYS, CostEnv
from ..cost.walker import CostPrediction
from ..differential import _forbid_simulation
from ..extract import extract_workload
from .model import PLACE_BOUNDED_KEYS, PlaceSpec
from .rules import place_findings
from .walker import predict_card

__all__ = ["DEFAULT_POINTS", "measure_place", "place_differential"]

#: default (topology, placement) sweep: no remote pages, a ~50/50 split,
#: and an everything-remote point on a wider card
DEFAULT_POINTS: Tuple[PlaceSpec, ...] = (
    PlaceSpec(n_sockets=2, placement="first-touch"),
    PlaceSpec(n_sockets=2, placement="interleave"),
    PlaceSpec(n_sockets=4, placement="pinned", home=1),
)

#: the per-socket card counters the harvest adds to the traced ones
_CARD_KEYS: Tuple[str, ...] = (
    ("pages_prefaulted", "pages_faulted") + PLACE_BOUNDED_KEYS
)


def measure_place(
    workload,
    config: RuntimeConfig,
    spec: PlaceSpec,
    cost: Optional[CostModel] = None,
) -> List[Dict[str, int]]:
    """Run one noise-free card simulation for an analysis point and
    harvest the measured counters of every socket."""
    from ....multisocket.card import ApuCard

    card = ApuCard(
        topology=spec.topology(),
        placement=spec.placement_spec(),
        cost=cost or CostModel(),
        seed=0,
    )
    res = card.run_workload(workload, config)
    return [
        harvest_counters(
            res.per_socket_traces[s], res.per_socket_ledgers[s],
            **{k: res.per_socket_counters[s][k] for k in _CARD_KEYS},
        )
        for s in range(res.n_sockets)
    ]


def place_differential(
    names: Optional[Sequence[str]] = None,
    *,
    fidelity: Fidelity = Fidelity.TEST,
    configs: Sequence[RuntimeConfig] = ALL_CONFIGS,
    points: Sequence[PlaceSpec] = DEFAULT_POINTS,
    cost: Optional[CostModel] = None,
) -> CounterDifferential:
    """Run the predicted-vs-measured sweep over every (workload, config,
    analysis point) cell.

    The static phase (extraction + place walk for every configuration and
    point, plus the affinity-lint false-positive gate) runs with
    ``ApuSystem`` poisoned; only then does the measured phase simulate.
    """
    from ...registry import WORKLOADS, make_workload

    names = list(names) if names is not None else sorted(WORKLOADS)
    predictions: Dict[tuple, List[CostPrediction]] = {}
    result = CounterDifferential("place")
    with _forbid_simulation():
        for name in names:
            ir = extract_workload(make_workload(name, fidelity), name=name)
            result.false_positives.extend(place_findings(ir, PlaceSpec()))
            for config in configs:
                env = CostEnv.for_config(config, cost)
                for spec in points:
                    predictions[(name, config, spec)] = predict_card(
                        ir, env, spec
                    )
    for name in names:
        for config in configs:
            for spec in points:
                per_socket = measure_place(
                    make_workload(name, fidelity), config, spec, cost
                )
                preds = predictions[(name, config, spec)]
                for s, measured in enumerate(per_socket):
                    result.cells.append(CounterCell(
                        workload=name,
                        config=config,
                        prediction=preds[s],
                        measured=measured,
                        bounded=BOUNDED_KEYS + PLACE_BOUNDED_KEYS,
                        spec=spec,
                        socket=s,
                    ).check())
    return result
