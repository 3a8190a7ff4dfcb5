"""MapPlace: placement model, per-socket walker, MC-A affinity lint and
the place differential (repro.check.static.place)."""

import json

import numpy as np
import pytest

from repro.check.registry import make_workload, workload_names
from repro.check.static.cost import CostEnv, CounterCell
from repro.check.static.differential import _forbid_simulation
from repro.check.static.extract import extract_workload
from repro.check.static.place import (
    DEFAULT_POINTS,
    PLACE_BOUNDED_KEYS,
    PlaceSpec,
    place_differential,
    place_findings,
    predict_card,
    predict_place,
)
from repro.cli import main
from repro.core import RuntimeConfig
from repro.core.config import ALL_CONFIGS
from repro.experiments.cache import CellCache, cell_digest
from repro.experiments.parallel import ExperimentCell, run_cells
from repro.memory import MIB
from repro.multisocket import make_placement
from repro.omp import MapClause, MapKind
from repro.workloads import Fidelity, TriadStream
from repro.workloads.base import Workload

IZC = RuntimeConfig.IMPLICIT_ZERO_COPY


# ---------------------------------------------------------------------------
# PlaceSpec: the pure placement rule
# ---------------------------------------------------------------------------


def test_remote_pages_unit_math():
    # first-touch: never remote
    assert PlaceSpec(2, "first-touch").remote_pages(100) == 0
    # one socket: nothing can be remote, any policy
    assert PlaceSpec(1, "interleave").remote_pages(100) == 0
    # interleave, 2 sockets: pages 0,2,4.. on socket 0
    assert PlaceSpec(2, "interleave", socket=0).remote_pages(5) == 2
    assert PlaceSpec(2, "interleave", socket=1).remote_pages(5) == 3
    assert PlaceSpec(2, "interleave", socket=1).remote_pages(1) == 1
    assert PlaceSpec(4, "interleave", socket=0).remote_pages(10) == 7
    # pinned: all-or-nothing
    assert PlaceSpec(2, "pinned", home=0, socket=0).remote_pages(7) == 0
    assert PlaceSpec(2, "pinned", home=1, socket=0).remote_pages(7) == 7
    assert PlaceSpec(2, "first-touch").remote_pages(0) == 0


def test_remote_pages_matches_simulator_placement_plan():
    """The static rule and the PlacementView's policy plan are the same
    function: remote_pages == |{i : plan[i] != socket}| for every point."""
    for n_sockets in (1, 2, 3, 4):
        for placement in ("first-touch", "interleave", "pinned:0", "pinned:1"):
            if placement == "pinned:1" and n_sockets == 1:
                continue
            policy = make_placement(placement)
            for socket in range(n_sockets):
                spec = PlaceSpec.parse(n_sockets, placement, socket=socket)
                for n_pages in (0, 1, 2, 5, 17, 64):
                    plan = policy.plan(socket, n_pages, n_sockets)
                    expected = sum(1 for o in plan if o != socket)
                    assert spec.remote_pages(n_pages) == expected, (
                        n_sockets, placement, socket, n_pages
                    )


def test_place_spec_validation():
    with pytest.raises(ValueError):
        PlaceSpec(0)
    with pytest.raises(ValueError):
        PlaceSpec(2, "weird")
    with pytest.raises(ValueError):
        PlaceSpec(2, "pinned", home=2)
    with pytest.raises(ValueError):
        PlaceSpec(2, socket=2)
    assert PlaceSpec.parse(2, "pinned:1").home == 1
    assert PlaceSpec.parse(2, "pinned:1").label() == "2-socket/pinned:1"


# ---------------------------------------------------------------------------
# MC-A lint: zero false positives on the clean registry, true positives
# on synthetic bad-placement workloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workload_names()))
def test_registry_is_clean_under_default_placement(name):
    ir = extract_workload(make_workload(name, Fidelity.TEST), name=name)
    assert place_findings(ir, PlaceSpec()) == []
    assert place_findings(ir, PlaceSpec(4, "first-touch")) == []
    # a 1-socket card has no link to pay, whatever the policy
    assert place_findings(ir, PlaceSpec(1, "interleave")) == []


class _BigKernelWorkload(Workload):
    """One kernel first-touching a 256 MiB mapped buffer."""

    name = "unit-place-big"

    def __init__(self):
        super().__init__(Fidelity.TEST)

    def make_body(self):
        outputs = self.outputs

        def body(th, tid):
            data = yield from th.alloc("data", 256 * MIB, payload=np.ones(8))
            yield from th.target(
                "k", 10.0,
                maps=[MapClause(data, MapKind.TOFROM)],
                fn=lambda a, g: a["data"].__iadd__(1.0),
            )
            outputs.put("done", 1.0)

        return body


class _ChurnLoopWorkload(Workload):
    """Per-iteration map churn + hot kernel over a 32 MiB buffer, behind
    a folded trip count beyond the unroll limit (a symbolic Loop node)."""

    name = "unit-place-churn"

    def __init__(self):
        super().__init__(Fidelity.TEST)

    def make_body(self):
        outputs = self.outputs

        def body(th, tid):
            data = yield from th.alloc("data", 32 * MIB, payload=np.ones(8))
            for _ in range(40):
                yield from th.target_enter_data([MapClause(data, MapKind.TO)])
                yield from th.target(
                    "k", 10.0, maps=[MapClause(data, MapKind.ALLOC)],
                )
                yield from th.target_exit_data(
                    [MapClause(data, MapKind.DELETE)]
                )
            outputs.put("done", 1.0)

        return body


def _rules(ir, spec):
    return sorted({f.rule_id for f in place_findings(ir, spec)})


def test_remote_storm_and_link_saturation_fire_when_pinned_remote():
    ir = extract_workload(_BigKernelWorkload(), name="unit-place-big")
    # 128 pages, all remote under pinned:1 -> fault storm + saturating copy
    assert _rules(ir, PlaceSpec(2, "pinned", home=1)) == ["MC-A01", "MC-A04"]
    # 64 of 128 pages remote under interleave: still a storm, and the
    # enter still streams 128 MiB over the link
    assert _rules(ir, PlaceSpec(2, "interleave")) == ["MC-A01", "MC-A04"]
    # local placements are silent
    assert _rules(ir, PlaceSpec(2, "first-touch")) == []
    assert _rules(ir, PlaceSpec(2, "pinned", home=0)) == []
    assert _rules(ir, PlaceSpec(1, "interleave")) == []


def test_churn_and_hot_loop_fire_when_placed_remote():
    ir = extract_workload(_ChurnLoopWorkload(), name="unit-place-churn")
    # 16 pages, 8 remote under interleave, 40 trips: 320 remote visits
    assert _rules(ir, PlaceSpec(2, "interleave")) == ["MC-A02", "MC-A03"]
    # fully remote, the per-iteration enter streams all 32 MiB over the
    # link and trips the saturation rule as well
    assert _rules(ir, PlaceSpec(2, "pinned", home=1)) == [
        "MC-A02", "MC-A03", "MC-A04"
    ]
    assert _rules(ir, PlaceSpec(2, "first-touch")) == []


def test_findings_carry_derived_matrices_and_spec_label():
    ir = extract_workload(_BigKernelWorkload(), name="unit-place-big")
    findings = place_findings(ir, PlaceSpec(2, "pinned", home=1))
    by_rule = {f.rule_id: f for f in findings}
    a01 = by_rule["MC-A01"]
    assert set(a01.breaks_under) == {
        RuntimeConfig.UNIFIED_SHARED_MEMORY, IZC
    }
    a04 = by_rule["MC-A04"]
    assert set(a04.breaks_under) == {RuntimeConfig.COPY}
    for f in findings:
        assert "2-socket/pinned:1" in f.message
        assert f.buffer == "data"


# ---------------------------------------------------------------------------
# the per-socket walker
# ---------------------------------------------------------------------------


def test_predict_place_splits_kernel_pages_exactly():
    ir = extract_workload(_BigKernelWorkload(), name="unit-place-big")
    env = CostEnv.for_config(IZC)
    remote_all = predict_place(ir, env, PlaceSpec(2, "pinned", home=1))
    assert remote_all.interval("remote_kernel_pages").is_exact
    assert remote_all.interval("remote_kernel_pages").lo == 128
    assert remote_all.interval("local_kernel_pages").lo == 0
    assert remote_all.interval("remote_kernel_bytes").lo == 128 * env.page_size
    local_all = predict_place(ir, env, PlaceSpec(2, "first-touch"))
    assert local_all.interval("remote_kernel_pages").lo == 0
    assert local_all.interval("local_kernel_pages").lo == 128
    # the remote fault share is bounded by the placement's remote pages
    iv = remote_all.interval("remote_fault_pages")
    assert iv.lo <= 128 and (iv.hi is None or iv.hi <= 128)


def test_predict_card_gives_idle_sockets_boot_only():
    ir = extract_workload(make_workload("triad", Fidelity.TEST), name="triad")
    preds = predict_card(ir, CostEnv.for_config(IZC), PlaceSpec(4, "pinned", home=1))
    assert len(preds) == 4
    for s, pred in enumerate(preds[1:], start=1):
        assert pred.interval("kernels").is_exact
        assert pred.interval("kernels").lo == 0
        assert pred.interval("memory_async_copy").lo == 3  # device init images
        for key in PLACE_BOUNDED_KEYS:
            assert pred.interval(key).is_zero, (s, key)


def test_prediction_phase_is_pure_static():
    """Every MapPlace prediction path must run with simulation poisoned."""
    ir = extract_workload(make_workload("triad", Fidelity.TEST), name="triad")
    with _forbid_simulation():
        for config in ALL_CONFIGS:
            env = CostEnv.for_config(config)
            for spec in DEFAULT_POINTS:
                predict_card(ir, env, spec)
        place_findings(ir, PlaceSpec())


# ---------------------------------------------------------------------------
# the place differential
# ---------------------------------------------------------------------------


def test_place_differential_subset_is_green():
    result = place_differential(
        ["triad", "first-touch", "global-broadcast", "qmcpack"]
    )
    assert result.false_positives == []
    bad = [c for c in result.cells if not c.ok]
    assert not bad, "\n".join(c.render() for c in bad)
    # all four configs x all three default points per workload, with one
    # cell per socket (2 + 2 + 4 sockets)
    assert len(result.cells) == 4 * len(ALL_CONFIGS) * 8
    # the interleaved/pinned points actually exercised remote telemetry
    remote = [
        c for c in result.cells
        if c.measured.get("remote_kernel_pages", 0) > 0
    ]
    assert remote, "no cell measured remote kernel pages"
    d = result.to_dict()
    assert d["ok"] and d["n_cells"] == len(result.cells)
    # the cost differential's cell type, carrying the analysis point
    for c in result.cells:
        assert isinstance(c, CounterCell) and c.spec in DEFAULT_POINTS
        assert set(PLACE_BOUNDED_KEYS) <= set(c.bounded)


def test_cli_differential_place_on_one_workload(tmp_path, capsys):
    path = tmp_path / "differential.json"
    assert main(["check", "triad", "--differential", "place", "--json",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert list(data) == ["place"]
    place = data["place"]
    assert place["ok"] is True and place["false_positives"] == []
    # one workload x 4 configs x (2 + 2 + 4) sockets of the default points
    assert place["n_cells"] == len(ALL_CONFIGS) * 8
    assert {c["workload"] for c in place["cells"]} == {"triad"}
    assert all(c["mismatches"] == [] for c in place["cells"])


# ---------------------------------------------------------------------------
# card cells: cache + parallel fan-out
# ---------------------------------------------------------------------------


def _triad():
    return TriadStream(fidelity=Fidelity.TEST)


def _card_cells():
    return [
        ExperimentCell(
            key=("card", placement), factory=_triad, config=IZC,
            seed=7, noise=False, metric="elapsed_us",
            topology=2, placement=placement,
        )
        for placement in ("first-touch", "interleave", "pinned:1")
    ]


def test_card_cell_digests_never_alias():
    cells = _card_cells()
    plain = ExperimentCell(
        key="plain", factory=_triad, config=IZC, seed=7, noise=False,
        metric="elapsed_us",
    )
    digests = [cell_digest(c) for c in cells] + [cell_digest(plain)]
    assert len(set(digests)) == len(digests)
    wider = ExperimentCell(
        key="w", factory=_triad, config=IZC, seed=7, noise=False,
        metric="elapsed_us", topology=4, placement="first-touch",
    )
    assert cell_digest(wider) not in digests


def test_card_cells_warm_cache_hit(tmp_path):
    cells = _card_cells()
    cache = CellCache(str(tmp_path / "cells"))
    cold = run_cells(cells, jobs=1, cache=cache)
    assert cache.stores == len(cells) and cache.hits == 0
    warm_cache = CellCache(str(tmp_path / "cells"))
    warm = run_cells(cells, jobs=1, cache=warm_cache)
    assert warm_cache.hits == len(cells) and warm_cache.stores == 0
    assert warm == cold


def test_card_cells_jobs_and_order_invariant():
    cells = _card_cells()
    serial = run_cells(cells, jobs=1)
    fanned = run_cells(cells, jobs=2)
    reversed_ = run_cells(list(reversed(cells)), jobs=2)
    assert fanned == serial
    assert reversed_ == serial
    # placement genuinely changes the measured number
    assert serial[("card", "pinned:1")].value > serial[("card", "first-touch")].value


def test_card_runs_are_seed_deterministic():
    from repro.multisocket import ApuCard, Topology

    def one():
        card = ApuCard(topology=Topology(n_sockets=2),
                       placement="interleave", seed=11)
        res = card.run_workload(_triad(), IZC)
        return (res.elapsed_us, res.sim_events,
                tuple(tuple(sorted(c.items())) for c in res.per_socket_counters))

    assert one() == one()
