"""The benchmark's three workloads and their correctness digests.

Each workload is a closed loop: one process runs its operations back to
back with ``jobs=1``.  A *pass* is one run of every operation:

* ``qmc_t8``: one Fig 4 row, QMCPack NiO S8 with 8 host threads at
  ``Fidelity.TEST``, all four configurations, one noiseless rep,
  through ``collect_qmcpack_grid``.  An operation is one cell.
* ``spec_t2``: the Table II protocol (``table2_specaccel``), five
  SPECaccel proxies x four configurations, one noisy rep at
  ``Fidelity.FULL``.  An operation is one cell.
* ``mapcheck``: ``check_all(TEST, static, dynamic, perf)``, then
  ``place_report`` for every registry workload at the default 2-socket
  first-touch point, then ``fix_differential(dynamic=False)``.  An
  operation is one report or one fix verdict.

Every operation yields a digest of its simulated observables; the
digests are pinned in ``pins.json`` (see ``pin.py``) and an operation
fails if it raises or its digest differs from the pin.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from layers import MAPCHECK_LAYERS, SIM_LAYERS
from spans import Patcher, Tracer

#: the seed picks one of this many pinned input variants
SEED_VARIANTS = 4

CONFIG_LABELS = {
    "copy": "copy",
    "usm": "usm",
    "implicit_zero_copy": "izc",
    "eager_maps": "eager",
}


def seed0_of(seed: int) -> int:
    """Base simulation seed of the cells for a benchmark ``--seed``."""
    return 1000 + 16 * (seed % SEED_VARIANTS)


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def _canonical(value):
    if isinstance(value, np.ndarray):
        h = hashlib.sha256(value.tobytes()).hexdigest()
        return {"dtype": value.dtype.str, "shape": list(value.shape), "sha256": h}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return repr(value)


def digest(payload) -> str:
    text = json.dumps(_canonical(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def run_digest(run) -> str:
    """Digest of one RunResult's simulated observables."""
    return digest({
        "steady_us": repr(run.steady_us),
        "elapsed_us": repr(run.elapsed_us),
        "init_us": repr(run.init_us),
        "sim_events": run.sim_events,
        "ledger": dataclasses.asdict(run.ledger),
        "hsa": [(name, st.count, repr(st.total_us))
                for name, st in sorted(run.hsa_trace.stats.items())],
        "outputs": run.outputs,
    })


def key_label(key) -> str:
    parts = key if isinstance(key, tuple) else (key,)
    return "/".join(p.value if isinstance(p, enum.Enum) else str(p) for p in parts)


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Op:
    """One checked operation of a pass."""

    key: str
    digest: str
    wall_s: float = 0.0
    config: Optional[str] = None


@dataclasses.dataclass
class PassResult:
    wall_s: float
    ops: List[Op]
    sim_events: int
    #: RunLedger fields summed over every simulated run of the pass
    ledger: Dict[str, float]
    #: workload-level results beyond the ops (e.g. the Table II error)
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    error: Optional[str] = None


class Context:
    """Runs passes, optionally under a tracer (spans from ``layers``) or
    a machine-speed ``sampler`` (``calibrate.Sampler``), whose probe time
    is left out of pass and cell wall times."""

    def __init__(self, tracer: Optional[Tracer] = None, sampler=None):
        self.tracer = tracer
        self.sampler = sampler

    @property
    def probe_s(self) -> float:
        return self.sampler.probe_s if self.sampler is not None else 0.0

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(layer, fn, *args, **kwargs)


class Case:
    """A workload: ``build`` is its set-up, ``run_pass`` one pass."""

    name = ""
    n_ops = 0
    #: run one untimed pass first (lazy imports, sandbox module loading)
    warmup = False
    #: host seconds of one pass on the reference machine; a run does
    #: ``round(--seconds / nominal_pass_s)`` passes
    nominal_pass_s = 1.0
    #: layers a traced pass must reach (zero spans fails the run)
    layers = SIM_LAYERS

    def __init__(self, seed: int):
        self.seed = seed
        self.seed0 = seed0_of(seed)

    def params(self) -> Dict[str, object]:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def run_pass(self, ctx: Context) -> PassResult:
        import repro.omp.runtime as omp_runtime

        runs: List[object] = []
        original = omp_runtime.OpenMPRuntime.run

        def collecting_run(rt, *args, **kwargs):
            run = original(rt, *args, **kwargs)
            runs.append(run)
            return run

        ops: List[Op] = []
        extra: Dict[str, float] = {}
        error = None
        with Patcher() as patcher:
            patcher.set(omp_runtime.OpenMPRuntime, "run", collecting_run)
            t0, probe0 = time.perf_counter(), ctx.probe_s
            try:
                self._run(ctx, ops, extra, runs)
            except Exception as exc:  # noqa: BLE001 - a raising pass fails its ops
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0 - (ctx.probe_s - probe0)
        ledger: Dict[str, float] = {}
        for run in runs:
            for name, v in dataclasses.asdict(run.ledger).items():
                ledger[name] = ledger.get(name, 0) + v
        return PassResult(
            wall_s=wall, ops=ops, sim_events=sum(r.sim_events for r in runs),
            ledger=ledger, extra=extra, error=error,
        )

    def _run(self, ctx: Context, ops: List[Op], extra: Dict[str, float],
             runs: List[object]) -> None:
        """One pass; ``runs`` collects every ``RunResult`` as it is made."""
        raise NotImplementedError


class GridCase(Case):
    """Runs experiment cells through a figure/table driver, timing each
    call of the program's serial cell executor and digesting the run it
    made."""

    def _drive(self, ctx: Context, extra: Dict[str, float]) -> None:
        raise NotImplementedError

    def _run(self, ctx, ops, extra, runs):
        import repro.experiments.parallel as parallel

        original = parallel._execute_cell

        def timed_cell(cell):
            if ctx.tracer is not None:
                cell = dataclasses.replace(
                    cell, factory=functools.partial(ctx.span, "workloads", cell.factory))
            t0, probe0 = time.perf_counter(), ctx.probe_s
            key, outcome = original(cell)
            wall = time.perf_counter() - t0 - (ctx.probe_s - probe0)
            ops.append(Op(
                key=key_label(key),
                digest=ctx.span("harness", run_digest, runs[-1]),
                wall_s=wall,
                config=CONFIG_LABELS[cell.config.value],
            ))
            return key, outcome

        with Patcher() as patcher:
            patcher.set(parallel, "_execute_cell", timed_cell)
            self._drive(ctx, extra)


class QmcT8(GridCase):
    name = "qmc_t8"
    nominal_pass_s = 6.5
    n_ops = 4
    size, threads = 8, 8

    def params(self):
        return {"driver": "collect_qmcpack_grid", "size": self.size,
                "threads": self.threads, "fidelity": "test", "reps": 1,
                "noise": False, "jobs": 1, "seed0": self.seed0}

    def build(self):
        from repro.experiments.figures import collect_qmcpack_grid  # noqa: F401
        from repro.workloads.base import Fidelity
        from repro.workloads.qmcpack import QmcPackNio

        QmcPackNio(size=self.size, n_threads=self.threads, fidelity=Fidelity.TEST)

    def _drive(self, ctx, extra):
        import repro.experiments.figures as figures
        from repro.workloads.base import Fidelity

        figures.collect_qmcpack_grid(
            sizes=(self.size,), threads=(self.threads,), fidelity=Fidelity.TEST,
            reps=1, noise=False, jobs=1, seed0=self.seed0,
        )


class SpecT2(GridCase):
    name = "spec_t2"
    n_ops = 20
    nominal_pass_s = 28.0

    def params(self):
        return {"driver": "table2_specaccel", "benchmarks": "stencil,lbm,ep,spC,bt",
                "fidelity": "full", "reps": 1, "noise": True, "jobs": 1,
                "seed0": self.seed0}

    def build(self):
        from repro.experiments.tables import table2_specaccel  # noqa: F401
        from repro.workloads.base import Fidelity
        from repro.workloads.specaccel import ALL_BENCHMARKS

        for cls in ALL_BENCHMARKS.values():
            cls(fidelity=Fidelity.FULL)

    def _drive(self, ctx, extra):
        import repro.experiments.tables as tables

        result = tables.table2_specaccel(reps=1, jobs=1, seed0=self.seed0)
        errs = [abs(result.ratios[name][cfg] - paper) / paper
                for name, by_cfg in tables.PAPER_TABLE2.items()
                for cfg, paper in by_cfg.items()]
        extra["table2_err_pct"] = 100.0 * sum(errs) / len(errs)


class MapCheck(Case):
    name = "mapcheck"
    warmup = True
    nominal_pass_s = 2.3
    layers = MAPCHECK_LAYERS

    def __init__(self, seed):
        super().__init__(seed)
        self.names: List[str] = []

    @property
    def n_ops(self):
        from repro.check.corpus import CORPUS, PERF_CORPUS

        return 2 * len(self.names) + len(CORPUS) + len(PERF_CORPUS)

    def params(self):
        return {"check_all": "fidelity=test static dynamic perf",
                "place_report": "2-socket first-touch, every registry workload",
                "fix_differential": "dynamic=False", "jobs": 1,
                "place_order_seed": self.seed}

    def build(self):
        import random

        from repro.check import workload_names
        from repro.check.registry import make_workload
        from repro.check.static.fix import fix_differential  # noqa: F401
        from repro.check.static.place import place_report  # noqa: F401
        from repro.workloads.base import Fidelity

        # the seed orders the placement reports; results are per workload
        self.names = sorted(workload_names())
        random.Random(self.seed).shuffle(self.names)
        for name in self.names:
            make_workload(name, Fidelity.TEST)

    def _run(self, ctx, ops, extra, runs):
        from repro.check import check_all
        from repro.check.registry import make_workload
        from repro.check.static.fix import fix_differential
        from repro.check.static.place import PlaceSpec, place_report
        from repro.workloads.base import Fidelity

        def add(key, payload):
            ops.append(Op(key=key, digest=ctx.span("harness", digest, payload)))

        for rep in check_all(Fidelity.TEST, static=True, dynamic=True, perf=True):
            add(f"check/{rep.workload}", rep.to_dict())
        spec = PlaceSpec()
        for name in self.names:
            rep = place_report(make_workload(name, Fidelity.TEST), name=name, spec=spec)
            add(f"place/{name}", rep.to_dict())
        diff = fix_differential(dynamic=False)
        for name, res in diff.results.items():
            report = res.report.to_dict() if res.report is not None else None
            add(f"fix/{name}", {"result": res.to_dict(), "report": report,
                                "mismatches": [m for m in diff.mismatches
                                               if m.startswith(f"{name}:")]})


CASES = {c.name: c for c in (QmcT8, SpecT2, MapCheck)}
WORKLOADS = tuple(CASES)


def make(name: str, seed: int) -> Case:
    return CASES[name](seed)
