"""``python -m repro bench`` — micro/meso benchmark harness.

Six tiers, each emitting ``{name, wall_s, sim_events, events_per_s,
engine}`` entries into ``BENCH.json`` (schema ``repro-bench-v4``;
``--only scheduler|pagetable|meso|static`` restricts the run, and
every invocation also appends a timestamped copy of the report under
``benchmarks/history/``):

* **scheduler micro** — a host-thread call-chain workout (fused
  ``env.charge`` chains punctuated by real timeouts) run on the fast
  :class:`~repro.sim.Environment` and on
  :class:`~repro.sim.ReferenceEnvironment` — the events/sec ratio is the
  headline number for the engine fast path;
* **pagetable micro** — a translation workout (OS populate, XNACK fault
  service, prefault verify, bulk pool map/release, free + mmu shootdown)
  driven through the real :class:`~repro.driver.kfd.Kfd` /
  :class:`~repro.memory.os_alloc.OsAllocator` stack, once on the
  run-coalesced :class:`~repro.memory.pagetable.PageTable` and once on
  the historical :class:`~repro.memory.pagetable.FlatPageTable`;
* **meso** — one QMCPack NiO run end-to-end (events/s of the simulation
  engine as a whole);
* **experiment** — a full ``ratio_experiment`` serial vs. ``--jobs N``,
  which doubles as the parallel-equivalence check;
* **cell cache** — a small Fig. 3 grid collected cold then warm through
  a fresh :class:`~repro.experiments.cache.CellCache`;
* **static** — the static pipeline over the faulty corpus, per phase
  (extract, abstract interpretation, MapCost prediction, MapRace,
  MapFix remediation) plus an end-to-end ``check all --static --perf
  --no-sim`` pass; gated by the MapFix zero-fix pins.

Wall-clock numbers are hardware-dependent and never gate anything; the
**run-equivalence invariants** do (CI fails on them):

* fused fast-path engine vs. reference scheduler on a randomized
  differential (noisy multi-thread and noiseless single-thread QMCPack
  plus one SPECaccel workload, several configs): final ``env.now``, all
  ``*_us``/``*_faults`` telemetry, HSA call counts/rows, event counts,
  and functional kernel outputs bit-identical;
* run-table vs. flat-table parity on a randomized operation sequence
  (identical present/missing pages, per-origin histograms, per-page
  install/evict counters);
* ``jobs=N`` ratio-experiment summaries, ledgers, and event counts
  bit-identical to ``jobs=1``;
* the warm cache run performs **zero** simulation cells and reproduces
  the cold run's ratio grid exactly.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..core.config import ZERO_COPY_CONFIGS, RuntimeConfig
from ..core.params import CostModel
from ..driver.kfd import Kfd
from ..memory.layout import AddressRange
from ..memory.os_alloc import OsAllocator
from ..memory.pagetable import FlatPageTable, MapOrigin, PageTable
from ..memory.physical import PhysicalMemory
from ..sim import Environment, Mutex, ReferenceEnvironment
from ..workloads.base import Fidelity
from ..workloads.qmcpack import QmcPackNio
from ..workloads.specaccel import Stencil403
from .runner import execute, ratio_experiment

__all__ = [
    "BenchEntry",
    "BenchReport",
    "run_bench",
    "write_bench",
    "pagetable_parity",
    "engine_differential",
    "BENCH_TIERS",
]

#: ``--only`` tier names.  ``meso`` covers the end-to-end simulation
#: tiers (single QMCPack run, ratio experiment, cell cache); ``static``
#: times the static pipeline (extract / interp / cost / race / fix) over
#: the faulty corpus plus a ``check all --static --perf --no-sim``
#: end-to-end pass.
BENCH_TIERS = ("scheduler", "pagetable", "meso", "static")


@dataclass(frozen=True)
class BenchEntry:
    """One benchmark measurement (the BENCH.json entry schema).

    ``engine`` names the simulation engine that produced the entry
    (``fast`` / ``reference``), or ``n/a`` for measurements
    that do not run the event engine at all (pagetable micro-ops).
    """

    name: str
    wall_s: float
    sim_events: int
    events_per_s: float
    engine: str = "fast"

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "sim_events": self.sim_events,
            "events_per_s": self.events_per_s,
            "engine": self.engine,
        }


@dataclass
class BenchReport:
    """Everything one bench invocation produced."""

    quick: bool
    jobs: int
    #: tier filter the run was invoked with (None = all tiers)
    only: Optional[str] = None
    #: UTC timestamp of the run (ISO-8601, set by :func:`run_bench`)
    generated_utc: str = ""
    entries: List[BenchEntry] = field(default_factory=list)
    #: derived ratios (e.g. flat/runs pagetable wall-clock)
    speedups: Dict[str, float] = field(default_factory=dict)
    #: named invariants; *these* gate CI, timing never does
    equivalence: Dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.equivalence.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro-bench-v4",
            "quick": self.quick,
            "jobs": self.jobs,
            "only": self.only,
            "generated_utc": self.generated_utc,
            "entries": [e.to_dict() for e in self.entries],
            "speedups": self.speedups,
            "equivalence": self.equivalence,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def render(self) -> str:
        lines = [
            f"repro bench ({'quick' if self.quick else 'full'}, jobs={self.jobs})",
            "",
            f"  {'benchmark':<34} {'engine':>9} {'wall_s':>9} "
            f"{'events':>10} {'events/s':>12}",
        ]
        for e in self.entries:
            lines.append(
                f"  {e.name:<34} {e.engine:>9} {e.wall_s:>9.4f} "
                f"{e.sim_events:>10d} {e.events_per_s:>12.0f}"
            )
        lines.append("")
        for name, ratio in self.speedups.items():
            lines.append(f"  speedup {name}: {ratio:.2f}x")
        for name, passed in self.equivalence.items():
            lines.append(f"  equivalence {name}: {'PASS' if passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# scheduler micro tier (fused fast path vs. reference engine)
# ---------------------------------------------------------------------------


def _scheduler_workout(env, chains: int, chain_len: int) -> Tuple[float, int]:
    """A host-thread modeled-call pattern: chains of fixed bookkeeping
    charges around an uncontended lock, punctuated by real waits.

    This is the shape the HSA facade and the policies produce on one
    OpenMP host thread — exactly what ``env.charge`` fusion targets.
    Returns ``(final_now, processed_events)``.
    """
    lock = Mutex(env)

    def worker():
        for i in range(chains):
            for _ in range(chain_len):
                yield env.charge(0.25)
            grant = yield lock.acquire()
            try:
                yield env.charge(0.5)
            finally:
                lock.release(grant)
            if i % 8 == 0:
                yield env.timeout(2.0)

    env.run(env.process(worker(), name="sched-workout"))
    return env.now, env.processed_events


def _bench_scheduler(
    chains: int, chain_len: int
) -> Tuple[List[BenchEntry], Dict[str, float], Dict[str, bool]]:
    entries = []
    walls = {}
    observed = {}
    for label, cls in (("fused", Environment), ("reference", ReferenceEnvironment)):
        env = cls()
        t0 = time.perf_counter()
        observed[label] = _scheduler_workout(env, chains, chain_len)
        wall = time.perf_counter() - t0
        walls[label] = wall
        _, events = observed[label]
        entries.append(
            BenchEntry(
                name=f"scheduler_{label}_micro_{chains}c",
                wall_s=wall,
                sim_events=events,
                events_per_s=events / wall if wall > 0 else 0.0,
                engine="fast" if label == "fused" else "reference",
            )
        )
    speedup = (
        walls["reference"] / walls["fused"] if walls["fused"] > 0 else 0.0
    )
    equivalence = {
        "scheduler_micro_identical": observed["fused"] == observed["reference"]
    }
    return entries, {"scheduler_fused_vs_reference": speedup}, equivalence


def engine_differential(seed: int = 11, quick: bool = False) -> bool:
    """Randomized differential: fused fast-path engine vs. the reference
    scheduler on real workloads.

    QMCPack NiO and one SPECaccel proxy (403.stencil), several runtime
    configurations, randomized per-case seeds.  The noisy cases run
    contended multi-thread QMCPack; the noiseless single-thread case is
    the ``fig3 --quick`` t=1 shape.  Every simulated-time
    observable must be bit-identical: final clock, init/steady/elapsed
    times, phase marks, ledger telemetry (``*_us``/fault counts), HSA
    call rows, engine event counts, HBM high-water mark, and the
    functional kernel outputs.
    """
    rnd = random.Random(seed)
    fidelity = Fidelity.TEST
    cases = [
        (partial(QmcPackNio, size=4, n_threads=2, fidelity=fidelity),
         RuntimeConfig.COPY, True),
        (partial(QmcPackNio, size=4, n_threads=2, fidelity=fidelity),
         RuntimeConfig.IMPLICIT_ZERO_COPY, True),
        (partial(Stencil403, fidelity=fidelity),
         RuntimeConfig.EAGER_MAPS, True),
        (partial(QmcPackNio, size=2, n_threads=1, fidelity=fidelity),
         RuntimeConfig.IMPLICIT_ZERO_COPY, False),
        (partial(Stencil403, fidelity=fidelity),
         RuntimeConfig.UNIFIED_SHARED_MEMORY, True),
    ]
    if quick:
        cases = cases[1:4]
    for factory, config, noise in cases:
        case_seed = rnd.randrange(1 << 30)
        sides = {}
        for eng in ("fast", "reference"):
            workload = factory()
            run = execute(
                workload, config, seed=case_seed, noise=noise, engine=eng
            )
            sides[eng] = _run_observables(run, workload)
        if sides["fast"] != sides["reference"]:
            return False
    return True


def _run_observables(run, workload) -> Tuple:
    """Every simulated-time observable of one run (for differentials)."""
    import numpy as np

    return (
        run.elapsed_us,
        run.init_us,
        run.steady_us,
        run.sim_events,
        run.peak_hbm_bytes,
        dict(run.marks),
        run.ledger.summary(),
        run.hsa_trace.as_rows(),
        {k: np.asarray(v).tobytes()
         for k, v in sorted(workload.outputs.values.items())},
    )


# ---------------------------------------------------------------------------
# cell cache tier (cold vs. warm)
# ---------------------------------------------------------------------------


def _bench_cell_cache(
    jobs: int,
) -> Tuple[List[BenchEntry], Dict[str, float], Dict[str, bool]]:
    """Collect a small Fig. 3 grid cold then warm through a fresh cache."""
    import shutil
    import tempfile

    from .cache import CellCache
    from .figures import collect_qmcpack_grid

    root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    entries = []
    walls = {}
    grids = {}
    caches = {}
    try:
        for label in ("cold", "warm"):
            cache = CellCache(root)
            t0 = time.perf_counter()
            grid = collect_qmcpack_grid(
                sizes=(2,),
                threads=(1, 2),
                fidelity=Fidelity.TEST,
                reps=2,
                noise=True,
                jobs=jobs,
                cache=cache,
            )
            wall = time.perf_counter() - t0
            walls[label] = wall
            grids[label] = grid
            caches[label] = cache
            events = sum(r.sim_events for r in grid.cells.values())
            entries.append(
                BenchEntry(
                    name=f"fig3_cache_{label}",
                    wall_s=wall,
                    sim_events=events,
                    events_per_s=events / wall if wall > 0 else 0.0,
                )
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    speedups = {
        "cache_warm_vs_cold": (
            walls["cold"] / walls["warm"] if walls["warm"] > 0 else 0.0
        )
    }
    summaries = {
        label: {
            str(key): ratio.summary()
            for key, ratio in sorted(grid.cells.items())
        }
        for label, grid in grids.items()
    }
    equivalence = {
        # a warm run must simulate nothing: every cell served from disk
        "cache_warm_zero_cells": (
            caches["warm"].misses == 0 and caches["warm"].stores == 0
        ),
        "cache_values_identical": (
            json.dumps(summaries["cold"], sort_keys=True)
            == json.dumps(summaries["warm"], sort_keys=True)
        ),
    }
    return entries, speedups, equivalence


# ---------------------------------------------------------------------------
# pagetable micro tier
# ---------------------------------------------------------------------------


def _translation_workout(table_cls, n_pages: int, iters: int) -> int:
    """Drive every paper mechanism through a fresh driver stack built on
    ``table_cls``; returns the number of page-granular operations."""
    cost = CostModel()
    ps = cost.page_size
    physical = PhysicalMemory(
        total_bytes=max(4 * n_pages, 64) * ps, frame_bytes=ps
    )
    cpu_pt = table_cls(ps, "bench-cpu")
    gpu_pt = table_cls(ps, "bench-gpu")
    kfd = Kfd(cost, physical, cpu_pt, gpu_pt)
    os_alloc = OsAllocator(physical, cpu_pt, on_unmap=kfd.mmu_unmap)
    nbytes = n_pages * ps
    ops = 0
    for _ in range(iters):
        rng = os_alloc.alloc(nbytes)            # OS populate (install)
        kfd.service_xnack_faults([rng])         # XNACK replay (install)
        kfd.prefault(rng)                       # Eager verify pass
        dev, _ = kfd.bulk_map_new_memory(nbytes)  # bulk pool map
        kfd.release_pool_memory(dev)            # bulk evict
        os_alloc.free(rng)                      # evict + mmu shootdown
        ops += 6 * n_pages
    return ops


def _bench_pagetables(
    n_pages: int, iters: int
) -> Tuple[List[BenchEntry], Dict[str, float]]:
    entries = []
    walls = {}
    for label, cls in (("runs", PageTable), ("flat", FlatPageTable)):
        t0 = time.perf_counter()
        ops = _translation_workout(cls, n_pages, iters)
        wall = time.perf_counter() - t0
        walls[label] = wall
        entries.append(
            BenchEntry(
                name=f"pagetable_{label}_micro_{n_pages}p",
                wall_s=wall,
                sim_events=ops,
                events_per_s=ops / wall if wall > 0 else 0.0,
                engine="n/a",
            )
        )
    speedup = walls["flat"] / walls["runs"] if walls["runs"] > 0 else 0.0
    return entries, {"pagetable_runs_vs_flat": speedup}


# ---------------------------------------------------------------------------
# parity invariant (run engine vs. flat reference)
# ---------------------------------------------------------------------------


def _observable_state(pt, probe: AddressRange):
    return (
        len(pt),
        sorted(pt.pages()),
        pt.missing_pages(probe),
        pt.present_pages(probe),
        pt.coverage(probe),
        [(s, f, o.value) for s, f, o in pt.present_runs(probe)],
        [(r.start, r.nbytes) for r in pt.missing_runs(probe)],
        pt.frames_for(probe),
        {o.value: n for o, n in pt.origins_histogram().items()},
        pt.install_count,
        pt.evict_count,
    )


def pagetable_parity(seed: int = 7, rounds: int = 300) -> bool:
    """Randomized differential test: apply one operation sequence to both
    engines and compare every observable after each step."""
    import random

    rnd = random.Random(seed)
    ps = 4096  # small page size keeps arithmetic honest without big loops
    span_pages = 64
    probe = AddressRange(0, span_pages * ps)
    runs = PageTable(ps, "runs")
    flat = FlatPageTable(ps, "flat")
    origins = list(MapOrigin)
    for _step in range(rounds):
        op = rnd.random()
        start = rnd.randrange(span_pages) * ps
        n = rnd.randrange(1, min(9, span_pages - start // ps + 1))
        rng = AddressRange(start, n * ps)
        origin = rnd.choice(origins)
        frames = [rnd.randrange(1 << 20) for _ in range(n)]
        if op < 0.45:
            outcomes = []
            for pt in (runs, flat):
                try:
                    pt.install_range(rng, frames, origin)
                    outcomes.append("ok")
                except KeyError as exc:
                    # errors carry the table name; compare the page only
                    outcomes.append("err:" + str(exc).split(" already")[0])
            if outcomes[0] != outcomes[1]:
                return False
        elif op < 0.75:
            a = runs.evict_range(rng)
            b = flat.evict_range(rng)
            if a != b:
                return False
        elif op < 0.9:
            outcomes = []
            for pt in (runs, flat):
                try:
                    outcomes.append(("pte", pt.evict(start)))
                except KeyError:
                    outcomes.append(("err",))
            if outcomes[0] != outcomes[1]:
                return False
        else:
            na, fa = runs.evict_range_frames(rng)
            nb, fb = flat.evict_range_frames(rng)
            if (na, fa) != (nb, fb):
                return False
        if _observable_state(runs, probe) != _observable_state(flat, probe):
            return False
    return True


# ---------------------------------------------------------------------------
# static-pipeline tier (extract / interp / cost / race / fix + end-to-end)
# ---------------------------------------------------------------------------


def _bench_static(
    quick: bool,
) -> Tuple[List[BenchEntry], Dict[str, float], Dict[str, bool]]:
    """Time the static-analysis pipeline, per phase and end-to-end.

    Per-phase entries walk the whole faulty corpus (the static
    analyses' design target); ``sim_events`` counts the IR ops (or
    op x config cells) each phase processed, so events/s tracks
    analysis throughput the way the engine tiers track event
    throughput.  The end-to-end entry is ``check all --static --perf
    --no-sim`` over the bundled workloads.  The gating invariant is the
    MapFix corpus differential in static-only mode: every zero-fix pin
    must hold (no speculative edits) regardless of timing.
    """
    from ..check.corpus import CORPUS, PERF_CORPUS
    from ..check.runner import check_all
    from ..check.static.cost import CostEnv, predict_costs
    from ..check.static.extract import extract_workload
    from ..check.static.fix import fix_differential
    from ..check.static.interp import analyze_ir
    from ..check.static.ir import Branch, Loop
    from ..check.static.race.rules import race_findings

    corpus = {**CORPUS, **PERF_CORPUS}

    def _count_ops(ir) -> int:
        def walk(seq) -> int:
            total = 0
            for item in seq.items:
                if isinstance(item, Branch):
                    total += walk(item.then) + walk(item.orelse)
                elif isinstance(item, Loop):
                    total += walk(item.body)
                else:
                    total += 1
            return total

        return sum(walk(th.body) for th in ir.threads)

    entries: List[BenchEntry] = []

    t0 = time.perf_counter()
    irs = {name: extract_workload(cls(), name=cls().name)
           for name, cls in corpus.items()}
    wall = time.perf_counter() - t0
    ops = sum(_count_ops(ir) for ir in irs.values())
    entries.append(BenchEntry(
        name="static_extract_corpus", wall_s=wall, sim_events=ops,
        events_per_s=ops / wall if wall > 0 else 0.0, engine="n/a"))

    t0 = time.perf_counter()
    for ir in irs.values():
        analyze_ir(ir)
    wall = time.perf_counter() - t0
    entries.append(BenchEntry(
        name="static_interp_corpus", wall_s=wall, sim_events=ops,
        events_per_s=ops / wall if wall > 0 else 0.0, engine="n/a"))

    t0 = time.perf_counter()
    cells = 0
    for ir in irs.values():
        for config in RuntimeConfig:
            predict_costs(ir, CostEnv.for_config(config))
            cells += _count_ops(ir)
    wall = time.perf_counter() - t0
    entries.append(BenchEntry(
        name="static_cost_corpus", wall_s=wall, sim_events=cells,
        events_per_s=cells / wall if wall > 0 else 0.0, engine="n/a"))

    t0 = time.perf_counter()
    for ir in irs.values():
        race_findings(ir)
    wall = time.perf_counter() - t0
    entries.append(BenchEntry(
        name="static_race_corpus", wall_s=wall, sim_events=ops,
        events_per_s=ops / wall if wall > 0 else 0.0, engine="n/a"))

    t0 = time.perf_counter()
    fix_diff = fix_differential(dynamic=False)
    wall = time.perf_counter() - t0
    n_corpus = len(corpus)
    entries.append(BenchEntry(
        name="static_fix_corpus", wall_s=wall, sim_events=n_corpus,
        events_per_s=n_corpus / wall if wall > 0 else 0.0, engine="n/a"))

    t0 = time.perf_counter()
    reports = check_all(Fidelity.TEST, static=True, dynamic=False, perf=True)
    wall = time.perf_counter() - t0
    n_findings = max(1, sum(len(r.findings) for r in reports))
    entries.append(BenchEntry(
        name="static_check_all_e2e", wall_s=wall, sim_events=n_findings,
        events_per_s=n_findings / wall if wall > 0 else 0.0, engine="n/a"))

    equivalence = {"static_fix_differential": fix_diff.ok}
    return entries, {}, equivalence


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def run_bench(
    *,
    quick: bool = False,
    jobs: int = 4,
    progress=None,
    only: Optional[str] = None,
) -> BenchReport:
    """Run the bench tiers; returns the report (``report.ok`` gates CI).

    ``only`` restricts the run to one tier from :data:`BENCH_TIERS`
    (``meso`` covers the single-run, ratio-experiment and cell-cache
    tiers); None runs everything.
    """
    if only is not None and only not in BENCH_TIERS:
        raise ValueError(
            f"unknown bench tier {only!r}; expected one of {BENCH_TIERS}"
        )
    report = BenchReport(
        quick=quick,
        jobs=jobs,
        only=only,
        generated_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )

    def note(msg):
        if progress is not None:
            progress(msg)

    def want(tier):
        return only is None or only == tier

    # -- tier 0: scheduler micro (fused vs reference engine) ------------
    if want("scheduler"):
        chains, chain_len = (5000, 8) if quick else (20000, 8)
        note(f"scheduler micro ({chains} chains x {chain_len} charges)")
        entries, speedups, equivalence = _bench_scheduler(chains, chain_len)
        report.entries.extend(entries)
        report.speedups.update(speedups)
        report.equivalence.update(equivalence)

        note("engine differential (fused vs reference, randomized)")
        report.equivalence["scheduler_differential"] = engine_differential(
            quick=quick
        )

    # -- tier 1: pagetable micro-ops ------------------------------------
    if want("pagetable"):
        n_pages, iters = (256, 30) if quick else (1024, 60)
        note(f"pagetable micro ({n_pages} pages x {iters} iters)")
        entries, speedups = _bench_pagetables(n_pages, iters)
        report.entries.extend(entries)
        report.speedups.update(speedups)

        note("pagetable parity (randomized differential)")
        report.equivalence["pagetable_parity"] = pagetable_parity()

    if want("meso"):
        # -- tier 2: one QMCPack run ------------------------------------
        size = 8 if quick else 32
        fidelity = Fidelity.TEST if quick else Fidelity.BENCH
        note(f"qmcpack S{size} single run")
        t0 = time.perf_counter()
        run = execute(
            QmcPackNio(size=size, n_threads=8, fidelity=fidelity),
            RuntimeConfig.IMPLICIT_ZERO_COPY,
        )
        wall = time.perf_counter() - t0
        report.entries.append(
            BenchEntry(
                name=f"qmcpack_s{size}_izc",
                wall_s=wall,
                sim_events=run.sim_events,
                events_per_s=run.sim_events / wall if wall > 0 else 0.0,
            )
        )

        # -- tier 3: full ratio experiment, serial vs parallel -----------
        reps = 2 if quick else 4
        exp_size = 2 if quick else 32
        exp_fidelity = Fidelity.TEST if quick else Fidelity.BENCH
        factory = partial(
            QmcPackNio, size=exp_size, n_threads=4, fidelity=exp_fidelity
        )
        configs = [RuntimeConfig.COPY] + list(ZERO_COPY_CONFIGS)
        results = {}
        walls = {}
        for label, n_jobs in (("serial", 1), (f"jobs{jobs}", jobs)):
            note(f"ratio experiment S{exp_size} x {reps} reps ({label})")
            t0 = time.perf_counter()
            results[label] = ratio_experiment(
                factory, configs, reps=reps, jobs=n_jobs
            )
            walls[label] = time.perf_counter() - t0
            report.entries.append(
                BenchEntry(
                    name=f"ratio_qmcpack_s{exp_size}_{label}",
                    wall_s=walls[label],
                    sim_events=results[label].sim_events,
                    events_per_s=(
                        results[label].sim_events / walls[label]
                        if walls[label] > 0
                        else 0.0
                    ),
                )
            )
        serial, par = results["serial"], results[f"jobs{jobs}"]
        report.speedups["ratio_parallel_vs_serial"] = (
            walls["serial"] / walls[f"jobs{jobs}"]
            if walls[f"jobs{jobs}"] > 0
            else 0.0
        )
        report.equivalence["parallel_summary_identical"] = (
            json.dumps(serial.summary(), sort_keys=True)
            == json.dumps(par.summary(), sort_keys=True)
        )
        report.equivalence["parallel_ledgers_identical"] = (
            serial.ledgers == par.ledgers
            and serial.sim_events == par.sim_events
        )

        # -- tier 5: cell cache cold vs warm ----------------------------
        note("cell cache (fig3 grid, cold vs warm)")
        entries, speedups, equivalence = _bench_cell_cache(jobs)
        report.entries.extend(entries)
        report.speedups.update(speedups)
        report.equivalence.update(equivalence)

    # -- tier 6: static pipeline (extract/interp/cost/race/fix) ---------
    if want("static"):
        note("static pipeline (corpus phases + check all --static --perf)")
        entries, speedups, equivalence = _bench_static(quick)
        report.entries.extend(entries)
        report.speedups.update(speedups)
        report.equivalence.update(equivalence)
    return report


def write_bench(
    path: str = "BENCH.json",
    *,
    quick: bool = False,
    jobs: int = 4,
    progress=None,
    only: Optional[str] = None,
    history_dir: Optional[str] = "benchmarks/history",
) -> BenchReport:
    """Run the bench and persist BENCH.json (the CI entry point).

    ``path`` always holds the *latest* report; every invocation also
    appends a timestamped copy under ``history_dir`` (schema
    ``repro-bench-v4``), giving CI an artifact trail of events/s over
    time.  Pass ``history_dir=None`` to skip the history write.
    """
    import os

    report = run_bench(quick=quick, jobs=jobs, progress=progress, only=only)
    report.write_json(path)
    if history_dir:
        os.makedirs(history_dir, exist_ok=True)
        stamp = report.generated_utc.replace(":", "").replace("-", "")
        report.write_json(
            os.path.join(history_dir, f"bench-{stamp}.json")
        )
    return report
