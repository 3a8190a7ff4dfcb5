"""End-to-end benchmark of the simulator, with per-layer host time.

Run from the repository root::

    python3 perfbench/run.py --workload qmc_t8 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` adds one traced pass and reports per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine, the workload's parameters and every pass and
cell wall time.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
#: set-up is timed this many times per run (fresh processes); the median counts
SETUP_SAMPLES = 7
CALL_COUNTERS = ("sim.mutex_acquires", "hsa.calls", "memory.calls",
                 "driver.calls", "check.static.extract.calls")
#: exact simulated quantities: (metric, unit, RunLedger field)
LEDGER_METRICS = (
    ("omp.kernels", "count", "n_kernels"),
    ("driver.faulted_pages", "count", "n_faulted_pages"),
    ("core.mm_alloc_us", "us", "mm_alloc_us"),
    ("core.mm_copy_us", "us", "mm_copy_us"),
    ("driver.prefault_us", "us", "prefault_us"),
    ("driver.mi_us", "us", "mi_us"),
    ("workloads.kernel_us", "us", "kernel_compute_us"),
    ("omp.wait_us", "us", "wait_us"),
)
CONFIGS = ("copy", "usm", "izc", "eager")


def prepare_checkout(root: str) -> None:
    """Import the program from ``root/src``, keep temp files in ``root``
    and pin the process to one CPU."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program at {src}/repro; "
                 "run from the repository root")
    tmp = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    # one CPU for the run, its set-up processes and its speed probes, so
    # a probe measures the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    sys.path.insert(0, src)


def setup_times(workload: str, seed: int, root: str,
                probes: List[float]) -> List[float]:
    """Wall time of fresh processes that import the program and build the
    workload, i.e. process start to the point the first cell would run.
    A machine-speed probe runs before each and after the last (appended
    to ``probes``)."""
    from calibrate import probe

    script = os.path.join(HERE, "setup_probe.py")
    out = []
    for _ in range(SETUP_SAMPLES):
        probes.append(probe())
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in 50 ms steps
        subprocess.run([sys.executable, script, workload, str(seed)], cwd=root,
                       check=True)
        out.append(time.perf_counter() - t0)
    probes.append(probe())
    return out


def check_pass(case, result, pins) -> int:
    """Failed operations of one pass against the pinned digests."""
    expected = pins.get(case.name, {}).get(str(case.seed0), {})
    if result.error is not None:
        print(f"perfbench: pass raised {result.error}", file=sys.stderr)
        return max(case.n_ops, len(result.ops))
    got = {op.key: op.digest for op in result.ops}
    failed = [k for k in sorted(set(expected) | set(got))
              if expected.get(k) != got.get(k)]
    for k in failed:
        print(f"perfbench: {case.name} {k}: digest {got.get(k)} "
              f"!= pinned {expected.get(k)}", file=sys.stderr)
    return len(failed)


def n_passes(case, seconds: float) -> int:
    """The whole passes that fill ``seconds`` at the case's nominal pass
    time, at least one, so every run does the same work."""
    return max(1, round(seconds / case.nominal_pass_s))


def warmup(case) -> list:
    from cases import Context

    return [case.run_pass(Context())] if case.warmup else []


def run_passes(case, n: int):
    """``n`` timed passes.  Returns them with the peak RSS (MB) through
    the first one (later passes repeat the same work) and the
    machine-speed probes taken during the timed passes."""
    from calibrate import Sampler, probe
    from cases import Context

    with Sampler() as sampler:
        ctx = Context(sampler=sampler)
        timed = [case.run_pass(ctx)]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(n - 1):
            timed.append(case.run_pass(ctx))
    return timed, rss_mb, sampler.probes or [probe()]


def traced_pass(case):
    import layers
    from cases import Context
    from spans import Patcher, Tracer

    tracer = Tracer()
    with Patcher() as patcher:
        layers.install(tracer, patcher)
        result = case.run_pass(Context(tracer))
    silent = [layer for layer in case.layers if layer not in tracer.self_s]
    if silent:
        raise RuntimeError(f"layers with zero spans on {case.name}: {silent}")
    return tracer, result


def metric(value, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(timed, setup: List[float], rss_mb: float,
               scale: float) -> Dict[str, dict]:
    """Host times scaled to the reference machine's speed (``setup`` is
    already scaled)."""
    return {
        "wall_s": metric(scale * statistics.median(r.wall_s for r in timed), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "sim_events_per_s": metric(
            statistics.median(r.sim_events / r.wall_s for r in timed) / scale,
            "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(tracer, traced, timed, untraced_s: float) -> Dict[str, dict]:
    """``timed`` are the untraced passes (the traced one if there are
    none); ``untraced_s`` is the untraced pass time the tracing overhead
    is measured from."""
    from layers import LAYERS

    out = {f"{layer}.self_s": metric(tracer.self_s.get(layer, 0.0), "s")
           for layer in LAYERS}
    out.update({name: metric(tracer.calls.get(name, 0), "count")
                for name in CALL_COUNTERS})
    out["sim.events"] = metric(traced.sim_events, "count")
    out["omp.map_ops"] = metric(
        traced.ledger.get("n_map_enters", 0) + traced.ledger.get("n_map_exits", 0),
        "count")
    for name, unit, field in LEDGER_METRICS:
        out[name] = metric(traced.ledger.get(field, 0), unit)
    cells = [op for r in timed for op in r.ops if op.config is not None]
    for cfg in CONFIGS:
        walls = [op.wall_s for op in cells if op.config == cfg]
        out[f"experiments.cell_wall_s.{cfg}"] = metric(
            statistics.median(walls) if walls else 0.0, "s")
    out["experiments.cell_wall_max_s"] = metric(
        max((op.wall_s for op in cells), default=0.0), "s")
    out["experiments.table2_err_pct"] = metric(
        traced.extra.get("table2_err_pct", 0.0), "%")
    out["tracing_overhead_s"] = metric(traced.wall_s - untraced_s, "s")
    out["harness_s"] = metric(tracer.self_s.get("harness", 0.0), "s")
    out["unattributed_s"] = metric(traced.wall_s - tracer.root_s, "s")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    root = os.getcwd()
    prepare_checkout(root)
    import cases

    if args.workload not in cases.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {cases.WORKLOADS}")
    with open(PINS) as fh:
        pins = json.load(fh)
    from calibrate import REFERENCE_S, probe

    setup_probes: List[float] = []
    setup = ([] if args.trace
             else setup_times(args.workload, args.seed, root, setup_probes))
    case = cases.make(args.workload, args.seed)
    case.build()
    warm = warmup(case)
    n = n_passes(case, args.seconds)
    if args.trace and n == 1:
        # A one-pass workload (spec_t2) runs only its traced pass under
        # --trace 1, which keeps the run well inside its time limit.  The
        # overhead is measured from the nominal pass time at the speed
        # probed around the traced pass; untraced cell times are in the
        # --trace 0 record.
        timed, rss_mb, probes = [], 0.0, [probe() for _ in range(3)]
    else:
        timed, rss_mb, probes = run_passes(case, n)
    passes = warm + timed
    if args.trace:
        tracer, traced = traced_pass(case)
        passes.append(traced)
        if timed:
            untraced_s = statistics.median(r.wall_s for r in timed)
        else:
            probes += [probe() for _ in range(3)]
            untraced_s = case.nominal_pass_s * statistics.mean(probes) / REFERENCE_S
        metrics = per_layer(tracer, traced, timed or [traced], untraced_s)
    else:
        scale = REFERENCE_S / statistics.mean(probes)
        # each set-up sample is scaled by the probes on either side of it
        scaled_setup = [
            raw * 2 * REFERENCE_S / (before + after)
            for raw, before, after in zip(setup, setup_probes, setup_probes[1:])
        ]
        metrics = end_to_end(timed, scaled_setup, rss_mb, scale)
    failed = sum(check_pass(case, r, pins) for r in passes)
    attempted = sum(max(case.n_ops, len(r.ops)) for r in passes)
    print(json.dumps({"perfbench": {
        "workload": case.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": case.params(),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "machine": platform.machine(), "setup_s": setup,
        "setup_probe_s": setup_probes, "probe_s": probes,
        "scale": REFERENCE_S / statistics.mean(probes),
        "warmup_wall_s": [r.wall_s for r in warm],
        "pass_wall_s": [r.wall_s for r in timed],
        "cell_wall_s": {op.key: op.wall_s for r in timed for op in r.ops
                        if op.config is not None},
    }}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
