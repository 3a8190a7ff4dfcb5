"""ASCII/markdown rendering of regenerated figures and tables.

Everything the benchmark harness prints flows through here, so the rows
and series appear in the same layout the paper uses (and EXPERIMENTS.md
can be regenerated mechanically).
"""

from __future__ import annotations

from typing import Sequence

from ..core.config import ZERO_COPY_CONFIGS, RuntimeConfig
from .figures import QmcPackGrid, fig3_series, fig4_series
from .tables import PAPER_TABLE2, TABLE1_SIZE, Table1Result, Table2Result, Table3Result

__all__ = [
    "render_cost_table",
    "render_place_table",
    "render_fig3",
    "render_fig4",
    "render_table1",
    "render_table2",
    "render_table3",
]

_SHORT = {
    RuntimeConfig.COPY: "Copy",
    RuntimeConfig.UNIFIED_SHARED_MEMORY: "USM",
    RuntimeConfig.IMPLICIT_ZERO_COPY: "Implicit Z-C",
    RuntimeConfig.EAGER_MAPS: "Eager Maps",
}


def _rule(width: int = 72) -> str:
    return "-" * width


def render_fig3(grid: QmcPackGrid, sizes: Sequence[int] = ()) -> str:
    """Fig. 3: one block per problem size, ratio vs thread count."""
    sizes = list(sizes) or grid.sizes()
    lines = ["Fig. 3 — Copy/zero-copy steady-state time ratio vs OpenMP threads"]
    for size in sizes:
        lines.append(_rule())
        lines.append(f"NiO S{size}")
        header = "  threads | " + " | ".join(f"{_SHORT[c]:>12}" for c in ZERO_COPY_CONFIGS)
        lines.append(header)
        series = fig3_series(grid, size)
        for i, t in enumerate(grid.threads()):
            row = " | ".join(
                f"{series[c][i][1]:12.2f}" for c in ZERO_COPY_CONFIGS
            )
            lines.append(f"  {t:>7} | {row}")
    return "\n".join(lines)


def render_fig4(grid: QmcPackGrid, threads: int = 8) -> str:
    """Fig. 4: ratio vs problem size at a fixed thread count."""
    lines = [
        f"Fig. 4 — Copy/zero-copy steady-state time ratio vs problem size "
        f"({threads} OpenMP threads)",
        _rule(),
    ]
    series = fig4_series(grid, threads)
    header = "  size | " + " | ".join(f"{_SHORT[c]:>12}" for c in ZERO_COPY_CONFIGS)
    lines.append(header)
    for i, s in enumerate(grid.sizes()):
        row = " | ".join(f"{series[c][i][1]:12.2f}" for c in ZERO_COPY_CONFIGS)
        lines.append(f"  S{s:<4} | {row}")
    return "\n".join(lines)


def render_table1(result: Table1Result) -> str:
    """Table I layout: per thread count, counts + latency ratio."""
    lines = [
        f"Table I — HSA API call statistics, QMCPack NiO S{TABLE1_SIZE} "
        f"(Copy vs Implicit Z-C), fidelity={result.fidelity.value}"
    ]
    for threads, rows in sorted(result.rows.items()):
        lines.append(_rule(86))
        lines.append(f"{threads} OpenMP thread(s)")
        lines.append(
            f"  {'ROCr/HSA call':<24}{'Used for':<24}{'Copy #':>12}"
            f"{'Impl Z-C #':>12}{'Lat. ratio':>12}"
        )
        for r in rows:
            lines.append(
                f"  {r.call:<24}{r.used_for:<24}{r.count_a:>12,}"
                f"{r.count_b:>12,}{r.ratio_str():>12}"
            )
    return "\n".join(lines)


def render_table2(result: Table2Result, compare_paper: bool = True) -> str:
    """Table II layout, optionally with the paper's values alongside."""
    benchmarks = list(result.ratios)
    lines = [
        f"Table II — Copy / zero-copy total-time ratios, SPECaccel 2023 "
        f"({result.reps} reps, median)",
        _rule(86),
        "  " + f"{'Configuration':<24}" + "".join(f"{b:>12}" for b in benchmarks),
    ]
    for config in ZERO_COPY_CONFIGS:
        cells = "".join(f"{result.ratios[b][config]:>12.3f}" for b in benchmarks)
        lines.append(f"  {_SHORT[config]:<24}{cells}")
        if compare_paper:
            paper = "".join(
                f"{PAPER_TABLE2[b][config]:>12.3f}" for b in benchmarks
            )
            lines.append(f"  {'  (paper)':<24}{paper}")
    lines.append(f"  max CoV observed: {result.max_cov():.3f} (paper: 0.03)")
    return "\n".join(lines)


def render_cost_table(name: str, predictions) -> str:
    """MapCost predicted per-configuration costs, one row per counter.

    ``predictions`` maps :class:`~repro.core.config.RuntimeConfig` to a
    :class:`~repro.check.static.cost.CostPrediction` (the porting
    advisor's static phase, and the README quickstart, feed this the
    output of ``predict_costs`` — zero simulation events).  Exact
    predictions render as ``=n``; widened ones as ``[lo,hi]``.
    """
    from ..check.static.cost import ALL_KEYS

    configs = list(predictions)
    width = 22 + 16 * len(configs)
    lines = [
        f"MapCost prediction — {name} (static, no simulation)",
        _rule(width),
        "  " + f"{'counter':<20}"
        + "".join(f"{_SHORT[c]:>16}" for c in configs),
    ]
    for key in ALL_KEYS:
        ivs = [predictions[c].interval(key) for c in configs]
        if all(iv.is_zero for iv in ivs):
            continue
        lines.append(
            "  " + f"{key:<20}" + "".join(f"{iv!r:>16}" for iv in ivs)
        )
    return "\n".join(lines)


def render_place_table(name: str, rankings) -> str:
    """MapPlace placement ranking, one row per candidate placement.

    ``rankings`` is a sequence of ``(PlaceSpec, prediction)`` pairs
    (best — fewest predicted remote bytes — first, as produced by the
    porting advisor's placement phase from ``predict_place``; zero
    simulation events).
    """
    width = 24 + 3 * 18
    lines = [
        f"MapPlace placement ranking — {name} (static, no simulation)",
        _rule(width),
        "  " + f"{'placement':<22}"
        + f"{'remote kernel MiB':>18}{'remote faults':>18}{'local pages':>18}",
    ]
    for spec, pred in rankings:
        rkb = pred.interval("remote_kernel_bytes")
        rfp = pred.interval("remote_fault_pages")
        lkp = pred.interval("local_kernel_pages")
        mib = (
            f"={rkb.lo / (1 << 20):.1f}" if rkb.is_exact
            else f"[{rkb.lo / (1 << 20):.1f},"
            + ("inf]" if rkb.hi is None else f"{rkb.hi / (1 << 20):.1f}]")
        )
        lines.append(
            "  " + f"{spec.label():<22}"
            + f"{mib:>18}{rfp!r:>18}{lkp!r:>18}"
        )
    return "\n".join(lines)


def render_table3(result: Table3Result) -> str:
    """Table III layout: orders of magnitude for MM and MI."""
    benchmarks = list(result.rows)
    lines = [
        "Table III — overhead decomposition (µs, orders of magnitude)",
        _rule(86),
        "  "
        + f"{'Configuration':<24}"
        + "".join(f"{b + ' MM':>12}{b + ' MI':>12}" for b in benchmarks),
    ]
    labels = list(next(iter(result.rows.values())))
    for label in labels:
        cells = ""
        for b in benchmarks:
            row = result.rows[b][label]
            cells += f"{row.mm_magnitude:>12}{row.mi_magnitude:>12}"
        lines.append(f"  {label:<24}{cells}")
    return "\n".join(lines)
