"""Experiment harness: runners, figure/table regeneration, reporting."""

from .plot import ascii_chart
from .figures import (
    FIG_SIZES,
    FIG_THREADS,
    QmcPackGrid,
    collect_qmcpack_grid,
    fig3_series,
    fig4_series,
)
from .report import (
    render_cost_table,
    render_place_table,
    render_fig3,
    render_fig4,
    render_table1,
    render_table2,
    render_table3,
)
from .cache import CACHE_SCHEMA, CellCache, cell_digest
from .deepdive import EagerVsIzc, eager_vs_izc_analysis
from .parallel import CellOutcome, ExperimentCell, run_cells
from .runner import RatioResult, execute, ratio_experiment, ratio_sweep
from .tables import (
    PAPER_TABLE2,
    Table1Result,
    Table2Result,
    Table3Result,
    table1_hsa_calls,
    table2_specaccel,
    table3_overheads,
)

__all__ = [
    "CACHE_SCHEMA",
    "CellCache",
    "cell_digest",
    "CellOutcome",
    "ExperimentCell",
    "FIG_SIZES",
    "FIG_THREADS",
    "PAPER_TABLE2",
    "QmcPackGrid",
    "RatioResult",
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "EagerVsIzc",
    "ascii_chart",
    "collect_qmcpack_grid",
    "eager_vs_izc_analysis",
    "execute",
    "fig3_series",
    "fig4_series",
    "ratio_experiment",
    "ratio_sweep",
    "run_cells",
    "render_cost_table",
    "render_place_table",
    "render_fig3",
    "render_fig4",
    "render_table1",
    "render_table2",
    "render_table3",
    "table1_hsa_calls",
    "table2_specaccel",
    "table3_overheads",
]
