"""MapFlow: static map-clause dataflow analysis.

The dynamic MapCheck analyses (lint/sanitizer/races) need at least one
simulated run to observe a defect.  MapFlow is the compiler-side
counterpart the paper attributes to LLVM's implicit zero-copy handling:
it proves or flags the same defect families directly from the workload
*source*, before any simulation — exactly the situations where the
defect is invisible at runtime because zero-copy turns every map into a
no-op (§IV.C).

Pipeline::

    workload source ──ast──▶ map-operation IR  (extract.py / ir.py)
                     per-thread CFG            (cfg.py)
                     abstract interpretation   (interp.py / domains.py)
                     findings + matrices       (rules.py)

:func:`~.rules.analyze_workload` runs that pipeline (plus the MapRace,
MapCost and MapPlace families on the same IR) from one extraction, and a
static-vs-dynamic differential harness (differential.py) keeps the two
rule sets honest against each other.
"""

from __future__ import annotations

from .differential import static_dynamic_differential
from .extract import ExtractionError, extract_workload
from .interp import analyze_ir
from .race import race_findings
from .rules import analyze_named, analyze_workload, static_report

__all__ = [
    "extract_workload",
    "ExtractionError",
    "analyze_ir",
    "analyze_named",
    "analyze_workload",
    "static_report",
    "static_dynamic_differential",
    "race_findings",
]
