"""MapCheck: mapping sanitizer + portability lint for OpenMP offload.

Three cooperating analyses over one instrumented (recorded) run:

* **portability lint** (``lint``) — declared map clauses vs the dynamic
  access record: missing maps, discarded device writes, stale globals;
* **mapping sanitizer** (``sanitizer``) — present-table invariants:
  refcount underflow, leaks at teardown, double unmap, use-after-unmap
  kernel arguments, ``always`` misuse;
* **trace race detector** (``races``) — conflicting concurrent map
  operations and host-write-vs-kernel-read overlaps in the DES trace;

plus one purely static analysis over the workload *source*:

* **MapFlow** (``static``) — abstract interpretation of the extracted
  map-operation IR: per-path refcount tracking, use-after-exit-data,
  leaks at thread end, uncovered raw-pointer touches — no simulation,
  no instrumented run (``python -m repro check --static --no-sim``);
* **MapCost** (``static.cost``) — symbolic cost prediction over the
  same IR (per-config HSA call counts, copy bytes, fault pages, with
  bit-exact validation against simulated telemetry) plus the MC-W
  perf-lint rules (``python -m repro check --perf``).

Entry points: :func:`check_workload` / :func:`check_named` /
:func:`check_all`, surfaced on the CLI as ``python -m repro check``.
Baselines (:mod:`repro.check.baseline`) let CI accept known findings
and fail only on new ones.
"""

from .baseline import apply_baseline, fingerprint, load_baseline, write_baseline
from .events import CheckRecorder, buffer_key, instrument, payload_hash
from .findings import (
    RULES,
    Analysis,
    CheckReport,
    Finding,
    Rule,
    Severity,
    merge_reports,
    render_rule_table,
)
from .lint import run_lint
from .races import run_races
from .registry import (
    RULE_FAMILIES,
    WORKLOADS,
    dynamic_counterparts,
    make_workload,
    static_counterparts,
    workload_names,
)
from .runner import check_all, check_named, check_workload
from .sanitizer import run_sanitizer
from .sarif import to_sarif, write_sarif

__all__ = [
    "Analysis",
    "CheckRecorder",
    "CheckReport",
    "Finding",
    "RULES",
    "RULE_FAMILIES",
    "Rule",
    "Severity",
    "WORKLOADS",
    "apply_baseline",
    "buffer_key",
    "check_all",
    "check_named",
    "check_workload",
    "dynamic_counterparts",
    "fingerprint",
    "instrument",
    "load_baseline",
    "make_workload",
    "merge_reports",
    "payload_hash",
    "render_rule_table",
    "run_lint",
    "run_races",
    "run_sanitizer",
    "static_counterparts",
    "to_sarif",
    "workload_names",
    "write_baseline",
    "write_sarif",
]
