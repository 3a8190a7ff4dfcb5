"""MapRace: static may-happen-in-parallel race analysis.

The dynamic race detector (:mod:`repro.check.races`) needs a full
instrumented simulation to observe a race window in the trace; MapRace
proves the same hazards from the MapFlow IR alone.  A happens-before
abstraction over the extracted synchronization ops — ``WaitOp``
completion edges for nowait regions, ``GlobalSyncOp`` barrier phase
alignment across threads, intra-thread program order — yields
may-happen-in-parallel region pairs, which are then intersected with
buffer access summaries (host writes, kernel reads/writes, map
enter/exit mutations) over shared allocation sites.

Pipeline::

    MapFlow IR ──cfg──▶ per-thread sync dataflow   (mhp.py / model.py)
                 MHP pairs x access summaries      (rules.py)
                 findings MC-S20/S21/S22           (rules.py)

Recall and precision are gated by the static-vs-dynamic differential
(:mod:`repro.check.static.differential`): every dynamic MC-R01/MC-R02
finding on the faulty corpus needs its static MC-S21/MC-S20 match, and
any race finding on a clean workload counts as a false positive there.
"""

from __future__ import annotations

from .mhp import analyze_thread, mhp
from .model import Access, KernelFlight, PhaseInterval, ThreadAccesses
from .rules import RACE_RULE_IDS, race_findings

__all__ = [
    "Access",
    "KernelFlight",
    "PhaseInterval",
    "RACE_RULE_IDS",
    "ThreadAccesses",
    "analyze_thread",
    "mhp",
    "race_findings",
]
