"""Bundled-workload registry and rule cross-referencing for
``python -m repro check``.

Workload side: each entry is a factory ``fidelity -> Workload``
producing a *fresh* instance — the runner executes a workload several
times (one instrumented recording run plus one differential run per
remaining configuration), and simulated state must not leak between
runs.

Rule side: the registry is also where the dynamic (MapCheck) and static
(MapFlow) rule sets are stitched together.  Rules carry a ``family``
(see :mod:`repro.check.findings`); :data:`RULE_FAMILIES` groups ids by
family, :func:`static_counterparts`/:func:`dynamic_counterparts`
translate between the two analyses, and :data:`CANONICAL_MATRICES`
freezes each rule's per-configuration applicability so snapshot tests
and the SARIF exporter share one source of truth.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..core.config import ALL_CONFIGS, RuntimeConfig
from ..memory.layout import MIB
from ..workloads import (
    AllocChurn,
    Bt470,
    Ep452,
    Fidelity,
    FirstTouchSweep,
    GlobalBroadcast,
    Lbm404,
    OpenFoamUsm,
    QmcPackNio,
    SpC457,
    Stencil403,
    TriadStream,
    Workload,
)
from .findings import Analysis, RULES

__all__ = [
    "WORKLOADS",
    "make_workload",
    "workload_names",
    "RULE_FAMILIES",
    "CANONICAL_MATRICES",
    "static_counterparts",
    "dynamic_counterparts",
]

WorkloadFactory = Callable[[Fidelity], Workload]

WORKLOADS: Dict[str, WorkloadFactory] = {
    "qmcpack": lambda f: QmcPackNio(size=2, n_threads=1, fidelity=f),
    "stencil": lambda f: Stencil403(fidelity=f),
    "lbm": lambda f: Lbm404(fidelity=f),
    "ep": lambda f: Ep452(fidelity=f),
    "spC": lambda f: SpC457(fidelity=f),
    "bt": lambda f: Bt470(fidelity=f),
    "openfoam": lambda f: OpenFoamUsm(fidelity=f),
    "triad": lambda f: TriadStream(fidelity=f),
    "first-touch": lambda f: FirstTouchSweep(nbytes=64 * MIB, fidelity=f),
    "global-broadcast": lambda f: GlobalBroadcast(fidelity=f),
    "alloc-churn": lambda f: AllocChurn(nbytes=64 * MIB, cycles=10, fidelity=f),
}


# ---------------------------------------------------------------------------
# rule cross-referencing
# ---------------------------------------------------------------------------

#: family -> rule ids carrying it, in declaration order
RULE_FAMILIES: Dict[str, Tuple[str, ...]] = {}
for _rule in RULES.values():
    if _rule.family:
        RULE_FAMILIES.setdefault(_rule.family, ())
        RULE_FAMILIES[_rule.family] += (_rule.id,)
del _rule


def static_counterparts(rule_id: str) -> Tuple[str, ...]:
    """Static (MapFlow/MapRace) rule ids covering the same defect family
    as a dynamic rule — MC-R01 -> MC-S21 and MC-R02 -> MC-S20 included.
    Empty when the family is out of static scope (payload-content rules
    such as missing-from and stale globals, ``always`` misuse, and
    differential-only rules)."""
    family = RULES[rule_id].family
    return tuple(
        rid for rid in RULE_FAMILIES.get(family, ())
        if RULES[rid].analysis is Analysis.STATIC and rid != rule_id
    )


def dynamic_counterparts(rule_id: str) -> Tuple[str, ...]:
    """Dynamic MapCheck rule ids a static rule cross-references."""
    family = RULES[rule_id].family
    return tuple(
        rid for rid in RULE_FAMILIES.get(family, ())
        if RULES[rid].analysis is not Analysis.STATIC and rid != rule_id
    )


_COPY = RuntimeConfig.COPY
_USM = RuntimeConfig.UNIFIED_SHARED_MEMORY
_IZC = RuntimeConfig.IMPLICIT_ZERO_COPY
_EAGER = RuntimeConfig.EAGER_MAPS
_ALL = tuple(ALL_CONFIGS)

#: rule id -> canonical ``(breaks_under, passes_under)`` as emitted by the
#: analyses; ``None`` marks rules whose matrix is finding-dependent
#: (MC-P04's is whatever configurations actually diverged).
CANONICAL_MATRICES: Dict[
    str,
    Optional[Tuple[Tuple[RuntimeConfig, ...], Tuple[RuntimeConfig, ...]]],
] = {
    "MC-P01": ((_COPY, _EAGER), (_USM, _IZC)),
    "MC-P02": ((_COPY,), (_USM, _IZC, _EAGER)),
    "MC-P03": ((_COPY, _IZC, _EAGER), (_USM,)),
    "MC-P04": None,
    "MC-S01": (_ALL, ()),
    "MC-S02": ((_COPY,), (_USM, _IZC, _EAGER)),
    "MC-S03": (_ALL, ()),
    "MC-S04": (_ALL, ()),
    "MC-S05": (_ALL, ()),
    "MC-R01": (_ALL, ()),
    "MC-R02": ((_USM, _IZC, _EAGER), (_COPY,)),
    "MC-S10": (_ALL, ()),
    "MC-S11": (_ALL, ()),
    "MC-S12": ((_COPY,), (_USM, _IZC, _EAGER)),
    "MC-P10": ((_COPY, _EAGER), (_USM, _IZC)),
    # MapRace static race rules: matrices derived from ConfigSemantics
    # (race/rules.py) — MC-S20 mirrors MC-R02's shadow-isolation argument
    "MC-S20": ((_USM, _IZC, _EAGER), (_COPY,)),
    "MC-S21": (_ALL, ()),
    "MC-S22": (_ALL, ()),
    # MapCost perf-lint: "breaks" = pays the predicted overhead there
    "MC-W01": ((_EAGER,), (_COPY, _USM, _IZC)),
    "MC-W02": ((_COPY,), (_USM, _IZC, _EAGER)),
    "MC-W03": ((_USM, _IZC), (_COPY, _EAGER)),
    "MC-W04": ((_USM,), (_COPY, _IZC, _EAGER)),
    "MC-W05": ((_USM, _IZC, _EAGER), (_COPY,)),
    # MapPlace affinity lint: "breaks" = pays the remote-link cost there
    # (place/rules.py derives these from ConfigSemantics × topology)
    "MC-A01": ((_USM, _IZC), (_COPY, _EAGER)),
    "MC-A02": ((_COPY, _EAGER), (_USM, _IZC)),
    "MC-A03": ((_USM, _IZC, _EAGER), (_COPY,)),
    "MC-A04": ((_COPY,), (_USM, _IZC, _EAGER)),
}


def workload_names():
    return sorted(WORKLOADS)


def make_workload(name: str, fidelity: Fidelity) -> Workload:
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {', '.join(workload_names())}"
        ) from None
    return factory(fidelity)
