"""The MapPlace walker: per-socket local/remote split of MapCost counters.

Subclasses the MapCost abstract interpreter via its two telemetry hooks:

* ``_fault_bump`` — every pages-faulted contribution is also split into
  its remote-link share under the :class:`~.model.PlaceSpec` placement
  rule.  For a resolved site of ``P`` pages with ``R`` remote, a fault
  interval ``[lo, hi]`` contributes ``[max(0, lo-(P-R)), min(R, hi)]``
  remote pages (pigeonhole on both ends — sound for *any* subset of the
  buffer's pages, exact when the whole buffer faults, which is what the
  whole-buffer translation booleans of the base domain produce);
* ``_on_kernel`` — mirrors the card's kernel cost adjuster, which walks
  every explicit map clause's pages per launch: each resolved clause
  contributes exactly its buffer's local/remote page counts (globals
  and raw-pointer touches are *not* in the adjuster's clause list, so
  they are deliberately not counted here either).

Loop handling comes for free: the base walker's steady-state delta
multiplication and join-fixpoint widening treat the new counters like
any other, so remote totals are loop-exact whenever the base counters
are.

``predict_card`` produces the per-socket prediction the place
differential checks: the executing socket gets the full walk; idle
sockets boot their device (``device_init_counts(0)``) and do nothing
else.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ....core.config import RuntimeConfig
from ..ir import AbstractBuffer, TargetOp, WorkloadIR
from .model import PLACE_BOUNDED_KEYS, PlaceSpec
from ..cost.intervals import ZERO, Interval
from ..cost.model import ALL_KEYS, PAGE_SIZE, device_init_counts, pages_of
from ..cost.walker import CostPrediction, CostState, _Walker

__all__ = ["predict_place", "predict_card"]


class _PlaceWalker(_Walker):
    """MapCost walker + local/remote placement split."""

    def __init__(self, ir: WorkloadIR, config: RuntimeConfig, spec: PlaceSpec):
        super().__init__(ir, config)
        self.spec = spec

    # -- shared helpers ----------------------------------------------------
    def _site_pages(self, site: Optional[AbstractBuffer],
                    global_name: Optional[str] = None) -> Optional[int]:
        nbytes = None
        if site is not None:
            nbytes = self._site_nbytes(site)
        elif global_name is not None:
            nbytes = self.ir.global_sizes.get(global_name)
        if nbytes is None:
            return None
        return pages_of(nbytes)

    def _remote_share(self, iv: Interval, n_pages: int) -> Interval:
        """Remote portion of ``iv`` faulted/visited pages out of an
        ``n_pages`` allocation (pigeonhole bounds, exact for whole-buffer
        intervals)."""
        remote = self.spec.remote_pages(n_pages)
        local = n_pages - remote
        lo = max(0, iv.lo - local)
        hi = remote if iv.hi is None else min(remote, iv.hi)
        return Interval(lo, max(hi, lo))

    # -- hook overrides ----------------------------------------------------
    def _fault_bump(self, state: CostState, iv: Interval,
                    site: Optional[AbstractBuffer] = None,
                    global_name: Optional[str] = None) -> None:
        super()._fault_bump(state, iv, site=site, global_name=global_name)
        if iv.is_zero or self.spec.n_sockets == 1:
            return
        n_pages = self._site_pages(site, global_name)
        if n_pages is None:
            self.note("unresolved fault site; remote fault pages widened")
            state.bump("remote_fault_pages", Interval(0, None))
            return
        state.bump("remote_fault_pages", self._remote_share(iv, n_pages))

    def _on_kernel(self, state: CostState, op: TargetOp,
                   sitemap: Dict[int, Optional[AbstractBuffer]]) -> None:
        # mirror of ApuCard._make_adjuster: one pass over the launch's
        # explicit map clauses, every page of every clause's buffer
        for i, clause in enumerate(op.clauses):
            if clause.buf.unknown or not clause.buf.sites:
                self.note("unresolved kernel clause; remote kernel pages widened")
                state.bump("remote_kernel_pages", Interval(0, None))
                state.bump("local_kernel_pages", Interval(0, None))
                continue
            pinned = sitemap.get(i)
            candidates = [pinned] if pinned is not None else sorted(
                clause.buf.sites, key=lambda b: b.site
            )
            locals_: List[int] = []
            remotes: List[int] = []
            unresolved = False
            for site in candidates:
                n_pages = self._site_pages(site)
                if n_pages is None:
                    unresolved = True
                    break
                remote = self.spec.remote_pages(n_pages)
                remotes.append(remote)
                locals_.append(n_pages - remote)
            if unresolved:
                self.note("unresolved kernel clause size; "
                          "remote kernel pages widened")
                state.bump("remote_kernel_pages", Interval(0, None))
                state.bump("local_kernel_pages", Interval(0, None))
                continue
            state.bump("local_kernel_pages",
                       Interval(min(locals_), max(locals_)))
            state.bump("remote_kernel_pages",
                       Interval(min(remotes), max(remotes)))

    # -- entry -------------------------------------------------------------
    def run(self) -> CostPrediction:
        pred = super().run()
        for key in PLACE_BOUNDED_KEYS:
            pred.counters.setdefault(key, ZERO)
        pred.counters["remote_kernel_bytes"] = pred.counters[
            "remote_kernel_pages"
        ].scale(PAGE_SIZE)
        return pred


def predict_place(
    ir: WorkloadIR, config: RuntimeConfig, spec: PlaceSpec
) -> CostPrediction:
    """Predict the executing socket's cost + local/remote counters for
    one (config, topology, placement) point."""
    return _PlaceWalker(ir, config, spec).run()


def predict_card(
    ir: WorkloadIR, config: RuntimeConfig, spec: PlaceSpec
) -> List[CostPrediction]:
    """Per-socket predictions for a card run with every host thread
    pinned to the executing socket: the executing socket gets the full
    walk, idle sockets an exact boot-only prediction."""
    out: List[CostPrediction] = []
    for s in range(spec.n_sockets):
        if s == spec.socket:
            out.append(predict_place(ir, config, spec))
            continue
        counters: Dict[str, Interval] = {
            key: Interval.exact(count)
            for key, count in device_init_counts(0).items()
        }
        for key in ALL_KEYS + PLACE_BOUNDED_KEYS:
            counters.setdefault(key, ZERO)
        out.append(CostPrediction(
            name=ir.name, config=config, counters=counters,
            notes=[f"socket {s}: idle (device boot only)"],
        ))
    return out
