"""Fused-vs-reference differential of the synchronous device-work path.

A kernel or copy that a host thread waits on at once runs in the host's
frame when the reference engine would run its chain next
(``Environment._inline``).  It can take one of three branches: fully
inline; grant taken but the charge refused, so the chain goes on from its
timeout; or predicate failed, so the chain starts from a bootstrap as the
asynchronous call starts it.  A ``nowait`` region still goes through
``dispatch_kernel``.  Each case below runs on both engines and compares
every simulated observable, the detailed HSA events, the kernel records
and the event count the host reads right after each target region.  It
also counts the branches it takes, so none of them can silently go dead.
"""

from collections import Counter
from functools import partial

import numpy as np
import pytest
from oracles import run_observables

from repro.core import RuntimeConfig
from repro.experiments.runner import execute
from repro.hsa.api import HsaRuntime
from repro.memory import PAGE_2M
from repro.omp import MapClause, MapKind
from repro.omp.api import OmpThread
from repro.sim import Environment, ReferenceEnvironment
from repro.workloads.base import Fidelity, Workload
from repro.workloads.qmcpack import QmcPackNio
from repro.workloads.specaccel.lbm import Lbm404
from repro.workloads.specaccel.stencil import Stencil403


class _NowaitMix(Workload):
    """Two threads interleaving ``nowait`` and synchronous regions."""

    n_threads = 2

    def make_body(self):
        out = self.outputs

        def body(th, tid):
            name = f"x{tid}"
            x = yield from th.alloc(name, PAGE_2M, payload=np.zeros(8))
            yield from th.target_enter_data([MapClause(x, MapKind.TO)])
            for i in range(4):
                handle = yield from th.target(
                    "async", 50.0 + 10.0 * i, maps=[MapClause(x, MapKind.ALLOC)],
                    fn=lambda a, g: a[name].__iadd__(1.0), nowait=True)
                yield from th.target(
                    "sync", 20.0, maps=[MapClause(x, MapKind.TOFROM)],
                    fn=lambda a, g: a[name].__imul__(2.0))
                yield from th.wait(handle)
            yield from th.target_exit_data([MapClause(x, MapKind.FROM)])
            out.put(name, x.payload.copy())

        return body


def _run(monkeypatch, factory, config, env_cls, seed, noise):
    """One run's observables and the branches its device work took."""
    branches = Counter()
    inline = Environment._inline

    def counted_inline(self, res, start):
        ran = inline(self, res, start)
        branches["predicate failed" if ran is None else "inline" if ran[0]
                 else "charge refused"] += 1
        return ran

    dispatch = HsaRuntime.dispatch_kernel

    def counted_dispatch(self, *args, **kwargs):
        branches["nowait"] += 1
        return dispatch(self, *args, **kwargs)

    events = []
    target = OmpThread.target

    def counted_target(self, *args, **kwargs):
        rec = yield from target(self, *args, **kwargs)
        events.append((self.tid, self.env.processed_events))
        return rec

    monkeypatch.setattr(Environment, "_inline", counted_inline)
    monkeypatch.setattr(HsaRuntime, "dispatch_kernel", counted_dispatch)
    monkeypatch.setattr(OmpThread, "target", counted_target)
    workload = factory()
    run = execute(workload, config, seed=seed, noise=noise, env_cls=env_cls,
                  kernel_trace=True, detailed_trace=True)
    monkeypatch.undo()
    observed = (
        run_observables(run, workload),
        [(e.name, e.start_us, e.duration_us, e.tag) for e in run.hsa_trace.events],
        run.kernel_trace.records,
        events,
    )
    return observed, branches


_ALL = {"inline", "charge refused", "predicate failed"}
_QMC = partial(QmcPackNio, size=4, n_threads=2, fidelity=Fidelity.TEST)

#: name -> (workload factory, configuration, noise, branches it must take)
CASES = {
    "lbm-copy": (partial(Lbm404, Fidelity.TEST), RuntimeConfig.COPY, False,
                 {"inline", "charge refused"}),
    "stencil-eager": (partial(Stencil403, Fidelity.TEST),
                      RuntimeConfig.EAGER_MAPS, False, {"inline"}),
    "qmcpack-copy": (_QMC, RuntimeConfig.COPY, True,
                     {"charge refused", "predicate failed"}),
    "qmcpack-izc": (_QMC, RuntimeConfig.IMPLICIT_ZERO_COPY, True, _ALL),
    "nowait-copy": (partial(_NowaitMix, Fidelity.TEST), RuntimeConfig.COPY, False,
                    {"nowait", "charge refused", "predicate failed"}),
    "nowait-izc": (partial(_NowaitMix, Fidelity.TEST),
                   RuntimeConfig.IMPLICIT_ZERO_COPY, False,
                   {"nowait", "charge refused", "predicate failed"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sync_path_fused_vs_reference(monkeypatch, case):
    factory, config, noise, expected = CASES[case]
    fused, branches = _run(monkeypatch, factory, config, Environment, 17, noise)
    reference, ref_branches = _run(monkeypatch, factory, config, ReferenceEnvironment, 17, noise)
    assert fused == reference
    assert fused[3], "no target region ran"
    for branch in expected:
        assert branches[branch] >= 1, (case, branch, dict(branches))
    assert ref_branches["nowait"] == branches["nowait"]


def test_reference_engine_never_inlines(monkeypatch):
    factory, config, noise, _ = CASES["lbm-copy"]
    _, branches = _run(monkeypatch, factory, config, ReferenceEnvironment, 17, noise)
    assert branches["predicate failed"] > 0
    assert branches["inline"] == branches["charge refused"] == 0
