"""Fused fast-path engine vs. the reference scheduler on real workloads.

QMCPack NiO and two SPECaccel proxies (403.stencil, 404.lbm) under
several runtime configurations.  The noisy QMCPack cases run contended
multi-thread QMCPack; the noiseless single-thread case is the ``fig3
--quick`` t=1 shape; Copy lbm, the slowest Table II cell, starts async
copies whose bootstraps sit at the current time, where a free-unit
``grab`` must refuse on the strict-tie rule.  Every simulated-time
observable must be bit-identical (see :func:`oracles.run_observables`).
"""

from functools import partial

import pytest
from oracles import run_observables

from repro.core import RuntimeConfig
from repro.experiments.runner import execute
from repro.sim import Environment, Mutex, ReferenceEnvironment
from repro.workloads.base import Fidelity
from repro.workloads.qmcpack import QmcPackNio
from repro.workloads.specaccel import Lbm404, Stencil403

_QMC_S4T2 = partial(QmcPackNio, size=4, n_threads=2, fidelity=Fidelity.TEST)

#: id -> (workload factory, configuration, noise, seed); the seeds are
#: the first six draws of ``random.Random(11).randrange(1 << 30)``
CASES = {
    "qmcpack-s4t2-copy-noisy": (_QMC_S4T2, RuntimeConfig.COPY, True, 971477686),
    "qmcpack-s4t2-izc-noisy": (_QMC_S4T2, RuntimeConfig.IMPLICIT_ZERO_COPY, True,
                               999975904),
    "stencil-eager-noisy": (partial(Stencil403, fidelity=Fidelity.TEST),
                            RuntimeConfig.EAGER_MAPS, True, 970302523),
    "qmcpack-s2t1-izc-noiseless": (
        partial(QmcPackNio, size=2, n_threads=1, fidelity=Fidelity.TEST),
        RuntimeConfig.IMPLICIT_ZERO_COPY, False, 407811516),
    "lbm-copy-noisy": (partial(Lbm404, fidelity=Fidelity.TEST), RuntimeConfig.COPY,
                       True, 396555068),
    "stencil-usm-noisy": (partial(Stencil403, fidelity=Fidelity.TEST),
                          RuntimeConfig.UNIFIED_SHARED_MEMORY, True, 1021693763),
}


@pytest.mark.parametrize("case", CASES)
def test_workload_fused_vs_reference(case):
    factory, config, noise, seed = CASES[case]
    sides = []
    for env_cls in (Environment, ReferenceEnvironment):
        workload = factory()
        run = execute(workload, config, seed=seed, noise=noise, env_cls=env_cls)
        sides.append(run_observables(run, workload))
    assert sides[0] == sides[1]


def _call_chains(env, chains: int, chain_len: int):
    """One host thread's modeled-call pattern: chains of bookkeeping
    charges around an uncontended lock, punctuated by real waits."""
    lock = Mutex(env)

    def worker():
        for i in range(chains):
            for _ in range(chain_len):
                if not env.fuse(0.25):
                    yield 0.25
            grant = lock.grab() or (yield lock)
            try:
                if not env.fuse(0.5):
                    yield 0.5
            finally:
                lock.release(grant)
            if i % 8 == 0:
                yield env.timeout(2.0)

    env.run(env.process(worker(), name="call-chains"))
    return env.now, env.processed_events


def test_call_chains_fused_vs_reference():
    fused = _call_chains(Environment(), 5000, 8)
    assert fused == _call_chains(ReferenceEnvironment(), 5000, 8)
    assert fused[1] > 5000 * 9
