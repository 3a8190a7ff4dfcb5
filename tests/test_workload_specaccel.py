"""Tests for the SPECaccel 2023 proxies (repro.workloads.specaccel)."""

import numpy as np
import pytest

from repro.core import RuntimeConfig
from repro.experiments import execute
from repro.workloads import (
    ALL_BENCHMARKS,
    Bt470,
    Ep452,
    Fidelity,
    Lbm404,
    SpC457,
    Stencil403,
)

ALL_CONFIGS = [
    RuntimeConfig.COPY,
    RuntimeConfig.UNIFIED_SHARED_MEMORY,
    RuntimeConfig.IMPLICIT_ZERO_COPY,
    RuntimeConfig.EAGER_MAPS,
]


def run(cls, cfg, fidelity=Fidelity.TEST):
    wl = cls(fidelity=fidelity)
    res = execute(wl, cfg)
    return wl, res


# ---------------------------------------------------------------------------
# functional correctness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(ALL_BENCHMARKS))
def test_functional_equivalence_all_configs(name):
    cls = ALL_BENCHMARKS[name]
    outs = {}
    for cfg in ALL_CONFIGS:
        wl, _ = run(cls, cfg)
        outs[cfg] = wl.outputs.values
    ref = outs[RuntimeConfig.COPY]
    for cfg, vals in outs.items():
        for k in ref:
            assert np.array_equal(np.asarray(ref[k]), np.asarray(vals[k])), (name, cfg, k)


def test_stencil_actually_relaxes():
    """The Jacobi payload does real work: heat diffuses off the boundary."""
    wl, _ = run(Stencil403, RuntimeConfig.IMPLICIT_ZERO_COPY)
    field = wl.outputs.get("field")
    assert field[0, 0] == 1.0  # boundary intact
    assert field[1, 1] > 0.0  # interior warmed up
    assert field[-2, -2] < field[1, 1]  # gradient away from the hot edge


def test_lbm_conserves_direction_of_relaxation():
    wl, _ = run(Lbm404, RuntimeConfig.COPY)
    assert np.isfinite(wl.outputs.get("flow_checksum"))


def test_ep_total_is_deterministic():
    wl1, _ = run(Ep452, RuntimeConfig.COPY)
    wl2, _ = run(Ep452, RuntimeConfig.COPY)
    assert wl1.outputs.get("total") == wl2.outputs.get("total")


# ---------------------------------------------------------------------------
# mechanism structure (fast fidelities; magnitudes are benched at FULL)
# ---------------------------------------------------------------------------


def test_stencil_copy_does_exactly_two_grid_transfers():
    wl, res = run(Stencil403, RuntimeConfig.COPY)
    # 3 init-image copies + begin (to) + end (from)
    assert res.hsa_trace.count("memory_async_copy") == 5


def test_stencil_zero_copy_pays_first_touch():
    _, res = run(Stencil403, RuntimeConfig.IMPLICIT_ZERO_COPY)
    assert res.ledger.mi_us > 0
    assert res.ledger.mm_copy_us == 0.0


def test_ep_faults_every_cycle():
    wl, res = run(Ep452, RuntimeConfig.IMPLICIT_ZERO_COPY)
    cycles = wl.cycles
    pages_per_batch = 192 * 1024 * 1024 // (2 * 1024 * 1024)
    assert res.ledger.n_faulted_pages >= cycles * pages_per_batch


def test_ep_copy_never_faults_and_reuses_pool():
    _, res = run(Ep452, RuntimeConfig.COPY)
    assert res.ledger.mi_us == 0.0
    # batch allocations after the first come from the pool cache
    rt_allocs = res.hsa_trace.count("memory_pool_allocate")
    assert rt_allocs < 40  # init (19) + table + batch + result buffers


def test_ep_eager_prefaults_instead():
    _, res_e = run(Ep452, RuntimeConfig.EAGER_MAPS)
    _, res_i = run(Ep452, RuntimeConfig.IMPLICIT_ZERO_COPY)
    assert res_e.ledger.mi_us == 0.0
    assert res_e.ledger.prefault_us > 0.0
    assert res_e.ledger.prefault_us < res_i.ledger.mi_us


def test_ep_ratio_direction_zero_copy_loses():
    _, rc = run(Ep452, RuntimeConfig.COPY)
    _, ri = run(Ep452, RuntimeConfig.IMPLICIT_ZERO_COPY)
    _, re_ = run(Ep452, RuntimeConfig.EAGER_MAPS)
    assert rc.elapsed_us < ri.elapsed_us            # 0.89 direction
    assert re_.elapsed_us < ri.elapsed_us           # Eager recovers


def test_spc_gb_allocations_bypass_pool_cache():
    wl, res = run(SpC457, RuntimeConfig.COPY)
    # every cycle re-allocates the big arrays through the driver
    assert res.hsa_trace.count("memory_pool_allocate") >= 3 * wl.cycles


def test_spc_ratio_direction_zero_copy_wins_big():
    # BENCH fidelity: enough cycles to amortize the one-time first touch
    _, rc = run(SpC457, RuntimeConfig.COPY, Fidelity.BENCH)
    _, ri = run(SpC457, RuntimeConfig.IMPLICIT_ZERO_COPY, Fidelity.BENCH)
    assert rc.elapsed_us / ri.elapsed_us > 2.0


def test_spc_stack_arrays_refault_every_cycle():
    wl, res = run(SpC457, RuntimeConfig.IMPLICIT_ZERO_COPY)
    stack_pages_per_cycle = 3  # 3 × 2 MiB arrays = 1 page each
    assert res.ledger.n_faulted_pages >= wl.cycles * stack_pages_per_cycle


def test_spc_eager_beats_izc():
    """Table II: spC is best under Eager Maps (8.10 vs 7.80)."""
    _, ri = run(SpC457, RuntimeConfig.IMPLICIT_ZERO_COPY, Fidelity.BENCH)
    _, re_ = run(SpC457, RuntimeConfig.EAGER_MAPS, Fidelity.BENCH)
    assert re_.elapsed_us < ri.elapsed_us


def test_bt_ratio_direction():
    _, rc = run(Bt470, RuntimeConfig.COPY, Fidelity.BENCH)
    _, ri = run(Bt470, RuntimeConfig.IMPLICIT_ZERO_COPY, Fidelity.BENCH)
    _, re_ = run(Bt470, RuntimeConfig.EAGER_MAPS, Fidelity.BENCH)
    assert rc.elapsed_us / ri.elapsed_us > 1.5
    assert re_.elapsed_us < ri.elapsed_us


def test_bt_top_kernel_is_30pct_of_largest_alloc():
    """The paper's sizing invariant for 470.bt."""
    from repro.core import CostModel
    from repro.workloads.specaccel.bt import ARRAY_BYTES, TOP_KERNEL_US

    cost = CostModel()
    pages = ARRAY_BYTES[0] // cost.page_size
    alloc_us = pages * cost.pool_alloc_page_us
    assert TOP_KERNEL_US / alloc_us == pytest.approx(0.30, abs=0.02)


def test_spc_kernel_within_6pct_of_alloc():
    """§V.B: spC kernels take ≤6 % of a single allocation."""
    from repro.core import CostModel
    from repro.workloads.specaccel.spc import ARRAY_BYTES, KERNEL_US

    cost = CostModel()
    alloc_us = (ARRAY_BYTES // cost.page_size) * cost.pool_alloc_page_us
    assert KERNEL_US / alloc_us <= 0.06


def test_usm_equals_izc_for_all_benchmarks():
    """No SPEC proxy uses declare-target globals → USM ≡ Implicit Z-C."""
    for name, cls in ALL_BENCHMARKS.items():
        _, ru = run(cls, RuntimeConfig.UNIFIED_SHARED_MEMORY)
        _, ri = run(cls, RuntimeConfig.IMPLICIT_ZERO_COPY)
        assert ru.elapsed_us == pytest.approx(ri.elapsed_us, rel=1e-9), name


#: the ``np.roll`` form of every slice-concatenation shift in the kernels,
#: in source order
ROLL_FORMS = {
    "spc": [
        "0.5 * (u + np.roll(u, 1))",
        "0.5 * (u + np.roll(u, -1))",
    ],
    "bt": [
        "u - 0.25 * (np.roll(u, 1) + np.roll(u, -1) - 2 * u)",
        "0.5 * (rhs + np.roll(rhs, 1))",
    ],
}


def _concatenate_shifts(module):
    """Right-hand sides of the kernel assignments that shift by
    ``np.concatenate``, in source order."""
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(module))
    return [
        ast.unparse(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and "np.concatenate" in ast.unparse(node.value)
    ]


@pytest.mark.parametrize("name", sorted(ROLL_FORMS))
def test_kernel_shifts_equal_np_roll(name):
    import importlib

    module = importlib.import_module(f"repro.workloads.specaccel.{name}")
    exprs = _concatenate_shifts(module)
    assert len(exprs) == len(ROLL_FORMS[name])
    rng = np.random.default_rng(7)
    for n in (1, 2, 7, module.PAYLOAD_N):
        for _ in range(5):
            arrays = {"np": np, "u": rng.normal(size=n), "rhs": rng.normal(size=n)}
            for expr, ref in zip(exprs, ROLL_FORMS[name], strict=True):
                assert np.array_equal(eval(expr, dict(arrays)), eval(ref, dict(arrays)))
