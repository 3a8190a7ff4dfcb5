"""Smoke tests: the fast examples must run end-to-end.

(The long sweeps — qmcpack_study, specaccel_corner_cases — are exercised
by the benchmark harness, which runs the same code paths at scale.)
"""

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_quickstart_runs(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "bit-identical" in out
    assert "Eager Maps" in out


def test_multi_socket_affinity_runs(capsys):
    load_example("multi_socket_affinity").main()
    out = capsys.readouterr().out
    assert "cross-socket slowdown" in out
    assert "remote-page fraction: 1.00" in out


def test_performance_portability_runs(capsys):
    load_example("performance_portability").main()
    out = capsys.readouterr().out
    assert "Implicit Z-C" in out
    assert "speedup from flipping HSA_XNACK" in out
