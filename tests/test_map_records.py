"""Semantics of the per-clause and per-kernel records, and of the map loops'
MapCheck recorder path.

``MapClause`` is a frozen ``__slots__`` class; ``KernelRecord``,
``FaultResult`` and ``PrefaultResult`` are ``NamedTuple``s.  All four keep
dataclass-style ``repr`` text, equality, hashing and immutability.  The
recorder pins are sha256 digests of a recorder's map-op stream: the map
loops skip the recorder's clock reads when none is attached, and must
report exactly these operations when one is.
"""

import copy
import hashlib
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.check.events import instrument
from repro.core.config import ALL_CONFIGS, RuntimeConfig
from repro.core.params import CostModel
from repro.core.policies import DataPolicy
from repro.core.system import ApuSystem
from repro.driver.kfd import FaultResult, PrefaultResult
from repro.experiments.runner import execute
from repro.hsa.api import KernelRecord
from repro.memory import AddressRange, HostBuffer
from repro.omp.mapping import AlwaysMisuseError, MapClause, MapKind
from repro.omp.runtime import OpenMPRuntime
from repro.workloads.base import Fidelity
from repro.workloads.qmcpack import QmcPackNio
from repro.workloads.specaccel import Lbm404


@pytest.fixture
def buf():
    return HostBuffer("x", AddressRange(0x1000, 4096))


# -- MapClause -----------------------------------------------------------
def test_map_clause_repr(buf):
    b = "<HostBuffer 'x' 4096B live>"
    assert repr(MapClause(buf)) == (
        f"MapClause(buffer={b}, kind=<MapKind.TOFROM: 'tofrom'>, always=False)")
    assert repr(MapClause(buf, MapKind.TO)) == (
        f"MapClause(buffer={b}, kind=<MapKind.TO: 'to'>, always=False)")
    assert repr(MapClause(buf, MapKind.FROM, always=True)) == (
        f"MapClause(buffer={b}, kind=<MapKind.FROM: 'from'>, always=True)")
    assert repr(MapClause(buffer=buf, kind=MapKind.ALLOC)) == (
        f"MapClause(buffer={b}, kind=<MapKind.ALLOC: 'alloc'>, always=False)")


def test_map_clause_equality_and_hash(buf):
    other = HostBuffer("x", AddressRange(0x1000, 4096))
    assert MapClause(buf) == MapClause(buf, MapKind.TOFROM, False)
    assert MapClause(buf, MapKind.TO) != MapClause(buf, MapKind.TOFROM)
    assert MapClause(buf, MapKind.TO) != MapClause(buf, MapKind.TO, always=True)
    assert MapClause(buf) != MapClause(other)  # buffers compare by identity
    assert MapClause(buf) != (buf, MapKind.TOFROM, False)
    assert hash(MapClause(buf, MapKind.TO)) == hash((buf, MapKind.TO, False))
    assert len({MapClause(buf), MapClause(buf), MapClause(buf, MapKind.TO)}) == 2


def test_map_clause_is_frozen(buf):
    c = MapClause(buf, MapKind.TO)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'kind'"):
        c.kind = MapKind.FROM
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'extra'"):
        c.extra = 1
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'buffer'"):
        del c.buffer
    assert c.kind is MapKind.TO and c.buffer is buf and c.always is False


def test_map_clause_copies_and_pickles(buf):
    c = MapClause(buf, MapKind.FROM, always=True)
    assert copy.copy(c) == c
    back = pickle.loads(pickle.dumps(c))
    assert (back.buffer.name, back.kind, back.always) == ("x", MapKind.FROM, True)


@pytest.mark.parametrize("kind", [MapKind.ALLOC, MapKind.RELEASE, MapKind.DELETE])
def test_map_clause_rejects_always_on_non_transfer_kinds(buf, kind):
    with pytest.raises(AlwaysMisuseError,
                       match=rf"'always' modifier is meaningless on map\({kind.value}\)"):
        MapClause(buf, kind, always=True)
    assert MapClause(buf, kind).always is False


# -- kernel, fault and prefault records ----------------------------------
RECORDS = [
    (KernelRecord, ("k", 1.0, 2.0, 3.5, 1.5, 0.25, 2),
     "KernelRecord(name='k', submit_us=1.0, start_us=2.0, end_us=3.5, "
     "compute_us=1.5, fault_stall_us=0.25, n_faults=2)"),
    (FaultResult, (3, 12.5), "FaultResult(n_faults=3, stall_us=12.5)"),
    (PrefaultResult, (2, 5, 7.25), "PrefaultResult(n_new=2, n_present=5, work_us=7.25)"),
]
FIELDS = {
    KernelRecord: ("name", "submit_us", "start_us", "end_us", "compute_us",
                   "fault_stall_us", "n_faults"),
    FaultResult: ("n_faults", "stall_us"),
    PrefaultResult: ("n_new", "n_present", "work_us"),
}


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=["kernel", "fault", "prefault"])
def test_record_semantics(cls, values, text):
    names = FIELDS[cls]
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert repr(positional) == repr(keyword) == text
    assert positional == keyword and hash(positional) == hash(keyword)
    assert [getattr(positional, n) for n in names] == list(values)
    assert positional != cls(*values[:-1], values[-1] + 1)
    with pytest.raises(AttributeError):
        setattr(positional, names[0], values[0])
    with pytest.raises(TypeError):
        cls(*values[:-1])


# -- the map loops' recorder path ----------------------------------------
def _map_op_digest(workload, config):
    runtime = OpenMPRuntime(ApuSystem(cost=CostModel(), seed=0), config)
    rec = instrument(runtime)
    runtime.run_workload(workload)
    rows = "\n".join(
        repr((e.op, e.key, e.tid, e.t0, e.t1, e.refcount, e.is_new, e.removed))
        for e in rec.map_ops)
    return len(rec.map_ops), hashlib.sha256(rows.encode()).hexdigest()


def _qmc():
    return QmcPackNio(size=2, n_threads=2, fidelity=Fidelity.TEST)


@pytest.mark.parametrize("factory, config, n_ops, digest", [
    (_qmc, RuntimeConfig.COPY, 20376,
     "f08ccccb47f651890273eef9cd12598904271d22ddb7495a8de5d2fae1889d65"),
    (_qmc, RuntimeConfig.IMPLICIT_ZERO_COPY, 20376,
     "7059443f79708e1b3259728950e5450833cb4bcb881805f337fffe45f66ab389"),
    (_qmc, RuntimeConfig.EAGER_MAPS, 20376,
     "beafacb18d3eaea60939885cc29ccde14d48465620966dec14d88b9213899725"),
    (lambda: Lbm404(fidelity=Fidelity.TEST), RuntimeConfig.COPY, 2110,
     "f9fa8b6ebcdfeb5b791c2c411e7b25d20069944dcabcb5f418de08b052be750a"),
], ids=["qmc-copy", "qmc-izc", "qmc-eager", "lbm-copy"])
def test_recorder_map_op_stream_pinned(factory, config, n_ops, digest):
    assert _map_op_digest(factory(), config) == (n_ops, digest)


def _refuse_note_map(*_args, **_kw):
    raise AssertionError("_note_map called with no recorder attached")


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_no_recorder_never_notes_map_ops(monkeypatch, config):
    monkeypatch.setattr(DataPolicy, "_note_map", _refuse_note_map)
    run = execute(QmcPackNio(size=2, n_threads=2, fidelity=Fidelity.TEST), config)
    assert run.ledger.n_map_enters > 0 and run.ledger.n_map_exits > 0


def test_recorder_reaches_note_map(monkeypatch):
    """The guard above is live: with a recorder attached, the patched hook runs."""
    monkeypatch.setattr(DataPolicy, "_note_map", _refuse_note_map)
    with pytest.raises(AssertionError, match="no recorder attached"):
        _map_op_digest(Lbm404(fidelity=Fidelity.TEST), RuntimeConfig.COPY)
