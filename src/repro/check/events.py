"""MapCheck event recording: the dynamic trace the analyses replay.

:func:`instrument` attaches a :class:`CheckRecorder` to an
:class:`~repro.omp.runtime.OpenMPRuntime`; the runtime, the policies and
the present table then report every map operation, kernel dispatch,
global sync, motion update and host write as a structured event.  The
payload hashes recorded alongside are what lets the lint reason about
*data* (was the device-written value ever synced back?) instead of just
operation counts.

Hashes are CRC32 of the functional payload bytes — payloads are small by
construction (the modeled size is what drives timing), so hashing every
event is cheap; a CRC collision would at worst suppress a finding, never
invent one.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..memory.buffers import HostBuffer
from ..omp.globals_ import GlobalVar
from ..omp.mapping import MapClause, MapKind

__all__ = [
    "buffer_key",
    "payload_hash",
    "MapOpEvent",
    "TableEvent",
    "KernelEvent",
    "HostWriteEvent",
    "GlobalSyncEvent",
    "UpdateEvent",
    "CheckRecorder",
    "instrument",
]


def buffer_key(buf: HostBuffer) -> str:
    """Stable identity of a host buffer across the trace."""
    return f"{buf.name}@0x{buf.range.start:x}"


def payload_hash(arr: Optional[np.ndarray]) -> int:
    if arr is None:
        return 0
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


@dataclass(slots=True)
class MapOpEvent:
    """One map clause processed by a policy (enter or exit)."""

    op: str                      #: "enter" | "exit"
    tid: Optional[int]
    t0: float
    t1: float
    key: str
    name: str
    start: int
    nbytes: int
    kind: MapKind
    always: bool
    is_new: bool
    refcount: int                #: refcount after the operation
    removed: bool                #: entry removed from the table
    payload_hash: int            #: host payload at the time of the op
    sync_device: bool            #: op moved host data to the device image
    sync_host: bool              #: op moved device data back to the host
    #: recording-order sequence number: the tie-breaker that keeps
    #: analyses deterministic when two ops share a start time
    seq: int = 0


@dataclass(slots=True)
class TableEvent:
    """Raw present-table operation (sanitizer channel; includes rejected
    operations reported just before their exception)."""

    op: str                      #: insert/retain/release/remove/underflow/...
    t: float
    key: str
    name: str
    refcount: Optional[int]
    locked: bool                 #: device lock held during the operation


@dataclass(slots=True)
class KernelEvent:
    """One target-region kernel, from dispatch to completion."""

    kid: int
    name: str
    tid: int
    t_dispatch: float
    mapped: Tuple[str, ...]          #: buffer keys from map clauses
    touched: Tuple[str, ...]         #: buffer keys from raw-pointer touches
    uncovered: Tuple[str, ...]       #: touched keys with no live coverage
    writes: Tuple[str, ...]          #: keys the kernel may write (FROM/TOFROM/touch)
    reads: Tuple[str, ...]           #: keys the kernel may read
    globals_read: Tuple[Tuple[str, int], ...]  #: (name, host hash at dispatch)
    submit_us: float = 0.0
    end_us: float = 0.0
    completed: bool = False
    arg_hashes: Dict[str, int] = field(default_factory=dict)  #: post-completion
    waiter_tid: Optional[int] = None
    wait_t0: float = 0.0


@dataclass(slots=True)
class HostWriteEvent:
    tid: int
    t: float
    key: str
    name: str
    payload_hash: int


@dataclass(slots=True)
class GlobalSyncEvent:
    """Host→device refresh of a declare-target global (init, map(always,
    to:) or target update)."""

    tid: Optional[int]           #: None = device init
    t: float
    name: str
    host_hash: int


@dataclass(slots=True)
class UpdateEvent:
    """``target update`` motion clause."""

    tid: int
    t: float
    key: str
    name: str
    to_device: bool
    present: bool                #: motion of absent data is a no-op
    payload_hash: int


class CheckRecorder:
    """Collects the MapCheck event streams during one instrumented run."""

    def __init__(self, env):
        self.env = env  #: the run's clock; nothing else of the run is held
        self.map_ops: List[MapOpEvent] = []
        self.table_ops: List[TableEvent] = []
        self.kernels: List[KernelEvent] = []
        self.host_writes: List[HostWriteEvent] = []
        self.global_syncs: List[GlobalSyncEvent] = []
        self.updates: List[UpdateEvent] = []
        self.buffers: Dict[str, HostBuffer] = {}
        self.globals: Dict[str, GlobalVar] = {}
        #: one key string per buffer, shared by all of its events
        self._keys: Dict[HostBuffer, str] = {}
        self._next_kid = 0

    def _key(self, buf: HostBuffer) -> str:
        key = self._keys.get(buf)
        if key is None:
            key = self._keys[buf] = buffer_key(buf)
        return key

    # -- hook methods (called by runtime/policies/api) -------------------
    def note_map(self, op: str, clause: MapClause, tid: Optional[int],
                 t0: float, t1: float, *, is_new: bool, refcount: int,
                 removed: bool) -> None:
        buf = clause.buffer
        key = self._key(buf)
        self.buffers[key] = buf
        if op == "enter":
            sync_device = clause.kind.copies_to_device and (is_new or clause.always)
            sync_host = False
        else:
            sync_device = False
            sync_host = clause.kind.copies_to_host and (removed or clause.always)
        self.map_ops.append(MapOpEvent(
            op=op, tid=tid, t0=t0, t1=t1, key=key, name=buf.name,
            start=buf.range.start, nbytes=buf.range.nbytes,
            kind=clause.kind, always=clause.always, is_new=is_new,
            refcount=refcount, removed=removed,
            payload_hash=payload_hash(buf.payload),
            sync_device=sync_device, sync_host=sync_host,
            seq=len(self.map_ops),
        ))

    def note_table(self, op: str, buffer: Optional[HostBuffer],
                   refcount: Optional[int], locked: bool) -> None:
        key = self._key(buffer) if buffer is not None else ""
        name = buffer.name if buffer is not None else ""
        self.table_ops.append(TableEvent(
            op=op, t=self.env.now, key=key, name=name,
            refcount=refcount, locked=locked,
        ))

    def begin_kernel(self, name: str, tid: int, t: float, maps, touches,
                     uncovered, globals_used) -> KernelEvent:
        for buf in list(touches):
            self.buffers[self._key(buf)] = buf
        for glob in globals_used:
            self.globals[glob.name] = glob
        mapped = tuple(self._key(c.buffer) for c in maps)
        touched = tuple(self._key(b) for b in touches)
        writes = tuple(
            {self._key(c.buffer) for c in maps if c.kind.copies_to_host}
            | set(touched)
        )
        reads = tuple(set(mapped) | set(touched))
        ev = KernelEvent(
            kid=self._next_kid, name=name, tid=tid, t_dispatch=t,
            mapped=mapped, touched=touched,
            uncovered=tuple(self._key(b) for b in uncovered),
            writes=writes, reads=reads,
            globals_read=tuple(
                (g.name, payload_hash(g.host_payload)) for g in globals_used
            ),
        )
        self._next_kid += 1
        self.kernels.append(ev)
        return ev

    def end_kernel(self, ev: KernelEvent, rec, waiter_tid: int,
                   wait_t0: float) -> None:
        ev.submit_us = rec.submit_us
        ev.end_us = rec.end_us
        ev.completed = True
        ev.waiter_tid = waiter_tid
        ev.wait_t0 = wait_t0
        for key in set(ev.mapped) | set(ev.touched):
            buf = self.buffers.get(key)
            if buf is not None:
                ev.arg_hashes[key] = payload_hash(buf.payload)

    def note_host_write(self, tid: int, t: float, buf: HostBuffer) -> None:
        key = self._key(buf)
        self.buffers[key] = buf
        self.host_writes.append(HostWriteEvent(
            tid=tid, t=t, key=key, name=buf.name,
            payload_hash=payload_hash(buf.payload),
        ))

    def note_global_sync(self, tid: Optional[int], t: float,
                         glob: GlobalVar) -> None:
        self.globals[glob.name] = glob
        self.global_syncs.append(GlobalSyncEvent(
            tid=tid, t=t, name=glob.name,
            host_hash=payload_hash(glob.host_payload),
        ))

    def note_update(self, tid: int, t: float, buf: HostBuffer, *,
                    to_device: bool, present: bool) -> None:
        key = self._key(buf)
        self.buffers[key] = buf
        self.updates.append(UpdateEvent(
            tid=tid, t=t, key=key, name=buf.name, to_device=to_device,
            present=present, payload_hash=payload_hash(buf.payload),
        ))

    # -- summary ---------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "map_ops": len(self.map_ops),
            "kernels": len(self.kernels),
            "table_ops": len(self.table_ops),
            "host_writes": len(self.host_writes),
            "global_syncs": len(self.global_syncs),
            "buffers": len(self.buffers),
        }


def instrument(runtime) -> CheckRecorder:
    """Attach a fresh recorder to ``runtime`` (and its present table)."""
    rec = CheckRecorder(runtime.env)
    runtime.recorder = rec
    runtime.table.observer = rec
    runtime.table.lock_probe = lambda: runtime.lock.locked
    return rec
