"""OpenMP data-environment mapping: map kinds and the present table.

OpenMP's ``map`` clauses manipulate a per-device *present table* with
reference counting (the libomptarget ``DeviceTy::HostDataToTargetMap``):

* mapping an absent range creates an entry (and, in Copy mode, a shadow
  device allocation) with refcount 1;
* mapping a present range increments the refcount — no storage operation
  unless the ``always`` modifier forces a transfer;
* unmapping decrements; the ``from``/``tofrom`` copy-back and the device
  deallocation happen when the count reaches zero (or unconditionally
  with ``always`` / ``delete``).

The table itself is policy-agnostic: zero-copy configurations still do
the full refcount bookkeeping (OpenMP semantics require it for
``delete``/presence checks); they simply attach no device buffer.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError, dataclass
from typing import Dict, List, Optional

from ..memory.buffers import DeviceBuffer, HostBuffer

__all__ = [
    "MapKind",
    "MapClause",
    "PresentEntry",
    "PresentTable",
    "MappingError",
    "RefcountUnderflowError",
    "AlwaysMisuseError",
]


class MappingError(RuntimeError):
    """Raised on map/unmap sequences that violate OpenMP semantics."""


class RefcountUnderflowError(MappingError):
    """An unmap would drive a present entry's refcount below zero
    (unbalanced map-exit; MapCheck rule MC-S01)."""


class AlwaysMisuseError(MappingError):
    """``always`` modifier attached to a map kind that never transfers
    (MapCheck rule MC-S05)."""


class MapKind(enum.Enum):
    """OpenMP map types (the subset the paper's benchmarks exercise)."""

    ALLOC = "alloc"    #: presence + refcount only, no transfer
    TO = "to"          #: host→device on entry
    FROM = "from"      #: device→host on exit
    TOFROM = "tofrom"  #: both
    RELEASE = "release"  #: decrement only, never transfers
    DELETE = "delete"    #: force refcount to zero, never transfers

    def __init__(self, value: str):
        #: set once per member: every map op reads them
        self.copies_to_device = value in ("to", "tofrom")
        self.copies_to_host = value in ("from", "tofrom")


class MapClause:
    """One ``map([always,] kind: buffer)`` clause: a frozen value with a
    dataclass ``repr``, cheap to build because workloads build one per launch."""

    __slots__ = ("buffer", "kind", "always")

    def __init__(self, buffer: HostBuffer, kind: MapKind = MapKind.TOFROM,
                 always: bool = False):
        if always and kind in _NEVER_TRANSFERS:
            raise AlwaysMisuseError(f"'always' modifier is meaningless on map({kind.value})")
        _set_buffer(self, buffer)
        _set_kind(self, kind)
        _set_always(self, always)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return MapClause, (self.buffer, self.kind, self.always)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.buffer, self.kind, self.always) == (other.buffer, other.kind, other.always)

    def __hash__(self):
        return hash((self.buffer, self.kind, self.always))

    def __repr__(self):
        return f"MapClause(buffer={self.buffer!r}, kind={self.kind!r}, always={self.always!r})"


_NEVER_TRANSFERS = (MapKind.ALLOC, MapKind.RELEASE, MapKind.DELETE)
_set_buffer = MapClause.buffer.__set__
_set_kind = MapClause.kind.__set__
_set_always = MapClause.always.__set__


@dataclass
class PresentEntry:
    """Present-table entry for one host range."""

    host: HostBuffer
    device: Optional[DeviceBuffer]  #: shadow allocation (Copy mode only)
    refcount: int = 0

    @property
    def key(self) -> int:
        return self.host.range.start


class PresentTable:
    """Per-device host→target mapping table with refcounts.

    ``observer`` is an optional sanitizer hook (``repro.check``): when
    set, every structural operation — and every rejected one, *before*
    the exception propagates — is reported via
    ``observer.note_table(op, buffer, refcount, locked)``.  ``lock_probe``
    lets the observer know whether the device lock was held at the time
    (operations outside the lock are themselves suspicious).
    """

    def __init__(self):
        self._entries: Dict[int, PresentEntry] = {}
        self.peak_entries = 0
        self.observer = None
        self.lock_probe = None

    def _notify(self, op: str, buffer: Optional[HostBuffer], refcount) -> None:
        """Report to the observer; callers call it only when one is set."""
        locked = bool(self.lock_probe()) if self.lock_probe is not None else True
        self.observer.note_table(op, buffer, refcount, locked)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, buffer: HostBuffer) -> Optional[PresentEntry]:
        entry = self._entries.get(buffer.range.start)
        if entry is not None and entry.host is not buffer:
            raise MappingError(
                f"present-table collision at 0x{buffer.range.start:x}: "
                f"{entry.host.name!r} vs {buffer.name!r}"
            )
        return entry

    def is_present(self, buffer: HostBuffer) -> bool:
        return self.lookup(buffer) is not None

    def find_covering(self, rng) -> Optional[PresentEntry]:
        """First live entry whose host range overlaps ``rng``.

        Raw-pointer accesses do not have to start at a mapped buffer's
        base address, so coverage checks (MapCheck's missing-map lint)
        need an overlap lookup rather than the exact-start :meth:`lookup`.
        """
        for entry in self._entries.values():
            if entry.host.range.overlaps(rng):
                return entry
        return None

    def insert(self, entry: PresentEntry) -> None:
        key = entry.key
        if key in self._entries:
            raise MappingError(f"duplicate present-table entry at 0x{key:x}")
        self._entries[key] = entry
        if len(self._entries) > self.peak_entries:
            self.peak_entries = len(self._entries)
        if self.observer is not None:
            self._notify("insert", entry.host, entry.refcount)

    def remove(self, entry: PresentEntry) -> None:
        found = self._entries.pop(entry.key, None)
        if found is not entry:
            raise MappingError(f"removing unknown present-table entry {entry.host.name!r}")
        if self.observer is not None:
            self._notify("remove", entry.host, entry.refcount)

    def retain(self, buffer: HostBuffer) -> PresentEntry:
        """Increment the refcount of an existing entry."""
        entry = self.lookup(buffer)
        if entry is None:
            if self.observer is not None:
                self._notify("retain_absent", buffer, None)
            raise MappingError(f"retain of absent buffer {buffer.name!r}")
        entry.refcount += 1
        if self.observer is not None:
            self._notify("retain", buffer, entry.refcount)
        return entry

    def release(self, buffer: HostBuffer, delete: bool = False) -> PresentEntry:
        """Decrement (or zero, for ``delete``) the refcount.

        The caller inspects ``entry.refcount`` afterwards to decide on
        copy-back and deallocation; removal is explicit via
        :meth:`remove` once storage is torn down.
        """
        entry = self.lookup(buffer)
        if entry is None:
            if self.observer is not None:
                self._notify("release_absent", buffer, None)
            raise MappingError(f"unmap of absent buffer {buffer.name!r}")
        if entry.refcount <= 0:
            if self.observer is not None:
                self._notify("underflow", buffer, entry.refcount)
            raise RefcountUnderflowError(
                f"refcount underflow for {buffer.name!r}: release at refcount "
                f"{entry.refcount} (unbalanced map-exit)"
            )
        if delete:
            entry.refcount = 0
        else:
            entry.refcount -= 1
        if self.observer is not None:
            self._notify("release", buffer, entry.refcount)
        return entry

    def entries(self) -> List[PresentEntry]:
        return list(self._entries.values())

    def total_refcount(self) -> int:
        return sum(e.refcount for e in self._entries.values())
