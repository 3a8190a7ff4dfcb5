"""Map-operation IR: what MapFlow sees of a workload thread body.

The extractor partially evaluates ``make_body``/``body`` over a real
workload instance, so everything that is constant at construction time
(fidelity-derived trip counts, buffer sizes, ``tid``) is already folded
away; what remains is the structured sequence of mapping-relevant
operations below.  Buffers are *allocation sites* — one
:class:`AbstractBuffer` per ``th.alloc`` call site per unroll context —
and every operand is a :class:`BufRef`, a may-set of sites: a singleton
set is an exact ("strong") operand, a larger set is a weak one the
interpreter must treat conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ...omp.mapping import MapKind

__all__ = [
    "AbstractBuffer",
    "BufRef",
    "ClauseIR",
    "Op",
    "AllocOp",
    "FreeOp",
    "EnterOp",
    "ExitOp",
    "TargetOp",
    "WaitOp",
    "UpdateOp",
    "GlobalSyncOp",
    "HostWriteOp",
    "OutputOp",
    "Node",
    "Seq",
    "Branch",
    "Loop",
    "ReturnNode",
    "ThreadProgram",
    "WorkloadIR",
    "walk",
]


@dataclass(frozen=True)
class AbstractBuffer:
    """One allocation site (AST position x unroll context) of one thread."""

    site: str          #: stable key, e.g. ``"t0:L42.8[3]"``
    name: str          #: the buffer name passed to ``th.alloc`` (best effort)
    tid: int           #: thread whose extraction created the site
    lineno: int = 0
    #: folded byte size of the allocation, when the extractor resolved it
    #: (excluded from identity: two evaluation passes of one site must
    #: stay the same buffer even if the size folds differently)
    nbytes: Optional[int] = field(default=None, compare=False)

    def __repr__(self) -> str:  # compact in interp traces
        return f"<{self.name}@{self.site}>"


@dataclass(frozen=True)
class BufRef:
    """A may-set of allocation sites an operand can denote.

    ``unknown`` marks operands the extractor could not resolve at all
    (opaque expressions); ``weak`` marks resolved operands whose
    multiplicity is uncertain (clauses from a summarized list).  The
    interpreter only applies strong updates — and only ever *reports* —
    through operands that are neither.
    """

    sites: FrozenSet[AbstractBuffer]
    display: str = ""
    unknown: bool = False
    weak: bool = False

    @property
    def strong(self) -> bool:
        return not self.unknown and not self.weak and len(self.sites) == 1

    @property
    def only(self) -> AbstractBuffer:
        (b,) = self.sites
        return b

    def label(self) -> str:
        if self.display:
            return self.display
        if self.sites:
            return "|".join(sorted(b.name for b in self.sites))
        return "<?>"

    def nbytes_bounds(self) -> Tuple[int, Optional[int]]:
        """Symbolic ``[lo, hi]`` byte-size interval of the operand.

        ``hi is None`` means unbounded (an unresolved operand or a site
        whose allocation size did not fold).  Sizes live on the sites, so
        callers should prefer resolving through the owning
        :class:`ThreadProgram`'s canonical buffer registry when they have
        one — the extractor may refine a site's size after a ref to it
        was built.
        """
        if self.unknown or not self.sites:
            return (0, None)
        sizes = [b.nbytes for b in self.sites]
        if any(s is None for s in sizes):
            return (0, None)
        return (min(sizes), max(sizes))


@dataclass(frozen=True)
class ClauseIR:
    """One map clause of an enter/exit/target construct."""

    buf: BufRef
    kind: Optional[MapKind]      #: None when the kind itself is opaque
    always: bool = False

    def nbytes_bounds(self) -> Tuple[int, Optional[int]]:
        """Byte-size interval of the clause operand (see BufRef)."""
        return self.buf.nbytes_bounds()


_next_op_id = [0]


def _op_id() -> int:
    _next_op_id[0] += 1
    return _next_op_id[0]


@dataclass
class Op:
    """Base class for primitive IR operations."""

    lineno: int = 0
    op_id: int = field(default_factory=_op_id)


@dataclass
class AllocOp(Op):
    buf: Optional[AbstractBuffer] = None


@dataclass
class FreeOp(Op):
    buf: BufRef = None  # type: ignore[assignment]


@dataclass
class EnterOp(Op):
    clauses: Tuple[ClauseIR, ...] = ()


@dataclass
class ExitOp(Op):
    clauses: Tuple[ClauseIR, ...] = ()


@dataclass
class TargetOp(Op):
    kernel: str = ""
    clauses: Tuple[ClauseIR, ...] = ()
    touches: Tuple[BufRef, ...] = ()
    globals_used: Tuple[str, ...] = ()
    nowait: bool = False
    handle_id: Optional[int] = None   #: set when nowait


@dataclass
class WaitOp(Op):
    handle_ids: FrozenSet[int] = frozenset()
    unknown: bool = False             #: waits on an unresolvable handle

    def retires(self, inflight: FrozenSet[int]) -> FrozenSet[int]:
        """The in-flight handles this wait completes: every one when the
        handle is unresolvable, else the ones it names."""
        return inflight if self.unknown else inflight & self.handle_ids


@dataclass
class UpdateOp(Op):
    to: Tuple[BufRef, ...] = ()
    from_: Tuple[BufRef, ...] = ()


@dataclass
class GlobalSyncOp(Op):
    name: str = ""


@dataclass
class HostWriteOp(Op):
    buf: BufRef = None  # type: ignore[assignment]


@dataclass
class OutputOp(Op):
    key: Optional[str] = None
    bufs: Tuple[BufRef, ...] = ()


# ---------------------------------------------------------------------------
# structured control flow (lowered to a CFG by cfg.py)
# ---------------------------------------------------------------------------


@dataclass
class Seq:
    items: List[object] = field(default_factory=list)  #: Op | Branch | Loop | ReturnNode


@dataclass
class Branch:
    """Unresolved conditional: both arms are feasible."""

    then: Seq = field(default_factory=Seq)
    orelse: Seq = field(default_factory=Seq)
    lineno: int = 0


@dataclass
class Loop:
    """A loop whose trip count the extractor could not fold away.

    ``min_trips=1`` encodes the documented soundness assumption that a
    ``for`` over a workload-supplied range runs at least once (every
    fidelity produces >= 2 steps); ``while`` loops get ``min_trips=0``.
    ``trips`` carries the exact trip count when the iterable's length
    folded against the workload instance but exceeded the unroll limit
    (``None`` for ``while`` loops and unresolvable iterables) — the cost
    analysis iterates such loops symbolically instead of widening.
    """

    body: Seq = field(default_factory=Seq)
    min_trips: int = 1
    kind: str = "for"
    lineno: int = 0
    trips: Optional[int] = None


@dataclass
class ReturnNode:
    lineno: int = 0


Node = object  # documentation alias: Op | Seq | Branch | Loop | ReturnNode


def walk(seq: Seq) -> Iterator[Node]:
    """Every node under ``seq`` in pre-order: each item before what it
    contains, a branch's then-arm before its else-arm.  This is the one
    stateless traversal of the IR; analyses that carry state along paths
    walk the CFG (:mod:`~.cfg`) or, for MapCost, the structure itself."""
    for item in seq.items:
        yield item
        if isinstance(item, Branch):
            yield from walk(item.then)
            yield from walk(item.orelse)
        elif isinstance(item, Loop):
            yield from walk(item.body)


@dataclass
class ThreadProgram:
    """The extracted IR of one OpenMP host thread."""

    tid: int
    body: Seq = field(default_factory=Seq)
    buffers: Dict[str, AbstractBuffer] = field(default_factory=dict)
    #: nowait handle id -> (exit clauses to apply at wait, referenced sites)
    handles: Dict[int, Tuple[Tuple[ClauseIR, ...], FrozenSet[AbstractBuffer]]] = (
        field(default_factory=dict)
    )


@dataclass
class WorkloadIR:
    """Everything MapFlow extracted from one workload."""

    name: str
    n_threads: int
    threads: List[ThreadProgram] = field(default_factory=list)
    globals_declared: FrozenSet[str] = frozenset()
    source_file: str = ""
    #: places where extraction lost precision (for diagnostics/tests)
    imprecision: List[str] = field(default_factory=list)
    #: declare-target global name -> folded byte size (None = unresolved),
    #: recovered from the same ``prepare`` AST scan as globals_declared
    global_sizes: Dict[str, Optional[int]] = field(default_factory=dict)

    def thread(self, tid: int) -> ThreadProgram:
        return self.threads[tid]

    def ops(self) -> Iterator[Op]:
        """Every primitive op of every thread, in :func:`walk` order."""
        for th in self.threads:
            for node in walk(th.body):
                if isinstance(node, Op):
                    yield node
