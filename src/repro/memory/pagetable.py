"""Page tables for the CPU (OS) and GPU address-translation domains.

The paper's central mechanism (§III.B) is the asymmetry between the two
tables:

* the **CPU page table** is populated by the OS on host first-touch (or at
  allocation time in our model, since host-side lazy faulting is not a
  factor in any experiment);
* the **GPU page table** starts empty for OS-allocated memory.  Entries
  arrive either page-by-page via the XNACK-replay protocol while a kernel
  runs, in bulk when ROCr allocates "device" memory with XNACK disabled,
  or ahead of time via the Eager-Maps prefault syscall.

Translation state is *extent*-shaped in practice — every mechanism the
paper measures operates on contiguous runs of pages (a buffer prefault, a
bulk pool map, an mmu shootdown of a freed allocation), and even XNACK
replay faults arrive as contiguous spans of a kernel's touched ranges.
:class:`PageTable` therefore stores **coalesced interval runs**: a sorted
list of ``(start_page, frames, origin)`` extents with ``bisect``-based
lookup.  Batched operations (:meth:`install_range`, :meth:`evict_range`,
:meth:`missing_runs`, :meth:`coverage`) are O(log runs + touched runs)
instead of O(pages); the single-page API survives as thin wrappers so
existing callers and tests keep working unchanged.  The residency queries
(:meth:`resident`, :meth:`coverage`, :meth:`missing_runs`) answer the
common "one run covers the whole range" case in O(log runs).

PTEs record which mechanism installed them so traces can attribute MI
(memory initialization) cost to the right configuration behaviour
(Table III).  Per-page install/evict counters and the per-origin
histogram are maintained exactly as the historical flat-dict table did —
the differential tests keep that flat reference implementation as their
oracle (``FlatPageTable`` in ``tests/oracles.py``).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .layout import AddressRange

__all__ = ["PageTable", "Pte", "MapOrigin"]


class MapOrigin(enum.Enum):
    """How a PTE got into a page table."""

    OS_TOUCH = "os_touch"          # CPU-side fault / allocation-time populate
    XNACK_REPLAY = "xnack_replay"  # GPU-side fault while a kernel runs
    BULK_ALLOC = "bulk_alloc"      # driver bulk map at ROCr pool allocation
    PREFAULT = "prefault"          # Eager-Maps svm_attributes_set syscall


@dataclass
class Pte:
    """Page table entry: physical frame plus provenance."""

    frame: int
    origin: MapOrigin


class _Run:
    """One coalesced extent: ``len(frames)`` pages starting at ``start``.

    Frames within a run need not be physically contiguous (the frame
    allocator recycles a free list); virtual contiguity plus a shared
    origin is what allows coalescing.
    """

    __slots__ = ("start", "frames", "origin")

    def __init__(self, start: int, frames: List[int], origin: MapOrigin):
        self.start = start
        self.frames = frames
        self.origin = origin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<run 0x{self.start:x} n={len(self.frames)} {self.origin.value}>"


class PageTable:
    """Single-level page table over huge (or base) pages, stored as runs.

    ``page_size`` is fixed per table instance; with THP on (the paper's
    setting) both CPU and GPU tables use 2 MiB pages.
    """

    def __init__(self, page_size: int, name: str = ""):
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError(f"page_size must be a power of two, got {page_size}")
        self.page_size = page_size
        self.name = name or "pagetable"
        self._runs: List[_Run] = []
        self._starts: List[int] = []  # parallel to _runs, for bisect
        self._n_pages = 0
        # counters for trace/analysis (per *page*, exactly as the flat
        # table counted them)
        self.install_count = 0
        self.evict_count = 0

    def __len__(self) -> int:
        return self._n_pages

    def __contains__(self, page: int) -> bool:
        return self._find(page) is not None

    @property
    def run_count(self) -> int:
        """Number of coalesced extents currently stored."""
        return len(self._runs)

    # -- run plumbing ----------------------------------------------------
    def _run_end(self, run: _Run) -> int:
        return run.start + len(run.frames) * self.page_size

    def _find(self, page: int) -> Optional[Tuple[_Run, int]]:
        """(run, index-within-run) containing ``page``, or None."""
        if page % self.page_size:
            return None
        i = bisect_right(self._starts, page) - 1
        if i < 0:
            return None
        run = self._runs[i]
        if page >= self._run_end(run):
            return None
        return run, (page - run.start) // self.page_size

    def _covers(self, rng: AddressRange) -> bool:
        """True when one run translates every page of ``rng``.

        The usual answer for a kernel's or an Eager prefault's range once
        its buffer is resident: one ``bisect`` to the run holding the
        first page, which must reach past the last byte.  On False the
        callers fall through to the general walk.
        """
        start = rng.start
        i = bisect_right(self._starts, start) - 1
        if i < 0:
            return False
        run = self._runs[i]
        return run.start + len(run.frames) * self.page_size >= start + rng.nbytes

    def _overlapping(self, rng: AddressRange) -> Iterator[Tuple[int, _Run, int, int]]:
        """Yield ``(run_index, run, lo_idx, hi_idx)`` for every run that
        overlaps ``rng``, clipped to the range, in ascending order."""
        first, n = rng.page_span(self.page_size)
        if n == 0:
            return
        end = first + n * self.page_size
        i = bisect_right(self._starts, first) - 1
        if i < 0 or self._run_end(self._runs[i]) <= first:
            i += 1
        while i < len(self._runs):
            run = self._runs[i]
            if run.start >= end:
                break
            lo = max(run.start, first)
            hi = min(self._run_end(run), end)
            yield i, run, (lo - run.start) // self.page_size, (hi - run.start) // self.page_size
            i += 1

    # -- queries ---------------------------------------------------------
    def lookup(self, page: int) -> Optional[Pte]:
        hit = self._find(page)
        if hit is None:
            return None
        run, idx = hit
        return Pte(run.frames[idx], run.origin)

    def present(self, page: int) -> bool:
        return self._find(page) is not None

    def missing_pages(self, rng: AddressRange) -> List[int]:
        """Pages of ``rng`` with no translation in this table."""
        ps = self.page_size
        return [
            p
            for gap in self.missing_runs(rng)
            for p in range(gap.start, gap.end, ps)
        ]

    def present_pages(self, rng: AddressRange) -> List[int]:
        ps = self.page_size
        out: List[int] = []
        for _, run, lo, hi in self._overlapping(rng):
            base = run.start + lo * ps
            out.extend(range(base, base + (hi - lo) * ps, ps))
        return out

    def coverage(self, rng: AddressRange) -> Tuple[int, int]:
        """(present, missing) page counts over the range."""
        total = rng.n_pages(self.page_size)
        if self._covers(rng):
            return total, 0
        present = self._n_present(rng)
        return present, total - present

    def resident(self, rng: AddressRange) -> bool:
        """True when no page of ``rng`` lacks a translation."""
        return self._covers(rng) or self._n_present(rng) == rng.n_pages(self.page_size)

    def _n_present(self, rng: AddressRange) -> int:
        return sum(hi - lo for _, _, lo, hi in self._overlapping(rng))

    def missing_runs(self, rng: AddressRange) -> List[AddressRange]:
        """Maximal contiguous untranslated extents of ``rng``, page
        aligned, in ascending order.  The batch-shaped complement of
        :meth:`missing_pages`."""
        if self._covers(rng):
            return []
        first, n = rng.page_span(self.page_size)
        if n == 0:
            return []
        end = first + n * self.page_size
        out: List[AddressRange] = []
        cursor = first
        for _, run, lo, hi in self._overlapping(rng):
            lo_addr = run.start + lo * self.page_size
            if lo_addr > cursor:
                out.append(AddressRange(cursor, lo_addr - cursor))
            cursor = run.start + hi * self.page_size
        if cursor < end:
            out.append(AddressRange(cursor, end - cursor))
        return out

    def present_runs(
        self, rng: AddressRange
    ) -> List[Tuple[int, List[int], MapOrigin]]:
        """``(start_page, frames, origin)`` for every translated extent
        overlapping ``rng``, clipped to the range."""
        ps = self.page_size
        return [
            (run.start + lo * ps, run.frames[lo:hi], run.origin)
            for _, run, lo, hi in self._overlapping(rng)
        ]

    def frames_for(self, rng: AddressRange) -> List[int]:
        out: List[int] = []
        for _, run, lo, hi in self._overlapping(rng):
            out.extend(run.frames[lo:hi])
        return out

    def origins_histogram(self) -> Dict[MapOrigin, int]:
        hist: Dict[MapOrigin, int] = {}
        for run in self._runs:
            hist[run.origin] = hist.get(run.origin, 0) + len(run.frames)
        return hist

    def pages(self) -> Iterable[int]:
        ps = self.page_size
        for run in self._runs:
            yield from range(run.start, self._run_end(run), ps)

    # -- mutation -----------------------------------------------------------
    def install(self, page: int, frame: int, origin: MapOrigin) -> None:
        """Install a translation.  Installing over an existing entry is an
        error — every code path in the stack checks presence first, and a
        silent overwrite would hide accounting bugs."""
        if page % self.page_size:
            raise ValueError(f"page 0x{page:x} not aligned to {self.page_size}")
        self.install_range(AddressRange(page, self.page_size), [frame], origin)

    def install_range(
        self, rng: AddressRange, frames: Sequence[int], origin: MapOrigin
    ) -> int:
        """Install translations for every page of ``rng`` as one run.

        ``frames`` supplies one physical frame per covered page.  The new
        extent coalesces with virtually-adjacent neighbours of the same
        origin.  Any overlap with an existing translation raises
        ``KeyError`` (same contract as single-page :meth:`install`).
        Returns the number of pages installed.
        """
        ps = self.page_size
        first, n = rng.page_span(ps)
        if n != len(frames):
            raise ValueError(
                f"frame count {len(frames)} != page count {n} for {rng}"
            )
        if n == 0:
            return 0
        end = first + n * ps
        i = bisect_right(self._starts, first)
        prev = self._runs[i - 1] if i > 0 else None
        if prev is not None and self._run_end(prev) > first:
            raise KeyError(f"page 0x{first:x} already mapped in {self.name}")
        nxt = self._runs[i] if i < len(self._runs) else None
        if nxt is not None and nxt.start < end:
            raise KeyError(f"page 0x{nxt.start:x} already mapped in {self.name}")
        merge_prev = (
            prev is not None and self._run_end(prev) == first and prev.origin is origin
        )
        merge_next = nxt is not None and nxt.start == end and nxt.origin is origin
        if merge_prev and merge_next:
            prev.frames.extend(frames)
            prev.frames.extend(nxt.frames)
            del self._runs[i]
            del self._starts[i]
        elif merge_prev:
            prev.frames.extend(frames)
        elif merge_next:
            nxt.frames[:0] = frames
            nxt.start = first
            self._starts[i] = first
        else:
            self._runs.insert(i, _Run(first, list(frames), origin))
            self._starts.insert(i, first)
        self._n_pages += n
        self.install_count += n
        return n

    def evict(self, page: int) -> Pte:
        """Remove and return a translation (TLB shootdown / unmap)."""
        hit = self._find(page)
        if hit is None:
            raise KeyError(f"page 0x{page:x} not mapped in {self.name}")
        run, idx = hit
        pte = Pte(run.frames[idx], run.origin)
        self._evict_overlap(AddressRange(page, self.page_size))
        return pte

    def _evict_overlap(
        self, rng: AddressRange
    ) -> List[Tuple[int, List[int], MapOrigin]]:
        """Drop every translation overlapping ``rng``; partial overlaps
        split the run.  Returns evicted ``(start_page, frames, origin)``
        extents in page order."""
        ps = self.page_size
        spans = [
            (i, run, lo, hi) for i, run, lo, hi in self._overlapping(rng)
        ]
        out: List[Tuple[int, List[int], MapOrigin]] = []
        removed = 0
        # mutate from the back so earlier indices stay valid
        for i, run, lo, hi in reversed(spans):
            out.append((run.start + lo * ps, run.frames[lo:hi], run.origin))
            removed += hi - lo
            left = run.frames[:lo]
            right = run.frames[hi:]
            if left and right:
                right_start = run.start + hi * ps
                run.frames = left
                self._runs.insert(i + 1, _Run(right_start, right, run.origin))
                self._starts.insert(i + 1, right_start)
            elif left:
                run.frames = left
            elif right:
                run.start += hi * ps
                run.frames = right
                self._starts[i] = run.start
            else:
                del self._runs[i]
                del self._starts[i]
        out.reverse()
        self._n_pages -= removed
        self.evict_count += removed
        return out

    def evict_range(self, rng: AddressRange) -> List[Pte]:
        """Evict every present page of ``rng``; absent pages are skipped.

        One run-granular walk — no per-page membership probe followed by a
        second lookup in the evict itself."""
        return [
            Pte(frame, origin)
            for _, frames, origin in self._evict_overlap(rng)
            for frame in frames
        ]

    def evict_range_frames(self, rng: AddressRange) -> Tuple[int, List[int]]:
        """Batched evict returning ``(n_pages, frames)`` without
        materializing per-page PTE objects (the driver bulk paths only
        need the frames back)."""
        frames: List[int] = []
        for _, fr, _ in self._evict_overlap(rng):
            frames.extend(fr)
        return len(frames), frames

