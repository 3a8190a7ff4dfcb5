"""Reference implementations and observables for the differential tests.

* :func:`run_observables` — every simulated-time observable of one run,
  compared between the fused and the reference engine.
* :class:`FlatPageTable` — the historical flat ``Dict[page, Pte]`` page
  table, the oracle the run-coalesced :class:`~repro.memory.PageTable`
  must be observably indistinguishable from.
* :func:`pagetable_parity` — the randomized runs-vs-flat differential.
* :func:`count_heap_pushes` — the event heap's push counter.
"""

import contextlib
import gc
import heapq
import random
from collections import Counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.memory import AddressRange, MapOrigin, PageTable, Pte


@contextlib.contextmanager
def count_heap_pushes(
        kind: Callable[[tuple], Any] = lambda entry: "push") -> Iterator[Counter]:
    """Count every ``heapq.heappush`` made inside the block, by
    ``kind(entry)``; the yielded Counter is live while the block runs.

    The patch is process-wide, so the cyclic collector is run first and
    kept off for the block: a generator an earlier run left suspended
    inside a ``try``/``finally`` that holds a lock (a run stopped with
    ``until=``) releases that lock when it is collected, and the hand-over
    pushes onto the dead run's heap.
    """
    counts: Counter = Counter()
    push = heapq.heappush

    def counting(queue, entry):
        counts[kind(entry)] += 1
        push(queue, entry)

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    heapq.heappush = counting
    try:
        yield counts
    finally:
        heapq.heappush = push
        if enabled:
            gc.enable()


def run_observables(run, workload) -> Tuple:
    """Every simulated-time observable of one run: final clock,
    init/steady times, engine event count, HBM high-water mark, phase
    marks, ledger telemetry, HSA call rows and the functional kernel
    outputs."""
    return (
        run.elapsed_us,
        run.init_us,
        run.steady_us,
        run.sim_events,
        run.peak_hbm_bytes,
        dict(run.marks),
        run.ledger.summary(),
        run.hsa_trace.as_rows(),
        {k: np.asarray(v).tobytes()
         for k, v in sorted(workload.outputs.values.items())},
    )


class FlatPageTable:
    """The historical flat ``Dict[page, Pte]`` page table.

    Every query walks the range page by page, so it is slow but plainly
    right; the run engine has to answer every query the same way.
    """

    def __init__(self, page_size: int, name: str = ""):
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError(f"page_size must be a power of two, got {page_size}")
        self.page_size = page_size
        self.name = name or "pagetable"
        self._entries: Dict[int, Pte] = {}
        self.install_count = 0
        self.evict_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    @property
    def run_count(self) -> int:
        return len(self._entries)

    # -- queries ---------------------------------------------------------
    def lookup(self, page: int) -> Optional[Pte]:
        return self._entries.get(page)

    def present(self, page: int) -> bool:
        return page in self._entries

    def missing_pages(self, rng: AddressRange) -> List[int]:
        return [p for p in rng.pages(self.page_size) if p not in self._entries]

    def present_pages(self, rng: AddressRange) -> List[int]:
        return [p for p in rng.pages(self.page_size) if p in self._entries]

    def coverage(self, rng: AddressRange) -> Tuple[int, int]:
        present = missing = 0
        for p in rng.pages(self.page_size):
            if p in self._entries:
                present += 1
            else:
                missing += 1
        return present, missing

    def resident(self, rng: AddressRange) -> bool:
        return all(p in self._entries for p in rng.pages(self.page_size))

    def missing_runs(self, rng: AddressRange) -> List[AddressRange]:
        ps = self.page_size
        out: List[AddressRange] = []
        for p in self.missing_pages(rng):
            if out and out[-1].end == p:
                out[-1] = AddressRange(out[-1].start, out[-1].nbytes + ps)
            else:
                out.append(AddressRange(p, ps))
        return out

    def present_runs(
        self, rng: AddressRange
    ) -> List[Tuple[int, List[int], MapOrigin]]:
        out: List[Tuple[int, List[int], MapOrigin]] = []
        for p in rng.pages(self.page_size):
            pte = self._entries.get(p)
            if pte is None:
                continue
            if (
                out
                and out[-1][0] + len(out[-1][1]) * self.page_size == p
                and out[-1][2] is pte.origin
            ):
                out[-1][1].append(pte.frame)
            else:
                out.append((p, [pte.frame], pte.origin))
        return out

    def frames_for(self, rng: AddressRange) -> List[int]:
        return [
            self._entries[p].frame
            for p in rng.pages(self.page_size)
            if p in self._entries
        ]

    def origins_histogram(self) -> Dict[MapOrigin, int]:
        hist: Dict[MapOrigin, int] = {}
        for pte in self._entries.values():
            hist[pte.origin] = hist.get(pte.origin, 0) + 1
        return hist

    def pages(self) -> Iterable[int]:
        return self._entries.keys()

    # -- mutation -----------------------------------------------------------
    def install(self, page: int, frame: int, origin: MapOrigin) -> None:
        if page % self.page_size:
            raise ValueError(f"page 0x{page:x} not aligned to {self.page_size}")
        if page in self._entries:
            raise KeyError(f"page 0x{page:x} already mapped in {self.name}")
        self._entries[page] = Pte(frame, origin)
        self.install_count += 1

    def install_range(
        self, rng: AddressRange, frames: Sequence[int], origin: MapOrigin
    ) -> int:
        pages = list(rng.pages(self.page_size))
        if len(pages) != len(frames):
            raise ValueError(
                f"frame count {len(frames)} != page count {len(pages)} for {rng}"
            )
        for p in pages:  # atomic, like the run engine: check before install
            if p in self._entries:
                raise KeyError(f"page 0x{p:x} already mapped in {self.name}")
        for p, f in zip(pages, frames, strict=True):
            self._entries[p] = Pte(f, origin)
        self.install_count += len(pages)
        return len(pages)

    def evict(self, page: int) -> Pte:
        try:
            pte = self._entries.pop(page)
        except KeyError:
            raise KeyError(f"page 0x{page:x} not mapped in {self.name}") from None
        self.evict_count += 1
        return pte

    def evict_range(self, rng: AddressRange) -> List[Pte]:
        out = []
        for p in rng.pages(self.page_size):
            pte = self._entries.pop(p, None)
            if pte is not None:
                self.evict_count += 1
                out.append(pte)
        return out

    def evict_range_frames(self, rng: AddressRange) -> Tuple[int, List[int]]:
        frames = [pte.frame for pte in self.evict_range(rng)]
        return len(frames), frames


def _observable_state(pt, probe: AddressRange):
    return (
        len(pt),
        sorted(pt.pages()),
        pt.missing_pages(probe),
        pt.present_pages(probe),
        pt.coverage(probe),
        pt.resident(probe),
        [(s, f, o.value) for s, f, o in pt.present_runs(probe)],
        [(r.start, r.nbytes) for r in pt.missing_runs(probe)],
        pt.frames_for(probe),
        {o.value: n for o, n in pt.origins_histogram().items()},
        pt.install_count,
        pt.evict_count,
    )


def pagetable_parity(seed: int, rounds: int) -> bool:
    """Randomized differential: apply one operation sequence to both
    tables and compare every observable after each step, over the whole
    span, the operation's own range and that range widened by a page on
    each side (where the single-run fast paths answer)."""
    rnd = random.Random(seed)
    ps = 4096  # small page size keeps arithmetic honest without big loops
    span_pages = 64
    probe = AddressRange(0, span_pages * ps)
    runs = PageTable(ps, "runs")
    flat = FlatPageTable(ps, "flat")
    origins = list(MapOrigin)
    for _step in range(rounds):
        op = rnd.random()
        start = rnd.randrange(span_pages) * ps
        n = rnd.randrange(1, min(9, span_pages - start // ps + 1))
        rng = AddressRange(start, n * ps)
        origin = rnd.choice(origins)
        frames = [rnd.randrange(1 << 20) for _ in range(n)]
        if op < 0.45:
            outcomes = []
            for pt in (runs, flat):
                try:
                    pt.install_range(rng, frames, origin)
                    outcomes.append("ok")
                except KeyError as exc:
                    # errors carry the table name; compare the page only
                    outcomes.append("err:" + str(exc).split(" already")[0])
            if outcomes[0] != outcomes[1]:
                return False
        elif op < 0.75:
            if runs.evict_range(rng) != flat.evict_range(rng):
                return False
        elif op < 0.9:
            outcomes = []
            for pt in (runs, flat):
                try:
                    outcomes.append(("pte", pt.evict(start)))
                except KeyError:
                    outcomes.append(("err",))
            if outcomes[0] != outcomes[1]:
                return False
        elif runs.evict_range_frames(rng) != flat.evict_range_frames(rng):
            return False
        lo = max(start - ps, 0)
        near = AddressRange(lo, start + (n + 1) * ps - lo)
        for rg in (probe, rng, near):
            if _observable_state(runs, rg) != _observable_state(flat, rg):
                return False
    return True
