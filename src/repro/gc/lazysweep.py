"""Chunked sweeping: one engine behind both eager and lazy sweep modes.

The seed collector swept by snapshotting ``heap.objects()`` — a full-table
list copy per GC — and returning dead cells one ``space.free()`` call at a
time.  The :class:`ChunkSweeper` replaces that with a walk over the space's
own chunk metadata (64 KB chunks for :class:`~repro.heap.space.FreeListSpace`,
blocks and large spans for :class:`~repro.heap.blocks.BlockSpace`), freeing
each chunk's dead cells with one batched splice per size class.

Two drain disciplines share the per-chunk core:

* ``drain_eager()`` — sweep every pending chunk inside the pause and return
  the freed-address set, which the collector purges before it reclaims
  anything else.
* ``sweep_chunks(n)`` — lazy mode: the pause ends after marking, and pending
  chunks are reclaimed incrementally on the allocation slow path.  Because
  the mutator runs (and allocates) between mark end and a chunk's sweep,
  each chunk sweep must itself uphold the metadata invariants the eager
  sequence got for free:

  - **the mark set outlives the pause** — ``heap.marks`` is what tells a
    pending chunk's survivors from its dead, so it is kept until the last
    pending chunk is swept and dropped in that same call
    (``heap.end_sweep()``; eager mode calls it when ``drain_eager``
    finishes).
  - **epoch filter** — the cutoff lives on the heap: ``heap.sweep_cutoff``
    is ``heap.install_seq`` captured when the chunks were scheduled (mark
    end).  Objects installed after that (mutator allocations into a
    pending chunk) have ``alloc_seq > cutoff`` and are skipped: unmarked
    and newer means "allocated after the trace", not "dead".  The same two
    facts are the heap's liveness rule (``ObjectHeap.is_live``), so no
    reader needs to know the sweep is lazy.
  - **purge before reuse** — address-keyed assertion/VM metadata for a
    chunk's dead cells is purged *before* those cells reach the free list,
    so a recycled address can never alias a stale registry entry.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.gc.stats import PhaseTimer

if TYPE_CHECKING:
    from repro.gc.base import Collector

#: Chunks reclaimed per allocation-slow-path visit in lazy mode.  Small
#: enough to keep mutator-time sweep increments short, large enough that an
#: allocation burst does not take one trip per chunk.
LAZY_SWEEP_BATCH = 8


class ChunkSweeper:
    """Pending-chunk queue plus the per-chunk sweep loop for one space."""

    __slots__ = ("collector", "space", "pending")

    def __init__(self, collector: "Collector", space):
        self.collector = collector
        self.space = space
        #: Chunk ids scheduled at mark end and not yet swept.
        self.pending: deque[int] = deque()

    @property
    def debt(self) -> int:
        """Number of unswept chunks (0 = reclamation is exact)."""
        return len(self.pending)

    def schedule(self) -> None:
        """Capture the space's chunks for sweeping and, if there are any,
        the heap's cutoff; call at mark end."""
        heap = self.collector.heap
        self.pending = deque(self.space.chunk_ids())
        if self.pending:
            heap.sweep_cutoff = heap.install_seq

    # -- per-chunk core ----------------------------------------------------------

    def _sweep_chunk(self, chunk_id: int) -> tuple[set[int], dict[int, list[int]]]:
        """Have the heap sweep one chunk's cells (survivors skipped by
        their mark, the dead evicted: :meth:`ObjectHeap.sweep_cells`) and
        count it.

        Returns ``(freed addresses, {cell size: [addresses]})``; the caller
        decides when the cells go back to the space (eager: immediately;
        lazy: after the purge).  A quarantined address is freed (its dead
        occupant still leaves the table and the metadata) but never handed
        back: its cell stays recorded, and leaked.  So is a zombie's — an
        unreachable object that already carried ``FREED``, which no trace
        tripped over: the sweep fences it.
        """
        collector = self.collector
        heap = collector.heap
        zombies: list[int] = []
        swept, freed, by_class = heap.sweep_cells(
            self.space.chunk_cells(chunk_id), heap.sweep_cutoff, zombies
        )
        if zombies:
            for address in zombies:
                collector.quarantine.fence(address)
            collector.recovery.objects_quarantined += len(zombies)
        fenced = collector.quarantine.fenced
        if fenced:
            by_class = {
                cell: kept
                for cell, addresses in by_class.items()
                if (kept := [a for a in addresses if a not in fenced])
            }
        stats = collector.stats
        stats.objects_swept += swept
        stats.objects_freed += len(freed)
        stats.chunks_swept += 1
        return freed, by_class

    # -- drain disciplines --------------------------------------------------------

    def drain_eager(self) -> set[int]:
        """Sweep every pending chunk now; returns the freed-address set.

        Cells return to the space immediately and *without* purging: the
        caller purges the set once, before anything can allocate.
        """
        collector = self.collector
        stats = collector.stats
        freed_all: set[int] = set()
        pending = self.pending
        with PhaseTimer(stats, "sweep_seconds", collector.span_tracer, "sweep"):
            while pending:
                chunk_id = pending.popleft()
                freed, by_class = self._sweep_chunk(chunk_id)
                if by_class:
                    stats.bytes_freed += self.space.free_chunk_cells(chunk_id, by_class)
                if freed:
                    freed_all |= freed
            collector.heap.end_sweep()  # every chunk is swept: nothing reads them now
        return freed_all

    def sweep_chunks(self, max_chunks: int | None = None) -> int:
        """Lazy increment: sweep up to ``max_chunks`` pending chunks.

        Each chunk's freed addresses are purged from assertion/VM metadata
        *before* its cells are spliced back — the purge-precedes-reuse
        invariant, per chunk.  Returns the number of cells released.
        """
        pending = self.pending
        if not pending:
            # Nothing outstanding (every eager-mode call lands here): no
            # timers opened, no spans recorded, no telemetry sample.
            return 0
        collector = self.collector
        stats = collector.stats
        spans = collector.span_tracer
        budget = len(pending) if max_chunks is None else max_chunks
        chunks_before = len(pending)
        released = 0
        # The nested timers share their perf_counter readings with the
        # nested spans, so sweep/lazy_sweep_slice span durations sum to
        # sweep_seconds/lazy_sweep_seconds exactly (the unification rule);
        # the slice timer's .elapsed feeds the debt-repayment histogram.
        slice_timer = PhaseTimer(stats, "lazy_sweep_seconds", spans, "lazy_sweep_slice")
        with PhaseTimer(stats, "sweep_seconds", spans, "sweep"), slice_timer:
            while pending and budget > 0:
                budget -= 1
                chunk_id = pending.popleft()
                freed, by_class = self._sweep_chunk(chunk_id)
                if freed:
                    collector._purge_before_reuse(freed)
                    if by_class:
                        stats.bytes_freed += self.space.free_chunk_cells(chunk_id, by_class)
                    released += len(freed)
            if not pending:
                collector.heap.end_sweep()  # debt repaid: the set has no reader left
        if spans is not None:
            spans.counter("sweep_debt", chunks=len(pending))
        telemetry = collector.telemetry
        if telemetry is not None:
            telemetry.record_lazy_slice(
                slice_timer.elapsed, chunks_before - len(pending), released
            )
        return released

    def sweep_all(self) -> None:
        """Drain all outstanding debt (lazy discipline, incremental purge)."""
        self.sweep_chunks(None)
