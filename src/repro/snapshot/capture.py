"""Snapshot capture: read off a collection's mark set, or standalone between GCs.

Piggybacked capture adds no traversal and no tracer loop.  Every collector
marks into one set, ``heap.marks``, and once ``post_mark`` has returned
that set *is* the heap the mutator will resume with: the ownership phase's
marks are in it, the ones ``post_mark`` judged garbage and ``FORCE``
victims have been taken out, and the sweep (or the evacuation) is about to read it.
That is the capture window.  When a :class:`SnapshotPolicy` wants this
collection, ``Collector._run_mark_phase`` fills a :class:`SnapshotSink`
there, once, from the mark that *completed* (a hardened retry included):
:meth:`SnapshotSink.record_marked` takes the roots as they stand and one
row per marked address — O(1) extra memory per object, no second heap
walk.  The window closes before anything is relocated, so the rows are
consistent under the copying collectors too (see the two row encodings on
:class:`SnapshotSink`).  Serialization to the JSONL format is deliberately
*not* in-pause: the collector calls :meth:`SnapshotPolicy.finish_capture`
after its ``gc_seconds`` timer closes, so capture adds only the row cost
to GC time (priced by the ``gc.tracer.snapshot_edges_per_s`` probe of
``benchmarks/e2e``) and the write cost to mutator time.

With no policy installed nothing changes anywhere: the mark phase tests
one attribute against ``None`` per collection and never consults a policy
— the zero-overhead-when-off discipline the telemetry subsystem
established.

:func:`capture_snapshot` is the standalone path — a read-only visited-set
walk from the VM's roots that never touches ``heap.marks``, usable between
collections (the CLI and the ``on_violation`` trigger use it).
"""

from __future__ import annotations

import gc as _host_gc
import os
import time
from typing import TYPE_CHECKING, Collection, Optional

from repro.heap.layout import NULL
from repro.snapshot.dominators import build_dominator_tree
from repro.snapshot.format import SnapshotWriter, load_snapshot
from repro.snapshot.retained import retained_sizes

if TYPE_CHECKING:
    from repro.gc.base import Collector
    from repro.runtime.vm import VirtualMachine


def _frozen_rows(table, addresses):
    """``(address, obj, alloc_seq, edges)`` per address, as ``table`` has
    them now; ``edges`` is a fresh list of the non-NULL reference slots."""
    for address in addresses:
        obj = table[address]
        edges = [c for c in obj.reference_slots() if c != NULL]
        yield address, obj, obj.alloc_seq, edges


class SnapshotSink:
    """In-pause buffer for one piggybacked capture, filled by
    :meth:`record_marked` and serialized by :meth:`flush`.

    Two row encodings, chosen by how much the collector is allowed to
    disturb between the capture window and flush time:

    * ``moving=True`` (semispace, generational) — one
      ``(address, obj, alloc_seq, edges)`` tuple per marked address:
      address/``alloc_seq``/edges frozen in the window (the collector
      relocates and restamps later in the same pause), the object
      reference kept for the stable attributes (type, size, sticky header
      bits, allocation site) read at flush time.  ``edges`` is always a
      fresh list of the non-NULL reference slots — never an alias of
      ``obj.slots``, which the mutator resumes scribbling on after the
      pause.
    * ``moving=False`` (marksweep) — nothing relocates, nothing is
      restamped, and :meth:`flush` runs before the mutator does, so the
      survivors are still fully intact in the heap itself.  The rows are
      a plain copy of the mark set — the cheapest record there is — and
      flush re-reads everything through ``heap``.
    """

    __slots__ = (
        "path",
        "collector_name",
        "gc_number",
        "trigger",
        "heap_bytes",
        "heap",
        "moving",
        "roots",
        "rows",
        "started",
    )

    def __init__(
        self,
        path: str,
        collector_name: str = "unknown",
        gc_number: int = 0,
        trigger: str = "manual",
        heap_bytes: int = 0,
        heap=None,
        moving: bool = True,
    ):
        self.path = path
        self.collector_name = collector_name
        self.gc_number = gc_number
        self.trigger = trigger
        self.heap_bytes = heap_bytes
        self.heap = heap
        #: False selects bare-address rows (see class doc).
        self.moving = moving or heap is None
        self.roots: list[tuple[str, int]] = []
        self.rows: Collection = ()
        self.started = time.perf_counter()

    def record_marked(self, heap, roots) -> None:
        """Fill the sink from a completed mark: the non-NULL ``roots`` as
        they stand and one row per address in ``heap.marks``.

        Only meaningful between the end of ``post_mark`` and the start of
        reclamation, when the mark set is exactly the survivor set.
        """
        self.roots = [entry for entry in roots if entry[1] != NULL]
        marks = heap.marks
        if not self.moving:
            self.rows = set(marks)
            return
        # One tuple and one list per survivor, in one burst, trips the host
        # interpreter's cyclic GC *inside the measured pause* — and its
        # young-generation scan of the simulator's own object graph dwarfs
        # the rows themselves.  Defer it to mutator time, like the
        # serialization the rows feed.
        host_gc_was_enabled = _host_gc.isenabled()
        if host_gc_was_enabled:
            _host_gc.disable()
        try:
            self.rows = list(_frozen_rows(heap.address_table(), marks))
        finally:
            if host_gc_was_enabled:
                _host_gc.enable()

    def flush(self) -> dict:
        """Serialize the buffered rows; returns the writer's summary.

        Any serialization failure aborts the writer (unlinking its temp
        files) before propagating, so a fault mid-flush can never publish
        a truncated snapshot at the final path.
        """
        writer = SnapshotWriter(
            self.path,
            collector=self.collector_name,
            gc_number=self.gc_number,
            trigger=self.trigger,
            heap_bytes=self.heap_bytes,
        )
        try:
            for desc, addr in self.roots:
                writer.write_root(desc, addr)
            # Address order: a set has none worth keeping, and addresses
            # are unique, so a tuple row sorts by its address too.
            rows = sorted(self.rows)
            if not self.moving:
                rows = _frozen_rows(self.heap.address_table(), rows)
            for addr, obj, alloc_seq, edges in rows:
                writer.write_object(
                    addr,
                    obj.cls.name,
                    obj.size_bytes,
                    obj.status,
                    alloc_seq,
                    obj.alloc_site,
                    edges,
                )
            return writer.finish()
        except BaseException:
            writer.abort()
            raise


def capture_snapshot(
    vm: "VirtualMachine", path: str, trigger: str = "manual"
) -> dict:
    """Capture a snapshot *now*, without a collection.

    A plain visited-set walk over the strong-reference graph from the VM's
    roots — the mark set is never read or written, so this is safe at any
    point between collections (including with lazy sweep debt outstanding:
    pending garbage is unreachable and the walk never sees it).  Returns
    the snapshot summary (object/root counts, bytes, per-type rollup).
    """
    started = time.perf_counter()
    spans = vm.span_tracer
    if spans is not None:
        spans.begin("snapshot_capture", cat="snapshot", args={"trigger": trigger})
    try:
        summary = _capture_walk(vm, path, trigger)
    finally:
        if spans is not None:
            spans.end()
    _record_snapshot_event(vm, path, trigger, summary, started)
    return summary


def _capture_walk(vm: "VirtualMachine", path: str, trigger: str) -> dict:
    """The walk itself (split out so the span wrapper stays trivial): the
    heap's closure from the roots, written the way a piggybacked capture's
    mark set is."""
    collector = vm.collector
    sink = SnapshotSink(
        path,
        collector_name=collector.name,
        gc_number=vm.stats.collections,
        trigger=trigger,
        heap_bytes=collector.heap_bytes,
        heap=vm.heap,
        moving=False,  # nothing runs between this walk and the flush
    )
    sink.roots = [entry for entry in vm.root_entries() if entry[1] != NULL]
    sink.rows = vm.heap.closure(address for _desc, address in sink.roots)
    return sink.flush()


def _record_snapshot_event(
    vm: "VirtualMachine", path: str, trigger: str, summary: dict, started: float
) -> None:
    telemetry = vm.telemetry
    if telemetry is None:
        return
    telemetry.record_snapshot(
        collector=vm.collector.name,
        seq=vm.stats.collections,
        trigger=trigger,
        path=path,
        objects=summary["objects"],
        roots=summary["roots"],
        total_bytes=summary["total_bytes"],
        file_bytes=os.path.getsize(path),
        duration_s=time.perf_counter() - started,
    )


class SnapshotPolicy:
    """Decides when the VM captures heap snapshots, and where they go.

    Three triggers, combinable:

    * ``every_n_gcs=N`` — piggyback a capture on every Nth full collection.
    * ``on_violation=True`` — after a collection that detected new
      assertion violations, capture a standalone snapshot and annotate
      each new violation with the offending object's retained size and
      dominator chain (the log's rendered lines are refreshed in place).
    * :meth:`request_capture` — piggyback on the *next* full collection
      ("manual").

    Install with ``vm.install_snapshot_policy(policy)`` (or
    ``policy.attach(vm)``); uninstalled VMs never pay a cycle.
    """

    def __init__(
        self,
        directory: str,
        every_n_gcs: Optional[int] = None,
        on_violation: bool = False,
    ):
        if every_n_gcs is not None and every_n_gcs < 1:
            raise ValueError(f"every_n_gcs must be >= 1, got {every_n_gcs}")
        self.directory = directory
        self.every_n_gcs = every_n_gcs
        self.on_violation = on_violation
        # Created now so snapshot_path never pays a syscall inside a pause.
        os.makedirs(directory, exist_ok=True)
        #: Paths of every snapshot this policy wrote, in order.
        self.captured: list[str] = []
        self.vm: Optional["VirtualMachine"] = None
        self._capture_next = False
        self._violations_seen = 0

    def attach(self, vm: "VirtualMachine") -> "SnapshotPolicy":
        vm.install_snapshot_policy(self)
        return self

    def request_capture(self) -> None:
        """Arm a one-shot capture for the next full collection."""
        self._capture_next = True

    def snapshot_path(self, gc_number: int, trigger: str) -> str:
        return os.path.join(self.directory, f"heap-gc{gc_number:05d}-{trigger}.jsonl")

    # -- collector protocol (called from gc/base.py) ---------------------------------

    def begin_capture(self, collector: "Collector") -> Optional[SnapshotSink]:
        """Called once per full collection, when its mark phase has
        completed; a non-``None`` return is the sink the collector fills
        from the mark set there and flushes after the pause."""
        gc_number = collector.stats.collections
        if self._capture_next:
            trigger = "manual"
        elif self.every_n_gcs is not None and gc_number % self.every_n_gcs == 0:
            trigger = "interval"
        else:
            return None
        self._capture_next = False
        return SnapshotSink(
            self.snapshot_path(gc_number, trigger),
            collector_name=collector.name,
            gc_number=gc_number,
            trigger=trigger,
            heap_bytes=collector.heap_bytes,
            heap=collector.heap,
            moving=collector.moving,
        )

    def finish_capture(self, collector: "Collector", sink: SnapshotSink) -> dict:
        """Serialize a filled sink; called after the pause timer closes."""
        summary = sink.flush()
        self.captured.append(sink.path)
        telemetry = collector.telemetry
        if telemetry is not None:
            telemetry.record_snapshot(
                collector=collector.name,
                seq=sink.gc_number,
                trigger=sink.trigger,
                path=sink.path,
                objects=summary["objects"],
                roots=summary["roots"],
                total_bytes=summary["total_bytes"],
                file_bytes=os.path.getsize(sink.path),
                duration_s=time.perf_counter() - sink.started,
            )
        return summary

    # -- violation trigger (a vm.gc_observers entry) ---------------------------------

    def _after_gc(self, vm: "VirtualMachine", freed: set[int]) -> None:
        if not self.on_violation or vm.engine is None:
            return
        log = vm.engine.log
        total = len(log.violations)
        if total < self._violations_seen:  # log.clear() happened
            self._violations_seen = total
            return
        if total == self._violations_seen:
            return
        first_new = self._violations_seen
        self._violations_seen = total
        path = self.snapshot_path(vm.stats.collections, "violation")
        capture_snapshot(vm, path, trigger="violation")
        self.captured.append(path)
        self.annotate_violations(vm, path, first_new)

    def annotate_violations(
        self, vm: "VirtualMachine", path: str, first_index: int = 0
    ) -> int:
        """Annotate violations ``[first_index:]`` with retained size and
        dominator chain from the snapshot at ``path`` (the log renders its
        lines on read, so they show).  Returns the number annotated."""
        snapshot = load_snapshot(path)
        tree = build_dominator_tree(snapshot)
        retained = retained_sizes(snapshot, tree)
        fresh = vm.engine.log.violations[first_index:]
        for violation in fresh:
            violation.details["snapshot"] = path
            addr = violation.address
            if addr is not None and addr in tree:
                violation.details["retained_bytes"] = retained[addr]
                violation.details["dominator_chain"] = [
                    f"{snapshot.objects[a].type_name}@{a:#x}" for a in tree.chain(addr)
                ]
        return len(fresh)
