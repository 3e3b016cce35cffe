"""Heap snapshots: capture, dominator/retained-size analysis, leak triage.

The paper's assertion checks tell you *that* a heap property was violated
and one path that witnesses it (Figure 1).  Diagnosing the violation —
the motivating SwapLeak in particular — also needs the ownership view:
*what is keeping the object alive and how much does it cost*.  This package
adds that view as four layers on top of the existing collector machinery:

* **Capture** (:mod:`repro.snapshot.capture`) — a snapshot is read off
  the collection's mark set: once ``post_mark`` has returned,
  ``heap.marks`` is the heap the mutator resumes with, and the collector
  takes one compact row per marked address there, before anything is
  reclaimed or relocated (the bare address under a non-moving collector;
  address, epoch and edges frozen under a copying one).  No tracer loop
  knows about it; serialization to the versioned JSONL format
  happens after the pause ends.  A
  :class:`~repro.snapshot.capture.SnapshotPolicy` on the VM decides *when*
  (``every_n_gcs``, ``on_violation``, manual), and
  :func:`~repro.snapshot.capture.capture_snapshot` walks the heap between
  collections without touching the mark set.
* **Format** (:mod:`repro.snapshot.format`) — schema
  ``repro-heap-snapshot/1``: one JSON line per root and per live object
  (address, type, shallow size, header bits, ``alloc_seq`` epoch,
  allocation-site tag, outgoing strong edges), loadable without the VM.
* **Analysis** (:mod:`repro.snapshot.dominators`,
  :mod:`repro.snapshot.retained`) — immediate dominators (iterative
  Cooper–Harvey–Kennedy under a synthetic super-root), retained sizes by
  accumulation over the dominator tree, and "why-alive" queries rendered
  through the Figure-1 :class:`~repro.core.reporting.HeapPath` machinery.
* **Diff & leak triage** (:mod:`repro.snapshot.diff`) — per-type
  live-count/byte growth between two snapshots, surviving-object
  retention, and ranked leak candidates.

``python -m repro snapshot capture|analyze|diff|why`` drives all of it
from the command line.
"""

from __future__ import annotations

from repro.snapshot.capture import SnapshotPolicy, SnapshotSink, capture_snapshot
from repro.snapshot.diff import LeakCandidate, SnapshotDiff, diff_snapshots
from repro.snapshot.dominators import SUPER_ROOT, DominatorTree, build_dominator_tree
from repro.snapshot.format import (
    SNAPSHOT_SCHEMA,
    HeapSnapshot,
    ObjectRecord,
    SnapshotFormatError,
    SnapshotWriter,
    load_snapshot,
)
from repro.snapshot.retained import (
    WhyAlive,
    retained_sizes,
    top_retained,
    why_alive,
)

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SUPER_ROOT",
    "DominatorTree",
    "HeapSnapshot",
    "LeakCandidate",
    "ObjectRecord",
    "SnapshotDiff",
    "SnapshotFormatError",
    "SnapshotPolicy",
    "SnapshotSink",
    "SnapshotWriter",
    "WhyAlive",
    "build_dominator_tree",
    "capture_snapshot",
    "diff_snapshots",
    "load_snapshot",
    "retained_sizes",
    "top_retained",
    "why_alive",
]
