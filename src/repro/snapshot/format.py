"""The versioned heap-snapshot file format: one JSON-lines body.

A snapshot is a single JSON-lines file, loadable without the VM:

* line 1 — the **header**: ``{"kind": "header", "schema":
  "repro-heap-snapshot/1", "collector": ..., "gc_number": ...,
  "trigger": ..., "heap_bytes": ...}``.  Loaders must reject files whose
  ``schema`` they do not understand — the version is the contract.
* one line per **root**: ``{"kind": "root", "desc": "static 'head'",
  "addr": ...}`` — the root set the capture traced from.
* one line per **live object**: ``{"kind": "obj", "addr": ..., "type":
  ..., "size": <shallow bytes>, "status": <sticky header bits>, "seq":
  <alloc_seq epoch>, "site": <allocation-site tag or null>, "edges":
  [<non-null strong reference targets>]}``.
* last line — the **summary**: object/root counts, total live bytes, and
  the per-type ``{name: [count, bytes]}`` aggregation, so cheap queries
  need not touch the body.

Addresses are serialized as integers; the writer streams — one line per
:meth:`SnapshotWriter.write_object` call, O(1) writer state per object.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from typing import Iterable, Iterator, Optional

from repro.errors import ReproError

#: Format version; bump on any incompatible change to the line schema.
SNAPSHOT_SCHEMA = "repro-heap-snapshot/1"


class SnapshotFormatError(ReproError):
    """A snapshot file is malformed or has an unsupported schema version."""


class ObjectRecord:
    """One live object as recorded in a snapshot (VM-independent)."""

    __slots__ = ("addr", "type_name", "size", "status", "alloc_seq", "site", "edges")

    def __init__(
        self,
        addr: int,
        type_name: str,
        size: int,
        status: int = 0,
        alloc_seq: int = 0,
        site: Optional[str] = None,
        edges: tuple[int, ...] = (),
    ):
        self.addr = addr
        self.type_name = type_name
        self.size = size
        self.status = status
        self.alloc_seq = alloc_seq
        self.site = site
        self.edges = edges

    @property
    def identity(self) -> tuple[int, int]:
        """Cross-snapshot identity: an address may be recycled between
        snapshots, but ``alloc_seq`` is a unique install stamp."""
        return (self.addr, self.alloc_seq)

    @classmethod
    def from_row(cls, row: dict) -> "ObjectRecord":
        return cls(
            addr=row["addr"],
            type_name=row["type"],
            size=row["size"],
            status=row.get("status", 0),
            alloc_seq=row.get("seq", 0),
            site=row.get("site"),
            edges=tuple(row.get("edges", ())),
        )

    def __repr__(self) -> str:
        return f"<rec {self.type_name}@{self.addr:#x} {self.size}B {len(self.edges)} edges>"


class SnapshotWriter:
    """Streams one snapshot to disk: header, roots, objects, summary."""

    def __init__(
        self,
        path: str,
        collector: str = "unknown",
        gc_number: int = 0,
        trigger: str = "manual",
        heap_bytes: int = 0,
    ):
        self.path = path
        # Crash consistency: the body streams into a temp file and is
        # atomically renamed in finish(), so a mid-serialization failure can
        # never leave a truncated .jsonl at the final path.
        self._tmp_path = path + ".tmp"
        self._file = open(self._tmp_path, "w")
        self._types: dict[str, list[int]] = {}
        self.objects = 0
        self.roots = 0
        self.total_bytes = 0
        self._write(
            {
                "kind": "header",
                "schema": SNAPSHOT_SCHEMA,
                "collector": collector,
                "gc_number": gc_number,
                "trigger": trigger,
                "heap_bytes": heap_bytes,
            }
        )

    def _write(self, row: dict) -> None:
        self._file.write(json.dumps(row))
        self._file.write("\n")

    def write_root(self, desc: str, addr: int) -> None:
        self.roots += 1
        self._write({"kind": "root", "desc": desc, "addr": addr})

    def write_object(
        self,
        addr: int,
        type_name: str,
        size: int,
        status: int,
        alloc_seq: int,
        site: Optional[str],
        edges: Iterable[int],
    ) -> None:
        self.objects += 1
        self.total_bytes += size
        row = self._types.get(type_name)
        if row is None:
            self._types[type_name] = [1, size]
        else:
            row[0] += 1
            row[1] += size
        self._write(
            {
                "kind": "obj",
                "addr": addr,
                "type": type_name,
                "size": size,
                "status": status,
                "seq": alloc_seq,
                "site": site,
                "edges": list(edges),
            }
        )

    def finish(self) -> dict:
        """Write the summary line and publish the body with ``os.replace``;
        returns the summary."""
        summary = {
            "kind": "summary",
            "objects": self.objects,
            "roots": self.roots,
            "total_bytes": self.total_bytes,
            "types": {name: list(row) for name, row in sorted(self._types.items())},
        }
        self._write(summary)
        self._file.close()
        os.replace(self._tmp_path, self.path)
        return summary

    def abort(self) -> None:
        """Discard a partially written snapshot: close and unlink the temp.

        The final ``path`` is untouched — a previous good snapshot at the
        same path survives a failed rewrite.
        """
        try:
            self._file.close()
        except Exception:
            pass
        try:
            os.unlink(self._tmp_path)
        except OSError:
            pass


def _parse_lines(path: str) -> Iterator[dict]:
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise SnapshotFormatError(f"{path}:{lineno}: not JSON ({exc})") from None


class HeapSnapshot:
    """A fully loaded snapshot: header metadata, root set, object table."""

    __slots__ = ("path", "meta", "roots", "objects", "summary")

    def __init__(
        self,
        meta: dict,
        roots: list[tuple[str, int]],
        objects: dict[int, ObjectRecord],
        summary: Optional[dict] = None,
        path: str = "",
    ):
        self.path = path
        self.meta = meta
        self.roots = roots
        self.objects = objects
        self.summary = summary or {}

    @classmethod
    def load(cls, path: str) -> "HeapSnapshot":
        meta: Optional[dict] = None
        roots: list[tuple[str, int]] = []
        objects: dict[int, ObjectRecord] = {}
        summary: Optional[dict] = None
        for row in _parse_lines(path):
            kind = row.get("kind")
            if kind == "header":
                schema = row.get("schema")
                if schema != SNAPSHOT_SCHEMA:
                    raise SnapshotFormatError(
                        f"{path}: unsupported snapshot schema {schema!r} "
                        f"(this reader understands {SNAPSHOT_SCHEMA!r})"
                    )
                meta = row
            elif kind == "root":
                roots.append((row["desc"], row["addr"]))
            elif kind == "obj":
                rec = ObjectRecord.from_row(row)
                objects[rec.addr] = rec
            elif kind == "summary":
                summary = row
            else:
                raise SnapshotFormatError(f"{path}: unknown line kind {kind!r}")
        if meta is None:
            raise SnapshotFormatError(f"{path}: missing snapshot header line")
        # A complete capture is closed: whatever a root or an edge names
        # was itself recorded.  A truncated body must not load, or every
        # analysis silently skips what is missing.
        named = chain(
            (addr for _desc, addr in roots),
            chain.from_iterable(rec.edges for rec in objects.values()),
        )
        missing = sorted({addr for addr in named if addr not in objects})
        if missing:
            shown = ", ".join(f"{addr:#x}" for addr in missing[:5])
            raise SnapshotFormatError(
                f"{path}: {len(missing)} address(es) named by a root or an edge "
                f"have no obj line (truncated capture?): {shown}"
                + (", ..." if len(missing) > 5 else "")
            )
        return cls(meta, roots, objects, summary, path=path)

    # -- queries ------------------------------------------------------------------

    @property
    def gc_number(self) -> int:
        return self.meta.get("gc_number", 0)

    @property
    def total_bytes(self) -> int:
        return sum(rec.size for rec in self.objects.values())

    def root_addresses(self) -> list[int]:
        """Distinct root target addresses, first-seen order."""
        seen: set[int] = set()
        out: list[int] = []
        for _desc, addr in self.roots:
            if addr not in seen and addr in self.objects:
                seen.add(addr)
                out.append(addr)
        return out

    def type_summary(self) -> dict[str, tuple[int, int]]:
        """Per-type ``(count, bytes)`` over the recorded objects."""
        out: dict[str, tuple[int, int]] = {}
        for rec in self.objects.values():
            count, nbytes = out.get(rec.type_name, (0, 0))
            out[rec.type_name] = (count + 1, nbytes + rec.size)
        return out

    def edge_multiset(self) -> dict[tuple[int, int], int]:
        """``(src, dst) -> multiplicity`` over all recorded strong edges."""
        out: dict[tuple[int, int], int] = {}
        for rec in self.objects.values():
            for dst in rec.edges:
                key = (rec.addr, dst)
                out[key] = out.get(key, 0) + 1
        return out

    def identities(self) -> set[tuple[int, int]]:
        """The ``(addr, alloc_seq)`` identity set (for snapshot diffing)."""
        return {rec.identity for rec in self.objects.values()}

    def __len__(self) -> int:
        return len(self.objects)

    def __repr__(self) -> str:
        return (
            f"<HeapSnapshot gc={self.gc_number} {len(self.objects)} objects "
            f"{len(self.roots)} roots>"
        )


def load_snapshot(path: str) -> HeapSnapshot:
    """Load a snapshot body."""
    return HeapSnapshot.load(path)
