"""Retained sizes and "why-alive" queries over a heap snapshot.

The *retained size* of an object is the number of live bytes that would
become unreachable if all of its incoming references were cut — exactly
the bytes the collector would reclaim if the object died.  Over the
dominator tree of :mod:`repro.snapshot.dominators` this is a one-pass
accumulation: every object's retained size is its shallow size plus the
retained sizes of the objects it immediately dominates, because the
dominator subtree under *o* is precisely the set of objects reachable
*only* through *o*.

"Why-alive" composes the two views the paper's reports already use: the
dominator chain (every object that *must* be on every root-to-target
path) rendered through the Figure-1 :class:`~repro.core.reporting.HeapPath`
machinery, plus the target's retained cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.reporting import HeapPath, PathEntry
from repro.snapshot.dominators import SUPER_ROOT, DominatorTree, build_dominator_tree

if TYPE_CHECKING:
    from repro.snapshot.format import HeapSnapshot


def retained_sizes(
    snapshot: "HeapSnapshot", tree: Optional[DominatorTree] = None
) -> dict[int, int]:
    """Retained size (bytes) per reachable object address.

    ``SUPER_ROOT`` maps to the total reachable bytes.  Accumulation walks
    the reverse postorder backwards: an idom always precedes the objects
    it dominates in RPO, so every child is final before its parent adds it.
    """
    if tree is None:
        tree = build_dominator_tree(snapshot)
    objects = snapshot.objects
    retained = {
        addr: (objects[addr].size if addr != SUPER_ROOT else 0)
        for addr in tree.order
    }
    idom = tree.idom
    for addr in reversed(tree.order):
        if addr == SUPER_ROOT:
            continue
        retained[idom[addr]] += retained[addr]
    return retained


def top_retained(
    snapshot: "HeapSnapshot",
    limit: int = 10,
    tree: Optional[DominatorTree] = None,
) -> list[tuple[int, str, int]]:
    """The ``limit`` heaviest objects as ``(addr, type_name, retained_bytes)``,
    retained-descending with address as the deterministic tie-break."""
    if tree is None:
        tree = build_dominator_tree(snapshot)
    retained = retained_sizes(snapshot, tree)
    rows = [
        (addr, snapshot.objects[addr].type_name, nbytes)
        for addr, nbytes in retained.items()
        if addr != SUPER_ROOT
    ]
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows[:limit]


class WhyAlive:
    """Answer to ``snapshot why <addr>``: dominator chain + retained cost."""

    __slots__ = ("address", "type_name", "retained_bytes", "chain", "path")

    def __init__(
        self,
        address: int,
        type_name: str,
        retained_bytes: int,
        chain: list,
        path: HeapPath,
    ):
        self.address = address
        self.type_name = type_name
        self.retained_bytes = retained_bytes
        #: The dominating :class:`~repro.snapshot.format.ObjectRecord`\ s,
        #: outermost first, ending at the queried object itself.
        self.chain = chain
        self.path = path

    def render(self, show_addresses: bool = True) -> str:
        lines = [
            f"Object: {self.type_name}@{self.address:#x}",
            f"Retained size: {self.retained_bytes} bytes",
            "Dominator chain (every entry is on every path from the roots):",
            self.path.render(show_addresses),
        ]
        return "\n".join(lines)


def why_alive(
    snapshot: "HeapSnapshot",
    addr: int,
    tree: Optional[DominatorTree] = None,
) -> WhyAlive:
    """Explain why ``addr`` is alive: its dominator chain and retained size.

    Raises ``KeyError`` if the address is not reachable in the snapshot.
    """
    if tree is None:
        tree = build_dominator_tree(snapshot)
    chain_addrs = tree.chain(addr)  # KeyError if unreachable
    retained = retained_sizes(snapshot, tree)
    records = [snapshot.objects[a] for a in chain_addrs]
    entries = [PathEntry.from_parts(rec.type_name, rec.addr) for rec in records]
    path = HeapPath.from_entries("(roots)", entries)
    target = snapshot.objects[addr]
    return WhyAlive(addr, target.type_name, retained[addr], records, path)
