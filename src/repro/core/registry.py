"""Assertion bookkeeping: the collector-side metadata the paper costs out.

The paper is explicit about the space budget of each assertion family:

* ``assert-dead`` / ``assert-unshared`` — *no* per-object space: the mark
  lives in a spare header bit.  The registry only keeps the assertion *site*
  (a label for diagnostics) per asserted address, which is the minimum
  needed to tell the programmer *which* assertion fired.
* ``assert-instances`` — two words per loaded class plus one word per
  tracked type (those live on the class descriptors / class registry).
* ``assert-ownedby`` — "a pair of arrays, one containing owner objects and
  the other containing arrays of ownee objects, one for each owner [...]
  The ownee arrays are sorted, so we do a binary search to find the ownee
  object." (§2.5.2)  :class:`OwnerRecord` reproduces that structure (the
  mutator appends, the collector's read sorts), probe counting included.

The registry also keeps the cumulative API-call counters the paper reports
in §3.1.2 ("695 calls to assert-dead and 15,553 calls to assert-ownedBy").
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Optional

from repro.core.reporting import AssertionKind
from repro.errors import AssertionUsageError


class DeadSite:
    """Where (and when) an assert-dead was issued, keyed by object address."""

    __slots__ = ("label", "serial", "asserted_at_gc", "kind")

    def __init__(
        self,
        label: str,
        serial: int,
        asserted_at_gc: int,
        kind: AssertionKind = AssertionKind.DEAD,
    ):
        self.label = label
        self.serial = serial
        self.asserted_at_gc = asserted_at_gc
        self.kind = kind

    def __repr__(self) -> str:
        return f"<dead-site #{self.serial} {self.label!r}>"


class OwnerRecord:
    """One owner object and its array of ownee addresses: an assertion
    appends, the collector's read (:attr:`ownees`) sorts — §2.5.2 as written."""

    __slots__ = ("owner_address", "_ownees", "_sorted", "label")

    def __init__(self, owner_address: int, label: str):
        self.owner_address = owner_address
        self._ownees: list[int] = []
        self._sorted = True
        self.label = label

    @property
    def ownees(self) -> list[int]:
        """The array itself, sorted ascending (here, if an append unsorted it)."""
        if not self._sorted:
            self._ownees.sort()
            self._sorted = True
        return self._ownees

    @ownees.setter
    def ownees(self, addresses: list[int]) -> None:
        self._ownees = addresses
        self._sorted = False

    def append(self, ownee_address: int) -> None:
        """Add an ownee the caller knows is new: no search, no shifting."""
        self._ownees.append(ownee_address)
        self._sorted = False

    def add(self, ownee_address: int) -> None:
        """Add an ownee unless it is already here (one sorted search).

        For a caller holding a bare record; the registry asks its reverse
        index instead and calls :meth:`append`.
        """
        if not self.contains(ownee_address)[0]:
            self.append(ownee_address)

    def remove(self, ownee_address: int) -> bool:
        ownees = self.ownees
        idx = bisect_left(ownees, ownee_address)
        if idx < len(ownees) and ownees[idx] == ownee_address:
            del ownees[idx]
            return True
        return False

    def contains(self, ownee_address: int) -> tuple[bool, int]:
        """Binary search; returns (found, probes) so the collector can count
        the §2.5.2 "n log n" lookup work."""
        ownees = self.ownees
        lo, hi = 0, len(ownees) - 1
        probes = 0
        while lo <= hi:
            probes += 1
            mid = (lo + hi) // 2
            val = ownees[mid]
            if val == ownee_address:
                return True, probes
            if val < ownee_address:
                lo = mid + 1
            else:
                hi = mid - 1
        return False, max(probes, 1)

    def __len__(self) -> int:
        return len(self._ownees)

    def __repr__(self) -> str:
        return f"<owner {self.owner_address:#x} ownees={len(self._ownees)}>"


#: ``bytes.translate`` table adding one to every probe depth.
_ONE_DEEPER = bytes(range(1, 256)) + b"\x00"


@lru_cache(maxsize=64)
def probe_depths(n: int) -> bytes:
    """Probes :meth:`OwnerRecord.contains` spends on a hit, per index.

    The binary search's midpoint depends only on the length of the span it
    is halving, so the probe count of a hit is a pure function of (index,
    array length): one for the midpoint, and one more than the half-length
    table's entry on either side.  ``probe_depths(n)[i]`` therefore equals
    ``contains(ownees[i])[1]`` for every sorted array of ``n`` ownees — the
    ownership phase zips the array with this table into a dict, so one
    lookup answers membership *and* the exact §2.5.2 probe count.  Tables
    are one byte per ownee (a depth never exceeds 64), built from the two
    half-length tables with C-level byte operations, and memoised:
    ownee-array lengths repeat from collection to collection.
    """
    if n <= 0:
        return b""
    left = (n - 1) // 2
    return (
        probe_depths(left).translate(_ONE_DEEPER)
        + b"\x01"
        + probe_depths(n - 1 - left).translate(_ONE_DEEPER)
    )


class AssertionRegistry:
    """All live assertion metadata for one VM."""

    def __init__(self) -> None:
        #: address -> DeadSite for every outstanding assert-dead.
        self.dead_sites: dict[int, DeadSite] = {}
        #: address -> label for every outstanding assert-unshared.
        self.unshared_sites: dict[int, str] = {}
        #: owner address -> OwnerRecord (the paper's pair of arrays).
        self.owners: dict[int, OwnerRecord] = {}
        #: ownee address -> owner address (reverse index for purging and
        #: misuse diagnostics).
        self.ownee_owner: dict[int, int] = {}

        #: Cumulative API call counts (the §3.1.2 in-text numbers).
        self.calls: dict[AssertionKind, int] = {kind: 0 for kind in AssertionKind}
        #: assert-dead assertions satisfied (object reclaimed as asserted).
        self.dead_satisfied = 0
        #: ownee entries dropped because the ownee was reclaimed.
        self.ownees_reclaimed = 0
        self._serial = 0

    # -- assert-dead -----------------------------------------------------------------

    def register_dead(
        self,
        address: int,
        label: str,
        gc_number: int,
        kind: AssertionKind = AssertionKind.DEAD,
    ) -> DeadSite:
        serial = self._serial = self._serial + 1
        site = self.dead_sites[address] = DeadSite(label, serial, gc_number, kind)
        return site

    # -- assert-unshared --------------------------------------------------------------

    def register_unshared(self, address: int, label: str) -> None:
        self.unshared_sites[address] = label

    # -- assert-ownedby ---------------------------------------------------------------

    def register_owned_by(self, owner_address: int, ownee_address: int, label: str) -> OwnerRecord:
        if owner_address == ownee_address:
            raise AssertionUsageError("an object cannot own itself")
        existing_owner = self.ownee_owner.get(ownee_address)
        if existing_owner is not None:
            if existing_owner != owner_address:
                raise AssertionUsageError(
                    f"object {ownee_address:#x} is already owned by "
                    f"{existing_owner:#x}; owner regions may not overlap (§2.5.2)"
                )
            return self.owners[owner_address]  # idempotent re-assert of the pair
        record = self.owners.get(owner_address)
        if record is None:
            record = self.owners[owner_address] = OwnerRecord(owner_address, label)
        record.append(ownee_address)
        self.ownee_owner[ownee_address] = owner_address
        return record

    def owner_of(self, ownee_address: int) -> Optional[int]:
        return self.ownee_owner.get(ownee_address)

    def owner_records(self) -> Iterable[OwnerRecord]:
        return self.owners.values()

    def live_ownee_count(self) -> int:
        return len(self.ownee_owner)

    # -- GC lifecycle -----------------------------------------------------------------

    def purge_freed(self, freed: set[int]) -> dict[str, list[int]]:
        """Drop metadata for reclaimed addresses.

        Returns the interesting buckets: assert-dead assertions *satisfied*
        by this collection and owners that were reclaimed (whose surviving
        ownees have now outlived their owner).
        """
        if not freed:
            return {"dead_satisfied": [], "dead_owners": []}
        # Set algebra against the address-keyed tables; buckets keep registration order.
        dead_sites = self.dead_sites
        hit = dead_sites.keys() & freed
        satisfied = [a for a in dead_sites if a in hit] if hit else []
        for address in satisfied:
            del dead_sites[address]
        self.dead_satisfied += len(satisfied)

        for address in self.unshared_sites.keys() & freed:
            del self.unshared_sites[address]

        reclaimed = self.ownee_owner.keys() & freed
        owner_of = self.ownee_owner.pop
        for address in reclaimed:
            self.owners[owner_of(address)].remove(address)
        self.ownees_reclaimed += len(reclaimed)

        dead = self.owners.keys() & freed
        dead_owners = [a for a in self.owners if a in dead] if dead else []
        return {"dead_satisfied": satisfied, "dead_owners": dead_owners}

    def drop_owner(self, owner_address: int) -> list[int]:
        """Remove an owner record; returns its surviving ownee addresses."""
        record = self.owners.pop(owner_address, None)
        if record is None:
            return []
        survivors = list(record.ownees)
        for a in survivors:
            self.ownee_owner.pop(a, None)
        return survivors

    def apply_forwarding(self, fwd: dict[int, int]) -> None:
        """Rewrite every address-keyed table after a copying collection."""
        if not fwd:
            return
        self.dead_sites = {fwd.get(a, a): s for a, s in self.dead_sites.items()}
        self.unshared_sites = {fwd.get(a, a): s for a, s in self.unshared_sites.items()}
        new_owners: dict[int, OwnerRecord] = {}
        for owner_address, record in self.owners.items():
            new_address = fwd.get(owner_address, owner_address)
            record.owner_address = new_address
            record.ownees = [fwd.get(a, a) for a in record.ownees]  # re-sorted on read
            new_owners[new_address] = record
        self.owners = new_owners
        self.ownee_owner = {
            fwd.get(a, a): fwd.get(o, o) for a, o in self.ownee_owner.items()
        }

    # -- introspection -----------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "dead_pending": len(self.dead_sites),
            "dead_satisfied": self.dead_satisfied,
            "unshared_pending": len(self.unshared_sites),
            "owners": len(self.owners),
            "ownees": len(self.ownee_owner),
            "ownees_reclaimed": self.ownees_reclaimed,
            "calls": {k.value: v for k, v in self.calls.items()},
        }
