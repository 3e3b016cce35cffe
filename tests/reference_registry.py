"""Reference oracle for the ownership registry (§2.5.2's pair of arrays).

This is the sorted-on-insert bookkeeping ``repro.core.registry`` shipped
before ``OwnerRecord`` became append-only with a sort on first read and
``purge_freed`` became set algebra: ``OwnerRecord``, ``register_owned_by``,
``purge_freed`` and ``apply_forwarding`` are moved here verbatim (only the
class names change).  Every ``add`` bisects and inserts, every purge walks
everything registered and removes reclaimed ownees one ``bisect`` + ``del``
at a time — the plainest statement of what the array holds after each
step.  Everything the rewrite left alone (``register_dead``,
``drop_owner``, ``snapshot`` …) is inherited, so the differential in
``tests/test_core_registry_reporting.py`` (``-k registry_reference``)
compares exactly the code that changed.  Nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.core.registry import AssertionRegistry
from repro.errors import AssertionUsageError


class ReferenceOwnerRecord:
    """One owner object and its sorted array of ownee addresses."""

    __slots__ = ("owner_address", "ownees", "label")

    def __init__(self, owner_address: int, label: str):
        self.owner_address = owner_address
        self.ownees: list[int] = []  # sorted ascending
        self.label = label

    def add(self, ownee_address: int) -> None:
        idx = bisect_left(self.ownees, ownee_address)
        if idx < len(self.ownees) and self.ownees[idx] == ownee_address:
            return  # idempotent re-assert of the same pair
        self.ownees.insert(idx, ownee_address)

    def remove(self, ownee_address: int) -> bool:
        idx = bisect_left(self.ownees, ownee_address)
        if idx < len(self.ownees) and self.ownees[idx] == ownee_address:
            del self.ownees[idx]
            return True
        return False

    def contains(self, ownee_address: int) -> tuple[bool, int]:
        """Binary search; returns (found, probes) so the collector can count
        the §2.5.2 "n log n" lookup work."""
        lo, hi = 0, len(self.ownees) - 1
        probes = 0
        while lo <= hi:
            probes += 1
            mid = (lo + hi) // 2
            val = self.ownees[mid]
            if val == ownee_address:
                return True, probes
            if val < ownee_address:
                lo = mid + 1
            else:
                hi = mid - 1
        return False, max(probes, 1)

    def resort(self) -> None:
        self.ownees.sort()

    def __len__(self) -> int:
        return len(self.ownees)


class ReferenceRegistry(AssertionRegistry):
    """``AssertionRegistry`` with the ownership bookkeeping as it was."""

    def register_owned_by(
        self, owner_address: int, ownee_address: int, label: str
    ) -> ReferenceOwnerRecord:
        if owner_address == ownee_address:
            raise AssertionUsageError("an object cannot own itself")
        existing_owner = self.ownee_owner.get(ownee_address)
        if existing_owner is not None and existing_owner != owner_address:
            raise AssertionUsageError(
                f"object {ownee_address:#x} is already owned by "
                f"{existing_owner:#x}; owner regions may not overlap (§2.5.2)"
            )
        record = self.owners.get(owner_address)
        if record is None:
            record = ReferenceOwnerRecord(owner_address, label)
            self.owners[owner_address] = record
        record.add(ownee_address)
        self.ownee_owner[ownee_address] = owner_address
        return record

    def purge_freed(self, freed: set[int]) -> dict[str, list[int]]:
        if not freed:
            return {"dead_satisfied": [], "dead_owners": []}
        satisfied = [a for a in self.dead_sites if a in freed]
        for address in satisfied:
            del self.dead_sites[address]
        self.dead_satisfied += len(satisfied)

        for address in [a for a in self.unshared_sites if a in freed]:
            del self.unshared_sites[address]

        dead_owners: list[int] = []
        for owner_address, record in self.owners.items():
            reclaimed = [a for a in record.ownees if a in freed]
            for a in reclaimed:
                record.remove(a)
                self.ownee_owner.pop(a, None)
            self.ownees_reclaimed += len(reclaimed)
            if owner_address in freed:
                dead_owners.append(owner_address)
        return {"dead_satisfied": satisfied, "dead_owners": dead_owners}

    def apply_forwarding(self, fwd: dict[int, int]) -> None:
        if not fwd:
            return
        self.dead_sites = {fwd.get(a, a): s for a, s in self.dead_sites.items()}
        self.unshared_sites = {fwd.get(a, a): s for a, s in self.unshared_sites.items()}
        new_owners: dict[int, ReferenceOwnerRecord] = {}
        for owner_address, record in self.owners.items():
            new_address = fwd.get(owner_address, owner_address)
            record.owner_address = new_address
            record.ownees = [fwd.get(a, a) for a in record.ownees]
            record.resort()
            new_owners[new_address] = record
        self.owners = new_owners
        self.ownee_owner = {
            fwd.get(a, a): fwd.get(o, o) for a, o in self.ownee_owner.items()
        }
