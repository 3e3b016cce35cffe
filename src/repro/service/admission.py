"""Admission control over the service's aggregate heap budget.

The unit of admission is *committed heap bytes*: each tenant session
declares the heap its VM will own (budget + headroom), and the
controller admits only while the sum of committed bytes stays under the
configured service budget.  Overload therefore degrades into explicit
rejections with Retry-After hints — never into a crashed server or an
OOM inside an unrelated tenant's collection, which would violate the
isolation the whole service exists to provide.

The controller is a plain mutex-guarded ledger, callable from both
asyncio callbacks and workload threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

#: Hint sent with a budget rejection: overload here is session-shaped
#: (hundreds of ms to a few seconds), so a sub-second retry is honest.
RETRY_AFTER_S = 0.25


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission attempt."""

    admitted: bool
    #: ``"admitted"``, ``"budget"`` (heap budget exhausted) or
    #: ``"sessions"`` (concurrent-session cap reached).
    reason: str
    #: Seconds the client should wait before retrying (0 when admitted).
    retry_after_s: float = 0.0
    #: Time spent acquiring and mutating the ledger for this decision —
    #: lock wait included, so contention on the admission mutex shows up
    #: as a wide ``admission_commit`` span in the distributed trace.
    commit_seconds: float = 0.0


class AdmissionController:
    """Mutex-guarded committed-heap ledger with a session-count cap."""

    def __init__(self, budget_bytes: int, max_sessions: Optional[int] = None):
        self.budget_bytes = budget_bytes
        self.max_sessions = max_sessions
        self.committed_bytes = 0
        self.active_sessions = 0
        self.peak_sessions = 0
        self.peak_committed_bytes = 0
        self.admitted_total = 0
        self.rejected_total = 0
        self.rejected_by_reason: dict[str, int] = {}
        self.released_total = 0
        self._lock = threading.Lock()

    def try_admit(self, heap_bytes: int) -> AdmissionDecision:
        """Commit ``heap_bytes`` if the budget allows; else reject."""
        attempt_start = time.perf_counter()
        with self._lock:
            if (
                self.max_sessions is not None
                and self.active_sessions >= self.max_sessions
            ):
                return self._reject("sessions", attempt_start)
            if self.committed_bytes + heap_bytes > self.budget_bytes:
                return self._reject("budget", attempt_start)
            self.committed_bytes += heap_bytes
            self.active_sessions += 1
            self.admitted_total += 1
            self.peak_sessions = max(self.peak_sessions, self.active_sessions)
            self.peak_committed_bytes = max(
                self.peak_committed_bytes, self.committed_bytes
            )
            return AdmissionDecision(
                admitted=True,
                reason="admitted",
                commit_seconds=time.perf_counter() - attempt_start,
            )

    def _reject(self, reason: str, attempt_start: float) -> AdmissionDecision:
        # Caller holds the lock.
        self.rejected_total += 1
        self.rejected_by_reason[reason] = self.rejected_by_reason.get(reason, 0) + 1
        return AdmissionDecision(
            admitted=False,
            reason=reason,
            retry_after_s=RETRY_AFTER_S,
            commit_seconds=time.perf_counter() - attempt_start,
        )

    def release(self, heap_bytes: int) -> None:
        """Return a session's committed bytes to the budget (eviction)."""
        with self._lock:
            self.committed_bytes -= heap_bytes
            self.active_sessions -= 1
            self.released_total += 1
            if self.committed_bytes < 0 or self.active_sessions < 0:
                raise AssertionError(
                    "admission ledger went negative: release without matching admit"
                )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "budget_bytes": self.budget_bytes,
                "committed_bytes": self.committed_bytes,
                "active_sessions": self.active_sessions,
                "peak_sessions": self.peak_sessions,
                "peak_committed_bytes": self.peak_committed_bytes,
                "admitted_total": self.admitted_total,
                "rejected_total": self.rejected_total,
                "rejected_by_reason": dict(self.rejected_by_reason),
                "released_total": self.released_total,
            }
