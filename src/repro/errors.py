"""Exception hierarchy for the GC-assertions runtime.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch the whole family with one handler.  The hierarchy mirrors
the layers of the system: heap-level faults, runtime (VM) faults, language
(MiniJ) faults, and assertion-policy faults such as
:class:`AssertionViolationHalt`, which is raised by the ``HALT`` reaction
policy when the collector detects a violated GC assertion.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class HeapError(ReproError):
    """Base class for heap-level faults (allocation, addressing, layout)."""


class OutOfMemoryError(HeapError):
    """Raised when an allocation cannot be satisfied even after a full GC."""


class HeapCorruption(HeapError):
    """Raised when heap integrity checking finds broken invariants.

    Carries the structured list of problems and (when the hardened sentinel
    produced it) the set of addresses that were fenced into quarantine.
    """

    def __init__(self, message: str, problems: list | None = None, fenced: set | None = None):
        self.problems: list[str] = list(problems or [])
        self.fenced: set[int] = set(fenced or ())
        super().__init__(message)


class QuarantineOverflowError(HeapCorruption):
    """Raised when the corruption quarantine hits its bounded capacity.

    The quarantine deliberately leaks fenced cells; an unbounded fence set
    under sustained corruption faults would itself become a leak.  Hitting
    the bound means the heap is degrading faster than the sentinel can
    contain — the process should be recycled, not patched further.
    """


class HeapExhausted(OutOfMemoryError):
    """Structured out-of-memory error with census + top-retained triage.

    Subclasses :class:`OutOfMemoryError` so existing ``except OutOfMemoryError``
    handlers keep working; hardened collectors attach a per-type census and the
    top retained-size entries so the failure is actionable without a core dump.
    """

    def __init__(
        self,
        message: str,
        *,
        requested_bytes: int = 0,
        type_name: str = "",
        heap_bytes: int = 0,
        census: dict | None = None,
        top_retained: list | None = None,
    ):
        self.requested_bytes = requested_bytes
        self.type_name = type_name
        self.heap_bytes = heap_bytes
        self.census: dict[str, tuple[int, int]] = dict(census or {})
        self.top_retained: list[tuple[str, int]] = list(top_retained or [])
        super().__init__(message)

    def triage(self) -> str:
        """Render the census/top-retained payload as indented report lines."""
        lines = []
        if self.census:
            lines.append("census (top types by bytes):")
            ranked = sorted(self.census.items(), key=lambda kv: -kv[1][1])[:8]
            for name, (count, nbytes) in ranked:
                lines.append(f"  {name:<24} {count:>8} objects {nbytes:>12} bytes")
        if self.top_retained:
            lines.append("top retained:")
            for label, nbytes in self.top_retained[:8]:
                lines.append(f"  {label:<40} retains {nbytes:>12} bytes")
        return "\n".join(lines)


class InvalidAddressError(HeapError):
    """Raised when an address does not name a live, allocated object."""


class UseAfterFreeError(HeapError):
    """Raised when a handle or field dereferences a reclaimed object.

    In a real VM this would be silent memory corruption; the simulator
    poisons freed objects so the bug surfaces immediately.
    """


class LayoutError(HeapError):
    """Raised for malformed class/field layouts (duplicate fields, bad kinds)."""


class RuntimeFault(ReproError):
    """Base class for VM-level faults raised by mutator operations."""


class NullReferenceError(RuntimeFault):
    """Raised when a null reference is dereferenced (field read/write/call)."""


class TypeFault(RuntimeFault):
    """Raised when a field/array access does not match the declared kind."""


class RegionError(RuntimeFault):
    """Raised on misuse of start-region / assert-alldead bracketing."""


class EngineDegraded(ReproError):
    """Records an assertion-engine degradation (never raised across a pause).

    The hardened engine swallows engine/reaction exceptions for the rest of
    the current collection and records one of these; it re-arms on the next
    pause.  Exposed so tooling can inspect ``engine.degraded_events``.
    """

    def __init__(self, reason: str, *, phase: str = "", gc_number: int = -1):
        self.reason = reason
        self.phase = phase
        self.gc_number = gc_number
        super().__init__(f"assertion engine degraded during {phase or 'gc'}: {reason}")


class ConfigurationError(ReproError, ValueError):
    """Raised for invalid configuration values (modes, fractions, budgets).

    Also a :class:`ValueError` so callers validating arguments the standard
    way keep working.
    """


class AssertionUsageError(ReproError):
    """Raised when a GC assertion is registered incorrectly.

    Example: asserting ownership for an object already owned by a different
    owner, or passing a negative instance limit.
    """


class AssertionViolationHalt(ReproError):
    """Raised by the ``HALT`` reaction policy when a GC assertion fails.

    Carries the :class:`~repro.core.reporting.Violation` that triggered it.
    """

    def __init__(self, violation: object):
        self.violation = violation
        super().__init__(str(violation))


class ServiceError(ReproError):
    """Base class for multi-tenant assertion-service faults."""


class WireProtocolError(ServiceError):
    """Raised on malformed ``repro-wire/1`` traffic.

    Covers framing faults (truncated stream, zero-length or oversized
    frames, non-JSON payloads) and semantic faults (missing required
    keys, unknown frame types).  Unknown *keys* inside a known frame are
    never an error — the wire protocol follows the GcEvent v1→v2
    discipline: readers ignore what they do not understand.
    """


class SessionKilled(ServiceError):
    """Raised inside a tenant session's workload when the session is killed.

    The ``session-kill`` fault kind (and an operator eviction) raise this
    from the victim VM's own collection path; the session manager catches
    it, moves the session to ``evicted``, and releases its heap budget.
    Other tenants never observe it — that isolation is what the service
    chaos cell proves.
    """


class MiniJError(ReproError):
    """Base class for MiniJ language errors."""


class MiniJSyntaxError(MiniJError):
    """Raised by the lexer/parser on malformed source text."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class MiniJCompileError(MiniJError):
    """Raised by the bytecode compiler on semantic errors."""


class MiniJRuntimeError(MiniJError):
    """Raised by the bytecode interpreter on dynamic errors."""
