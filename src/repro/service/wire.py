"""The ``repro-wire/1`` protocol: length-prefixed JSON frames.

Every frame on the wire is a 4-byte big-endian length followed by that
many bytes of UTF-8 JSON encoding one object.  Length-prefixing makes
framing trivial to implement in any client language and makes the two
failure modes *explicit* rather than silent: a truncated stream leaves
bytes in the decoder (rejected at EOF), and an oversized length prefix
is rejected before a single payload byte is buffered — a malicious or
confused client cannot make the server allocate unboundedly.

Forward compatibility follows the same discipline as the telemetry
schema's ``gc-event`` v1 → v2 evolution: *unknown keys in a frame are
preserved, never rejected*, so a newer client can attach fields an older
server ignores.  Only structural violations (bad JSON, non-object
payload, oversize, truncation) are protocol errors.

Two key families ride on that discipline rather than on a schema bump:

* **Trace context** — clients stamp ``trace_id`` (32-hex) and
  ``parent_span_id`` (16-hex) onto ``open``/``submit`` frames (see
  :mod:`repro.tracing.distributed`); servers echo ``trace_id`` on the
  frames they stream back.  Old peers ignore both.
* **Sequence numbers** — every outbound *session* frame carries a
  monotonic per-session ``seq``, assigned before shedding, so a frame
  dropped under backpressure leaves a visible gap in the numbering.
  :class:`SequenceTracker` is the client-side ledger that counts those
  gaps: shed telemetry becomes an observed quantity, not a silent hole.
"""

from __future__ import annotations

import json
import struct
from itertools import accumulate, repeat
from typing import Optional

from repro.errors import WireProtocolError

#: Wire schema identifier, exchanged in the hello/welcome handshake.
WIRE_SCHEMA = "repro-wire/1"

#: Hard ceiling on a single frame's payload, prefix excluded.  Generous
#: for any legitimate frame (programs, stats documents) while bounding
#: what one client can force the peer to buffer.
MAX_FRAME_BYTES = 1 << 20

_LEN = struct.Struct(">I")

#: Bound once: ``json.dumps(..., separators=...)`` builds an encoder per call.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(payload: dict, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one frame: 4-byte big-endian length + UTF-8 JSON body."""
    if not isinstance(payload, dict):
        raise WireProtocolError(
            f"frame payload must be a JSON object, not {type(payload).__name__}"
        )
    body = _encode_json(payload).encode("utf-8")
    if len(body) > max_frame_bytes:
        raise WireProtocolError(
            f"encoded frame is {len(body)} bytes, over the {max_frame_bytes}-byte limit"
        )
    return _LEN.pack(len(body)) + body


def encode_frame_trimmed(
    payload: dict,
    list_key: str,
    omitted_key: str,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> bytes:
    """Encode ``payload`` with the list at ``list_key`` cut to a prefix
    that fits the limit, and the number of items cut under ``omitted_key``.

    The frame is sized with the list empty and the count at its widest,
    and what is left of the limit is spent on items in order — one pass,
    one final encode.  Raises :class:`WireProtocolError` when the frame
    is oversize even with the list empty.
    """
    items = payload[list_key]
    shell = encode_frame({**payload, list_key: [], omitted_key: len(items)}, max_frame_bytes)
    room = max_frame_bytes - (len(shell) - _LEN.size)
    kept = 0
    for item in items:
        room -= len(_encode_json(item)) + 1  # the comma
        if room < 0:
            break
        kept += 1
    return encode_frame(
        {**payload, list_key: items[:kept], omitted_key: len(items) - kept},
        max_frame_bytes,
    )


#: The violation frame as a session builds it, key for key.
_VIOLATION_KEYS = ("type", "session", "kind", "message", "class", "site", "gc_number", "seq")


class ViolationFrameEncoder:
    """:func:`encode_frame`'s bytes for a session's violation frames, which
    differ in two integers: what precedes ``gc_number`` is encoded once per
    (session, kind, message, class, site), by the general encoder, and kept.
    ``encode`` returns ``None`` for any other layout (an extra ``trace_id``,
    say) or an oversize frame: :func:`encode_frame` takes those, error and all."""

    def __init__(self) -> None:
        self._prefixes: dict[tuple, bytes] = {}

    def encode(self, frame: dict, max_frame_bytes: int = MAX_FRAME_BYTES) -> Optional[bytes]:
        if tuple(frame) != _VIOLATION_KEYS:
            return None
        ftype, *constant, gc_number, seq = frame.values()
        if ftype != "violation" or type(gc_number) is not int or type(seq) is not int:
            return None
        key = tuple(constant)
        try:
            prefix = self._prefixes.get(key)
        except TypeError:  # an unhashable site: JSON can say it, a key cannot
            return None
        if prefix is None:
            # str/None only, so a hit is never a value that merely equals one (1 == True).
            if not all(value is None or type(value) is str for value in constant):
                return None
            if len(self._prefixes) >= 512:  # sites are per program, not per object
                self._prefixes.clear()
            head = _encode_json(dict(zip(_VIOLATION_KEYS, (ftype, *constant))))
            prefix = self._prefixes[key] = head[:-1].encode("utf-8") + b',"gc_number":'
        body = b'%b%d,"seq":%d}' % (prefix, gc_number, seq)
        if len(body) > max_frame_bytes:
            return None
        return _LEN.pack(len(body)) + body


#: The C scanner ``json.loads`` runs: ``(value, end)`` for the one JSON value
#: starting exactly at an index.
_scan_value = json.JSONDecoder().scan_once


def _parse_bodies(bodies: list) -> Optional[list]:
    """``json.loads`` of each body, in one C-level pass, when every body is
    ASCII and exactly one JSON object, no whitespace around it; else None.

    The bodies are joined and each scanned at its own offset: the scan must
    end where the body ends, so no value reads into its neighbour.  ASCII
    makes the offsets byte offsets and the UTF-8 decode a no-op.
    """
    text = b"".join(bodies)
    if not text.isascii():
        return None
    text = text.decode("ascii")
    ends = list(accumulate(map(len, bodies)))
    try:
        # A scan that finds no value raises StopIteration, which ends the map.
        parsed = list(map(_scan_value, repeat(text), [0, *ends[:-1]]))
    except Exception:  # the per-frame walk raises what json.loads would
        return None
    if len(parsed) != len(bodies):
        return None
    frames, found = zip(*parsed)
    if list(found) != ends or {*map(type, frames)} != {dict}:
        return None
    return list(frames)


class FrameDecoder:
    """Incremental decoder: feed arbitrary byte chunks, get whole frames.

    Stream-safe by construction — ``feed`` buffers partial prefixes and
    partial bodies across calls, so TCP segmentation never corrupts
    framing.  Three structural faults raise :class:`WireProtocolError`:

    * a length prefix over ``max_frame_bytes`` (oversized frame),
    * a zero-length frame (no legal frame is empty),
    * a body that is not a JSON object.

    Call :meth:`finish` at EOF: leftover buffered bytes mean the peer
    truncated a frame mid-stream, which is also a protocol error.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self.frames_decoded = 0
        self.bytes_consumed = 0
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        """Consume a chunk; return every complete frame it finishes.

        The frames are walked by their prefixes and their bodies parsed in
        one pass (:func:`_parse_bodies`).  Anything that pass cannot vouch
        for — a bad prefix, a body that is not exactly one ASCII JSON
        object — sends the whole chunk through :meth:`_feed_each`, the
        one-``json.loads``-per-frame walk, for its frames and its error.
        """
        buffer = self._buffer
        buffer.extend(data)
        self.bytes_consumed += len(data)
        bodies = []
        start, buffered, limit, size = 0, len(buffer), self.max_frame_bytes, _LEN.size
        while buffered - start >= size:
            (length,) = _LEN.unpack_from(buffer, start)
            if not 0 < length <= limit:
                return self._feed_each()
            end = start + size + length
            if buffered < end:
                break
            bodies.append(buffer[start + size:end])
            start = end
        if not bodies:
            return []
        frames = _parse_bodies(bodies)
        if frames is None:
            return self._feed_each()
        del buffer[:start]
        self.frames_decoded += len(frames)
        return frames

    def _feed_each(self) -> list[dict]:
        """Decode the buffered frames one ``json.loads`` at a time, raising
        at the first fault; what precedes it is consumed and counted."""
        buffer = self._buffer
        frames: list[dict] = []
        # One trim per feed, however the walk ends: a ``del`` per frame moves the rest each time.
        start, buffered = 0, len(buffer)
        try:
            while buffered - start >= _LEN.size:
                (length,) = _LEN.unpack_from(buffer, start)
                if length == 0:
                    raise WireProtocolError("zero-length frame")
                if length > self.max_frame_bytes:
                    raise WireProtocolError(
                        f"frame length {length} exceeds the "
                        f"{self.max_frame_bytes}-byte limit"
                    )
                body_start = start + _LEN.size
                if buffered < body_start + length:
                    break
                start = body_start + length  # consumed, decodable or not
                try:
                    payload = json.loads(buffer[body_start:start].decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise WireProtocolError(f"undecodable frame body: {exc}") from exc
                if not isinstance(payload, dict):
                    raise WireProtocolError(
                        f"frame body must be a JSON object, got {type(payload).__name__}"
                    )
                self.frames_decoded += 1
                frames.append(payload)
        finally:
            del buffer[:start]
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def finish(self) -> None:
        """Assert stream closure landed on a frame boundary."""
        if self._buffer:
            raise WireProtocolError(
                f"stream truncated mid-frame with {len(self._buffer)} bytes buffered"
            )


class SequenceTracker:
    """Per-session gap detection over the ``seq`` key on inbound frames.

    Sessions number every outbound frame *before* shedding, so a slow
    consumer sees ``..., 7, 9, ...`` where frame 8 was dropped; the gap
    count equals the number of shed (or connection-drop discarded)
    frames.  Frames without a ``session`` or an integer ``seq`` — hello
    replies, frames from pre-seq servers — are ignored, keeping the
    tracker forward- and backward-compatible.
    """

    def __init__(self) -> None:
        self.last_seq: dict = {}
        self.gaps: dict = {}
        self.frames_seen = 0
        self.total_gaps = 0

    def observe(self, frame: dict) -> int:
        """Feed one inbound frame; returns the gap it revealed (0 = none)."""
        return self.observe_all((frame,))

    def observe_all(self, frames) -> int:
        """Feed inbound frames in arrival order; returns the gaps they revealed."""
        last_seq, gaps = self.last_seq, self.gaps
        revealed = 0
        for frame in frames:
            session = frame.get("session")
            seq = frame.get("seq")
            if session is None or not isinstance(seq, int):
                continue
            self.frames_seen += 1
            last = last_seq.get(session)
            last_seq[session] = seq
            # First frame at seq N means frames 0..N-1 were shed before
            # anything reached us; later frames reveal gap = seq - last - 1.
            gap = seq if last is None else seq - last - 1
            if gap > 0:
                gaps[session] = gaps.get(session, 0) + gap
                self.total_gaps += gap
                revealed += gap
        return revealed
