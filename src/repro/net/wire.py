"""The live transport's deterministic wire codec.

The simulator ships :class:`~repro.net.simulator.Message` objects as
Python references; the live transport (:mod:`repro.net.live`) ships
them between processes, so every payload value needs a byte encoding
both ends compute identically.  This module is that encoding — the
same tagged-value discipline as the simulator's ``_stable_bytes``
(one ASCII tag byte per value, scalars by value, containers
recursively), extended with length prefixes so it can be *decoded*,
and with explicit type tags for the protocol's opaque objects:
records, search plans, site hits, scan matchers and retry
policies.  ``docs/SERVING.md`` documents the format;
``docs/PROTOCOLS.md`` §11 carries the normative message-kind table
rendered from :data:`MESSAGE_KINDS` below (``python -m
repro.net.wire`` regenerates it, and the docs test suite diffs the
two so they cannot drift).

Framing is length-prefixed: a big-endian ``u32`` byte count, then a
version byte (:data:`WIRE_VERSION`), a channel byte
(:data:`CHANNEL_DATA` for protocol messages billed to
:class:`~repro.net.stats.NetworkStats`, :data:`CHANNEL_CTRL` for the
unbilled cluster-management plane), then one encoded value.

Determinism contract: encoding is a pure function of the value —
no memory addresses, hashes seeded per process, or clock reads —
and ``decode(encode(v))`` rebuilds an equal value with dict insertion
order preserved (the simulator's wire checksum is order-sensitive,
so the live transport must deliver payload dicts in sending order).

>>> payload = {"key": 7, "op": 1, "client": ("client", "F", 0)}
>>> decode_value(encode_value(payload)) == payload
True
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.net.simulator import Message

#: Wire format version, first byte of every frame body.  Bump on any
#: incompatible change to tags, framing or the typed-object registry.
WIRE_VERSION = 4

#: Channel byte: a protocol :class:`Message` billed to NetworkStats.
CHANNEL_DATA = 0
#: Channel byte: cluster management (attach, crash, census, shutdown)
#: — never billed, exactly as the simulator's management *method
#: calls* (``Network.crash`` etc.) are not messages.
CHANNEL_CTRL = 1

_LEN = struct.Struct(">I")
_F64 = struct.Struct(">d")

#: Hard ceiling on one frame (64 MiB) — a decoder reading a length
#: beyond it is desynchronised or under attack; fail loudly.
MAX_FRAME = 64 * 1024 * 1024


class WireError(ValueError):
    """Base class for wire codec failures."""


class WireEncodeError(WireError):
    """A value the deterministic codec refuses to encode."""


class WireDecodeError(WireError):
    """Malformed, truncated or wrong-version bytes."""


# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------
#
# One ASCII tag byte per value (mirroring the simulator's
# ``_stable_bytes`` alphabet where the two overlap):
#
#   n             None
#   T / F         True / False
#   i <u8 n> <n bytes>          signed big-endian two's-complement int
#   f <8 bytes>                 IEEE-754 double, big-endian
#   s <u32 n> <n bytes>         UTF-8 string
#   b <u32 n> <n bytes>         bytes
#   l <u32 n> <items>           list
#   t <u32 n> <items>           tuple
#   d <u32 n> <k v pairs>       dict, insertion order preserved
#   S <u32 n> <items>           set (canonical order: sorted encodings)
#   O <u8 type-id> <fields>     registered protocol object


def _encode_into(out: bytearray, value: Any) -> None:
    if value is None:
        out += b"n"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big",
                             signed=True)
        if len(raw) > 255:
            raise WireEncodeError("integer too large for the wire")
        out += b"i"
        out.append(len(raw))
        out += raw
    elif isinstance(value, float):
        out += b"f" + _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s" + _LEN.pack(len(raw)) + raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out += b"b" + _LEN.pack(len(raw)) + raw
    elif isinstance(value, list):
        out += b"l" + _LEN.pack(len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, tuple):
        out += b"t" + _LEN.pack(len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out += b"d" + _LEN.pack(len(value))
        for key, item in value.items():
            _encode_into(out, key)
            _encode_into(out, item)
    elif isinstance(value, (set, frozenset)):
        encoded = sorted(encode_value(item) for item in value)
        out += b"S" + _LEN.pack(len(encoded))
        for item in encoded:
            out += item
    else:
        entry = _registry().get(type(value))
        if entry is None:
            raise WireEncodeError(
                f"no wire encoding for {type(value).__name__!r}; "
                "register it in repro.net.wire or ship plain values"
            )
        type_id, pack, _unpack = entry
        out += b"O"
        out.append(type_id)
        _encode_into(out, pack(value))


def encode_value(value: Any) -> bytes:
    """Encode one value to its deterministic wire bytes."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _decode_from(buf: memoryview, pos: int) -> tuple[Any, int]:
    if pos >= len(buf):
        raise WireDecodeError("truncated value")
    tag = buf[pos]
    pos += 1
    if tag == 0x6E:                     # n
        return None, pos
    if tag == 0x54:                     # T
        return True, pos
    if tag == 0x46:                     # F
        return False, pos
    if tag == 0x69:                     # i
        if pos >= len(buf):
            raise WireDecodeError("truncated int length")
        length = buf[pos]
        pos += 1
        raw = bytes(buf[pos:pos + length])
        if len(raw) != length:
            raise WireDecodeError("truncated int")
        return int.from_bytes(raw, "big", signed=True), pos + length
    if tag == 0x66:                     # f
        if pos + 8 > len(buf):
            raise WireDecodeError("truncated float")
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag in (0x73, 0x62):             # s / b
        if pos + 4 > len(buf):
            raise WireDecodeError("truncated length")
        (length,) = _LEN.unpack_from(buf, pos)
        pos += 4
        raw = bytes(buf[pos:pos + length])
        if len(raw) != length:
            raise WireDecodeError("truncated string/bytes body")
        if tag == 0x62:
            return raw, pos + length
        try:
            return raw.decode("utf-8"), pos + length
        except UnicodeDecodeError as error:
            raise WireDecodeError(
                f"invalid utf-8 in string: {error}"
            ) from error
    if tag in (0x6C, 0x74, 0x53):       # l / t / S
        if pos + 4 > len(buf):
            raise WireDecodeError("truncated length")
        (count,) = _LEN.unpack_from(buf, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_from(buf, pos)
            items.append(item)
        if tag == 0x74:
            return tuple(items), pos
        if tag == 0x53:
            try:
                return set(items), pos
            except TypeError as error:
                raise WireDecodeError(
                    f"unhashable set member: {error}"
                ) from error
        return items, pos
    if tag == 0x64:                     # d
        if pos + 4 > len(buf):
            raise WireDecodeError("truncated length")
        (count,) = _LEN.unpack_from(buf, pos)
        pos += 4
        result: dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode_from(buf, pos)
            item, pos = _decode_from(buf, pos)
            try:
                result[key] = item
            except TypeError as error:
                raise WireDecodeError(
                    f"unhashable dict key: {error}"
                ) from error
        return result, pos
    if tag == 0x4F:                     # O
        if pos >= len(buf):
            raise WireDecodeError("truncated type id")
        type_id = buf[pos]
        pos += 1
        unpack = _decoders().get(type_id)
        if unpack is None:
            raise WireDecodeError(f"unknown wire type id {type_id}")
        fields, pos = _decode_from(buf, pos)
        try:
            return unpack(fields), pos
        except WireDecodeError:
            raise
        except Exception as error:
            # Corrupted fields must surface as a decode error, not as
            # whatever the type's constructor happens to throw.
            raise WireDecodeError(
                f"malformed fields for wire type id {type_id}: "
                f"{error}"
            ) from error
    raise WireDecodeError(f"unknown wire tag {tag:#x}")


def decode_value(data: bytes | memoryview) -> Any:
    """Decode one value; rejects trailing garbage."""
    value, pos = _decode_from(memoryview(data), 0)
    if pos != len(data):
        raise WireDecodeError(
            f"{len(data) - pos} trailing bytes after value"
        )
    return value


# ---------------------------------------------------------------------------
# typed protocol objects
# ---------------------------------------------------------------------------
#
# Each entry collapses an opaque payload object to a tuple of plain
# wire values and rebuilds an equivalent object on the far side.
# Matchers are shipped by *parameters* — their needles, plus for the
# chunk index a wire-encodable ``IndexKeyCodec`` — which rebuild a
# matcher whose replies are byte-identical to the sender's.  Their
# decoders check the field count, so a tuple in an older layout fails
# typed instead of decoding into some other matcher.

_TYPES: dict[type, tuple[int, Callable[[Any], Any],
                         Callable[[Any], Any]]] | None = None
_BY_ID: dict[int, Callable[[Any], Any]] | None = None


def _exactly(count: int, fields: tuple) -> tuple:
    """``fields`` if it has ``count`` members, else a decode error."""
    if len(fields) != count:
        raise WireDecodeError(
            f"expected {count} fields, got {len(fields)}"
        )
    return fields


def _build_registry() -> None:
    global _TYPES, _BY_ID
    from repro.core.search import (
        IndexKeyCodec,
        MultiPlanScanMatcher,
        PlanScanMatcher,
        SearchPlan,
        SiteHit,
    )
    from repro.net.faults import RetryPolicy
    from repro.net.stats import FIELDS as STATS_FIELDS
    from repro.net.stats import NetworkStats
    from repro.sdds.lhstar import RidScanMatcher
    from repro.sdds.records import Record

    def pack_plan_matcher(m: PlanScanMatcher) -> tuple:
        if not isinstance(m.decode, IndexKeyCodec):
            raise WireEncodeError(
                "PlanScanMatcher.decode must be an IndexKeyCodec to "
                "cross a process boundary (got "
                f"{type(m.decode).__name__!r})"
            )
        return (m.plan, m.decode)

    def pack_multi_matcher(m: MultiPlanScanMatcher) -> tuple:
        if not isinstance(m.decode, IndexKeyCodec):
            raise WireEncodeError(
                "MultiPlanScanMatcher.decode must be an IndexKeyCodec "
                "to cross a process boundary"
            )
        return (list(m.plans), m.decode)

    def pack_stats(s: NetworkStats) -> tuple:
        # Per-kind counters travel as plain dicts (wire type 13).
        return tuple([
            dict(value) if isinstance(value, Counter) else value
            for value in s.values()])

    def unpack_stats(values: tuple) -> NetworkStats:
        if len(values) != len(STATS_FIELDS):
            raise WireDecodeError("malformed NetworkStats tuple")
        return NetworkStats(*[
            Counter(value) if isinstance(value, dict) else value
            for value in values])

    table: list[tuple[int, type, Callable, Callable]] = [
        (1, Record,
         lambda r: (r.rid, r.content),
         lambda f: Record(rid=f[0], content=f[1])),
        (2, SiteHit,
         lambda h: (h.rid, h.group, h.site, h.positions, h.plan),
         lambda f: SiteHit(*_exactly(5, f))),
        (3, IndexKeyCodec,
         lambda c: (c.site_bits, c.group_bits),
         lambda f: IndexKeyCodec(site_bits=f[0], group_bits=f[1])),
        (4, SearchPlan,
         lambda p: (p.pattern, p.needles, p.piece_width, p.sites,
                    p.group_count, p.alignments, p.required_groups),
         lambda f: SearchPlan(pattern=f[0], needles=f[1],
                              piece_width=f[2], sites=f[3],
                              group_count=f[4], alignments=f[5],
                              required_groups=f[6])),
        (5, PlanScanMatcher,
         pack_plan_matcher,
         lambda f: PlanScanMatcher(*_exactly(2, f))),
        (7, MultiPlanScanMatcher,
         pack_multi_matcher,
         lambda f: MultiPlanScanMatcher(*_exactly(2, f))),
        (12, RetryPolicy,
         lambda p: (p.timeout, p.backoff, p.max_retries, p.jitter,
                    p.seed),
         lambda f: RetryPolicy(timeout=f[0], backoff=f[1],
                               max_retries=f[2], jitter=f[3],
                               seed=f[4])),
        (13, NetworkStats, pack_stats, unpack_stats),
        (14, RidScanMatcher,
         lambda m: (),
         lambda f: RidScanMatcher()),
        # Retired ids, never to be reused: 6 (version 1's hit-report
        # factory); 8 (the per-plan hit wrapper, folded into SiteHit's
        # plan field in version 4); 9-11, 15 and 16 (the §8 designs'
        # SWP trapdoor and scan matchers, dropped in version 3: those
        # designs run on the simulator only).
    ]
    _TYPES = {cls: (type_id, pack, unpack)
              for type_id, cls, pack, unpack in table}
    _BY_ID = {type_id: unpack for type_id, _cls, _pack, unpack in table}


def _registry() -> dict[type, tuple[int, Callable, Callable]]:
    if _TYPES is None:
        _build_registry()
    assert _TYPES is not None
    return _TYPES


def _decoders() -> dict[int, Callable[[Any], Any]]:
    if _BY_ID is None:
        _build_registry()
    assert _BY_ID is not None
    return _BY_ID


# ---------------------------------------------------------------------------
# message + frame codec
# ---------------------------------------------------------------------------


def message_to_wire(message: Message) -> tuple:
    """The DATA-frame value of one protocol message (a 7-tuple;
    local-only timing fields are deliberately not shipped)."""
    return (
        message.src, message.dst, message.kind, message.payload,
        message.size, message.hops, message.checksum,
    )


def message_from_wire(fields: Any) -> Message:
    if not isinstance(fields, tuple) or len(fields) != 7:
        raise WireDecodeError("malformed message tuple")
    src, dst, kind, payload, size, hops, checksum = fields
    return Message(src=src, dst=dst, kind=kind, payload=payload,
                   size=size, hops=hops, checksum=checksum)


def encode_message(message: Message) -> bytes:
    """Encode one protocol message as a DATA frame body value."""
    return encode_value(message_to_wire(message))


def decode_message(data: bytes | memoryview) -> Message:
    return message_from_wire(decode_value(data))


def encode_frame(channel: int, value: Any) -> bytes:
    """One wire frame: u32 length | version | channel | value."""
    if channel not in (CHANNEL_DATA, CHANNEL_CTRL):
        raise WireEncodeError(f"unknown channel {channel}")
    body = bytes([WIRE_VERSION, channel]) + encode_value(value)
    if len(body) > MAX_FRAME:
        raise WireEncodeError("frame exceeds MAX_FRAME")
    return _LEN.pack(len(body)) + body


def decode_frame_body(body: bytes | memoryview) -> tuple[int, Any]:
    """Decode one frame body (after the length prefix is stripped)."""
    body = memoryview(body)
    if len(body) < 2:
        raise WireDecodeError("frame body shorter than its header")
    if body[0] != WIRE_VERSION:
        raise WireDecodeError(
            f"wire version {body[0]} != {WIRE_VERSION}"
        )
    channel = body[1]
    if channel not in (CHANNEL_DATA, CHANNEL_CTRL):
        raise WireDecodeError(f"unknown channel byte {channel}")
    return channel, decode_value(body[2:])


class FrameDecoder:
    """Incremental reassembly of frames from a byte stream.

    Feed it socket reads; iterate :meth:`frames` for every complete
    ``(channel, value)`` pair.  Partial frames stay buffered.

    >>> decoder = FrameDecoder()
    >>> frame = encode_frame(CHANNEL_CTRL, {"ctrl": "ping"})
    >>> decoder.feed(frame[:5]); decoder.feed(frame[5:])
    >>> list(decoder.frames())
    [(1, {'ctrl': 'ping'})]
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def frames(self) -> Iterator[tuple[int, Any]]:
        while True:
            if len(self._buffer) < 4:
                return
            (length,) = _LEN.unpack_from(self._buffer, 0)
            if length > MAX_FRAME:
                raise WireDecodeError(
                    f"frame length {length} exceeds MAX_FRAME"
                )
            if len(self._buffer) < 4 + length:
                return
            body = memoryview(self._buffer)[4:4 + length]
            result = decode_frame_body(body)
            del body
            del self._buffer[:4 + length]
            yield result


# ---------------------------------------------------------------------------
# the normative message-kind registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KindSpec:
    """One row of the protocol's message-kind table."""

    kind: str
    sender: str
    receiver: str
    payload: tuple[str, ...]
    billed: str


#: Every message kind either transport may carry, with who sends it,
#: its payload fields and the size the sender declares (and is billed
#: for) — ``H`` abbreviates ``HEADER_SIZE`` (32) and ``R(r)`` a
#: record's ``wire_size`` (16 + len(content)).  ``docs/PROTOCOLS.md``
#: §11 is rendered from this tuple; ``tests/net/test_wire.py``
#: asserts it matches the kinds the SDDS sources actually send.
MESSAGE_KINDS: tuple[KindSpec, ...] = (
    KindSpec("insert", "client", "bucket (forwarded ≤2 hops)",
             ("key", "op", "client", "content"),
             "H + 16 + len(content)"),
    KindSpec("lookup", "client", "bucket (forwarded ≤2 hops)",
             ("key", "op", "client"), "H"),
    KindSpec("delete", "client", "bucket (forwarded ≤2 hops)",
             ("key", "op", "client"), "H"),
    KindSpec("reply", "bucket | parity", "client",
             ("op", "ok", "content? | created? | error?, error_kind?"),
             "H (+ R(record) on a lookup hit)"),
    KindSpec("iam", "bucket", "client", ("address", "level"), "H"),
    KindSpec("scan", "client | bucket (forward)", "bucket",
             ("op", "client", "matcher", "level"),
             "query size (SearchPlan.request_size)"),
    KindSpec("scan_reply", "bucket", "client",
             ("op", "address", "level", "hits", "forwarded"),
             "H + Σ hit wire_size"),
    KindSpec("overflow", "bucket", "coordinator",
             ("address", "delta"), "H"),
    KindSpec("underflow", "bucket", "coordinator", ("address",), "H"),
    KindSpec("load", "bucket", "coordinator",
             ("address", "delta"), "H"),
    KindSpec("split", "coordinator", "bucket",
             ("new_address", "new_level"), "H"),
    KindSpec("split_records", "bucket", "bucket",
             ("records",), "H + Σ R(record)"),
    KindSpec("merge", "coordinator", "bucket",
             ("target", "level"), "H"),
    KindSpec("merge_records", "bucket", "bucket",
             ("records", "level"), "H + Σ R(record)"),
    KindSpec("leave", "coordinator", "bucket", ("address",), "H"),
    KindSpec("probe", "coordinator", "bucket", ("address",), "H"),
    KindSpec("probe_ack", "bucket", "coordinator", ("address",), "H"),
    KindSpec("suspect", "client | parity", "coordinator",
             ("address", "client"), "H"),
    KindSpec("await_recovery", "client", "coordinator",
             ("address", "client"), "H"),
    KindSpec("bucket_down", "coordinator", "subscriber",
             ("address", "group_dead"), "H"),
    KindSpec("bucket_up", "coordinator", "subscriber",
             ("address",), "H"),
    KindSpec("bucket_recovered", "coordinator", "subscriber",
             ("address",), "H"),
    KindSpec("recover", "coordinator", "parity",
             ("address", "dead"), "H"),
    KindSpec("recover_install", "parity | bucket (leave drain)",
             "bucket (spare)",
             ("records",), "H + Σ R(record)"),
    KindSpec("recover_done", "bucket", "coordinator",
             ("address",), "H"),
    KindSpec("group_fetch", "parity", "bucket",
             ("gather", "offset", "entries"), "H + 8·|entries|"),
    KindSpec("group_data", "bucket", "parity",
             ("gather", "offset", "entries"),
             "H + Σ (8 + len(content))"),
    KindSpec("parity_fetch", "parity", "parity",
             ("gather", "ranks"), "H + 8·|ranks|"),
    KindSpec("parity_data", "parity", "parity",
             ("gather", "index", "payloads"),
             "H + Σ (8 + len(payload))"),
    KindSpec("parity_delta", "bucket", "parity",
             ("rank", "offset", "rid", "delta", "length"),
             "H + len(delta)"),
    KindSpec("degraded_lookup", "client", "parity",
             ("op", "client", "key", "address", "dead"), "H"),
    KindSpec("degraded_scan", "client", "parity",
             ("op", "client", "matcher", "address", "level", "dead"),
             "query size (as scan)"),
)

KNOWN_KINDS: frozenset[str] = frozenset(
    spec.kind for spec in MESSAGE_KINDS
)


def protocol_kinds_in_source() -> set[str]:
    """Every message kind the SDDS sources actually pass to ``send``.

    Walks the ASTs of every module of :mod:`repro.sdds` for ``send``
    calls with a literal kind argument (2nd positional on
    ``Node.send``-style calls, 3rd on ``network.send``), plus
    ``start_keyed`` calls — the keyed kinds (insert/lookup/delete)
    reach ``send`` through a variable.  The
    docs test asserts this equals :data:`KNOWN_KINDS`, so the table
    cannot drift from the code.
    """
    import ast
    import pathlib

    import repro.sdds

    kinds: set[str] = set()
    for path in sorted(pathlib.Path(repro.sdds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("send", "start_keyed")):
                continue
            if node.func.attr == "start_keyed":
                index = 0
            else:
                target = node.func.value
                via_network = (isinstance(target, ast.Attribute)
                               and target.attr == "network")
                index = 2 if via_network else 1
            if len(node.args) <= index:
                continue
            arg = node.args[index]
            if isinstance(arg, ast.Constant) and isinstance(
                    arg.value, str):
                kinds.add(arg.value)
    return kinds


def kind_table_markdown() -> str:
    """Render :data:`MESSAGE_KINDS` as the §11 markdown table."""
    lines = [
        "| Kind | Sender | Receiver | Payload fields | Billed size |",
        "| --- | --- | --- | --- | --- |",
    ]
    for spec in MESSAGE_KINDS:
        fields = ", ".join(f"`{name}`" for name in spec.payload)
        lines.append(
            f"| `{spec.kind}` | {spec.sender} | {spec.receiver} "
            f"| {fields} | {spec.billed} |"
        )
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI shim
    print(kind_table_markdown())


if __name__ == "__main__":  # pragma: no cover
    main()
