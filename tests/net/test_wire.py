"""Round-trip tests for the live transport's wire codec.

Every message kind either transport carries must survive
encode → decode byte-exactly in behaviour: equal payload values,
preserved dict order (the wire checksum is order-sensitive), and —
for matcher-bearing scans — a decoded matcher whose verdicts are
identical to the original's.
"""

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.search import (
    IndexKeyCodec,
    MultiPlanScanMatcher,
    PlanScanMatcher,
    SearchPlan,
    SiteHit,
)
from repro.extensions.compressed_index import CompressedScanMatcher
from repro.extensions.swp import SwpCipher
from repro.extensions.wordsearch import WordScanMatcher
from repro.net.faults import RetryPolicy
from repro.net.simulator import Message, wire_checksum
from repro.net.stats import NetworkStats
from repro.net.wire import (
    CHANNEL_CTRL,
    CHANNEL_DATA,
    KNOWN_KINDS,
    MESSAGE_KINDS,
    WIRE_VERSION,
    FrameDecoder,
    WireDecodeError,
    WireEncodeError,
    _registry,
    decode_frame_body,
    decode_message,
    decode_value,
    encode_frame,
    encode_message,
    encode_value,
    kind_table_markdown,
    protocol_kinds_in_source,
)
from repro.sdds.haystack import BucketHaystack
from repro.sdds.lhstar import _hit_size
from repro.sdds.records import Record
from tests.oracle import reference_match


def roundtrip(value):
    return decode_value(encode_value(value))


def bucket_hits(matcher, records, per_bucket):
    """One bucket's scan hits: the matcher's own ``match_bucket``, or
    with ``per_bucket`` false the record-at-a-time reference loop
    (``tests/oracle.py``)."""
    haystack = BucketHaystack({record.rid: record for record in records})
    if per_bucket:
        return matcher.match_bucket(haystack)
    return reference_match(matcher, haystack)


def assert_matcher_survives(matcher, records, forms=(True, False)):
    """A matcher is its needles: the decoded one must answer the same
    bucket with the same hits at the same billed size, through its own
    ``match_bucket`` and the reference loop (or the one asked for)."""
    back = roundtrip(matcher)
    assert type(back) is type(matcher)
    for per_bucket in forms:
        hits = bucket_hits(matcher, records, per_bucket)
        assert hits, "fixture must hit"
        decoded = bucket_hits(back, records, per_bucket)
        assert decoded == hits
        assert sum(map(_hit_size, decoded)) == sum(map(_hit_size, hits))
    return back


# -- generic values ----------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 512), max_value=2 ** 512),
    st.floats(allow_nan=False),
    st.text(string.printable, max_size=40),
    st.binary(max_size=60),
)

values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(
                st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
                st.text(string.ascii_letters, max_size=8),
                st.tuples(st.integers(min_value=0, max_value=99),
                          st.integers(min_value=0, max_value=99)),
            ),
            inner,
            max_size=4,
        ),
    ),
    max_leaves=20,
)


class TestValueCodec:
    @given(values)
    def test_roundtrip(self, value):
        assert roundtrip(value) == value

    @given(values)
    def test_deterministic(self, value):
        assert encode_value(value) == encode_value(value)

    def test_dict_order_preserved(self):
        forward = {"a": 1, "b": 2, "c": 3}
        backward = {"c": 3, "b": 2, "a": 1}
        assert list(roundtrip(forward)) == ["a", "b", "c"]
        assert list(roundtrip(backward)) == ["c", "b", "a"]
        assert encode_value(forward) != encode_value(backward)

    def test_tuple_list_distinguished(self):
        assert roundtrip((1, 2)) == (1, 2)
        assert roundtrip([1, 2]) == [1, 2]
        assert isinstance(roundtrip((1, 2)), tuple)
        assert isinstance(roundtrip([1, 2]), list)

    def test_set_roundtrip(self):
        assert roundtrip({1, 2, 3}) == {1, 2, 3}
        assert encode_value({3, 1, 2}) == encode_value({1, 2, 3})

    def test_memoryview_and_bytearray_encode_as_bytes(self):
        assert roundtrip(bytearray(b"xy")) == b"xy"
        assert roundtrip(memoryview(b"xy")) == b"xy"

    def test_unencodable_object_raises(self):
        with pytest.raises(WireEncodeError):
            encode_value(object())

    def test_unencodable_closure_matcher_raises(self):
        with pytest.raises(WireEncodeError):
            encode_value(lambda record: None)

    def test_truncated_rejected(self):
        data = encode_value({"key": 7, "content": b"abcdef"})
        for cut in range(1, len(data)):
            with pytest.raises(WireDecodeError):
                decode_value(data[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WireDecodeError):
            decode_value(encode_value(1) + b"x")


# -- typed protocol objects --------------------------------------------------


def sample_plan():
    return SearchPlan(
        pattern=b"NEEDLE",
        needles={(0, 0): (b"\x01\x02", b"\x03\x04"),
                 (0, 1): (b"\x01", b"\x03"),
                 (1, 0): (b"\x05\x06", b"\x07\x08"),
                 (1, 1): (b"\x05", b"\x06")},
        piece_width=1,
        sites=2,
        group_count=2,
        alignments=(0, 1),
        required_groups=2,
    )


# One bucket's worth of records per index design, each with hits for
# the matchers below.
PLAN_RECORDS = [
    Record(rid=(7 << 2) | (0 << 1) | 0, content=b"\x01\x02\x09\x01"),
    Record(rid=(7 << 2) | (1 << 1) | 1, content=b"\x07\x08"),
    Record(rid=(3 << 2) | 0, content=b"\x09\x09"),
]


class TestTypedObjects:
    def test_record(self):
        record = Record(rid=9, content=b"\x00\x01payload")
        back = roundtrip(record)
        assert back == record
        assert back.wire_size == record.wire_size

    def test_site_hit(self):
        for plan in (None, 2):
            hit = SiteHit(rid=4, group=1, site=0,
                          positions={0: [1, 5], 2: [3]}, plan=plan)
            back = roundtrip(hit)
            assert back == hit
            assert back.wire_size == hit.wire_size

    def test_version_3_site_hit_rejected(self):
        """Wire version 3 shipped a hit as four fields; the plan tag
        makes five, and a four-field tuple must not decode."""
        fields = (1, 0, 1, {0: [0]})
        with pytest.raises(WireDecodeError, match="expected 5 fields"):
            decode_value(b"O" + bytes([2]) + encode_value(fields))

    def test_index_key_codec(self):
        codec = IndexKeyCodec(site_bits=2, group_bits=3)
        back = roundtrip(codec)
        assert back == codec
        assert back((5 << 5) | (6 << 2) | 1) == (5, 6, 1)

    def test_search_plan(self):
        plan = sample_plan()
        back = roundtrip(plan)
        assert back == plan
        assert back.request_size() == plan.request_size()

    @pytest.mark.parametrize("per_bucket", [True, False])
    def test_plan_scan_matcher(self, per_bucket):
        codec = IndexKeyCodec(site_bits=1, group_bits=1)
        matcher = PlanScanMatcher(sample_plan(), codec)
        back = assert_matcher_survives(matcher, PLAN_RECORDS,
                                       forms=[per_bucket])
        assert back.plan == matcher.plan
        assert back.decode == codec

    @pytest.mark.parametrize("tagged", [True, False])
    @pytest.mark.parametrize("per_bucket", [True, False])
    def test_multi_plan_scan_matcher(self, tagged, per_bucket):
        codec = IndexKeyCodec(site_bits=1, group_bits=1)
        plans = [sample_plan()] * (2 if tagged else 1)
        matcher = MultiPlanScanMatcher(plans, codec)
        back = assert_matcher_survives(matcher, PLAN_RECORDS,
                                       forms=[per_bucket])
        assert back.plans == plans
        # Demux tags (2 billed bytes per hit) iff several plans ship.
        assert {
            hit.plan is not None
            for hit in bucket_hits(back, PLAN_RECORDS, per_bucket)
        } == {tagged}

    def test_matcher_with_foreign_decode_refuses(self):
        matcher = PlanScanMatcher(sample_plan(), lambda key: (key, 0, 0))
        with pytest.raises(WireEncodeError):
            encode_value(matcher)

    def test_registry_type_ids(self):
        """The production registry carries only the paper's scheme,
        the LH* file's own matcher and the transport's types."""
        assert sorted(type_id for type_id, _pack, _unpack
                      in _registry().values()) == [
            1, 2, 3, 4, 5, 7, 12, 13, 14]

    @pytest.mark.parametrize("value", [
        WordScanMatcher((SwpCipher(b"wire-test").trapdoor("WORLD"),)),
        CompressedScanMatcher(((b"ab", b"cd"),)),
    ], ids=lambda value: type(value).__name__)
    def test_extension_matcher_refused(self, value):
        """The §8 designs run on the simulator only: the production
        registry has no type for their matchers, so one never reaches
        a socket."""
        with pytest.raises(WireEncodeError, match=type(value).__name__):
            encode_value(value)

    @pytest.mark.parametrize("matcher", [
        PlanScanMatcher(sample_plan(), IndexKeyCodec(1, 1)),
        MultiPlanScanMatcher([sample_plan()], IndexKeyCodec(1, 1)),
    ], ids=lambda matcher: type(matcher).__name__)
    def test_version_1_matcher_fields_rejected(self, matcher):
        """Wire version 1 shipped each matcher with one more field (a
        code-path flag); such a tuple must not decode into a matcher."""
        type_id, pack, _unpack = _registry()[type(matcher)]
        fields = pack(matcher)
        body = bytes([type_id]) + encode_value(fields + (True,))
        with pytest.raises(WireDecodeError):
            decode_value(b"O" + body)
        # The same bytes without the extra field are today's encoding.
        assert b"O" + bytes([type_id]) + encode_value(fields) == (
            encode_value(matcher)
        )

    @pytest.mark.parametrize("type_id", [6, 8, 9, 10, 11, 15, 16])
    def test_retired_type_id_rejected(self, type_id):
        """Type 6 was version 1's hit-report factory; 8 the per-plan
        hit wrapper, folded into the hit's plan field in version 4;
        9-11, 15 and 16 the §8 designs' SWP trapdoor and scan
        matchers, dropped in version 3.  Each is gone, not
        reassigned."""
        with pytest.raises(WireDecodeError, match=f"type id {type_id}"):
            decode_value(b"O" + bytes([type_id]) + encode_value((True,)))

    def test_retry_policy(self):
        policy = RetryPolicy(timeout=1.5, backoff=3.0, max_retries=4,
                             jitter=0.0, seed=7)
        back = roundtrip(policy)
        assert back == policy
        assert back.delay(2) == policy.delay(2)

    def test_network_stats(self):
        stats = NetworkStats()
        stats.record("lookup", 64)
        stats.record("reply", 96)
        stats.retries = 3
        stats.crashed_drops = 1
        back = roundtrip(stats)
        assert back == stats
        assert back.diff(NetworkStats()).messages == 2

    def test_network_stats_layout_is_pinned(self):
        """Wire type 13 is a positional tuple in field order; a site
        one release older must still decode it."""
        from collections import Counter

        stats = NetworkStats(
            messages=3, bytes=200,
            by_kind=Counter({"lookup": 2, "reply": 1}),
            bytes_by_kind=Counter({"lookup": 128, "reply": 72}),
            dropped=4, duplicated=5, retries=6, crashed_drops=7,
            partitioned_drops=8, corrupted=9,
        )
        assert encode_value(stats).hex() == (
            "4f0d740000000a690103690200c8640000000273000000066c6f6f6b"
            "757069010273000000057265706c796901016400000002730000000"
            "66c6f6f6b75706902008073000000057265706c7969014869010469"
            "0105690106690107690108690109"
        )


# -- whole messages, one per protocol kind -----------------------------------

CLIENT = ("client", "F", 0)
BUCKET = ("bucket", "F", 1)
COORD = ("coordinator", "F")
PARITY = ("parity", "F", 0, 0)


def payload_for(kind: str):
    """A representative payload for each protocol kind."""
    matcher = PlanScanMatcher(
        sample_plan(), IndexKeyCodec(site_bits=1, group_bits=1)
    )
    hit = SiteHit(rid=3, group=0, site=1, positions={0: [2]})
    records = [Record(rid=1, content=b"a"), Record(rid=2, content=b"bb")]
    return {
        "insert": {"key": 7, "op": 1, "client": CLIENT,
                   "content": b"value"},
        "lookup": {"key": 7, "op": 2, "client": CLIENT},
        "delete": {"key": 7, "op": 3, "client": CLIENT},
        "reply": {"op": 2, "ok": True, "content": b"value"},
        "iam": {"address": 3, "level": 2},
        "scan": {"op": 4, "client": CLIENT, "matcher": matcher,
                 "level": 1},
        "scan_reply": {"op": 4, "address": 1, "level": 2,
                       "hits": [hit], "forwarded": [(3, 2)]},
        "overflow": {"address": 0, "delta": 1},
        "underflow": {"address": 1},
        "load": {"address": 0, "delta": 1},
        "leave": {"address": 1},
        "split": {"new_address": 2, "new_level": 2},
        "split_records": {"records": records},
        "merge": {"target": 0, "level": 1},
        "merge_records": {"records": records, "level": 1},
        "probe": {"address": 1},
        "probe_ack": {"address": 1},
        "suspect": {"address": 1, "client": CLIENT},
        "await_recovery": {"address": 1, "client": CLIENT},
        "bucket_down": {"address": 1,
                        "group_dead": {1: [1, True]}},
        "bucket_up": {"address": 1},
        "bucket_recovered": {"address": 1},
        "recover": {"address": 1, "dead": [1]},
        "recover_install": {"records": records},
        "recover_done": {"address": 1},
        "group_fetch": {"gather": 5, "offset": 0,
                        "entries": {0: 11, 1: 12}},
        "group_data": {"gather": 5, "offset": 0,
                       "entries": {0: b"abc", 1: b""}},
        "parity_fetch": {"gather": 5, "ranks": [0, 1]},
        "parity_data": {"gather": 5, "index": 1,
                        "payloads": {0: b"xyz"}},
        "parity_delta": {"rank": 0, "offset": 1, "rid": 9,
                         "delta": b"\x0f\xf0", "length": 2},
        "degraded_lookup": {"op": 6, "client": CLIENT, "key": 7,
                            "address": 1, "dead": [1]},
        "degraded_scan": {"op": 7, "client": CLIENT,
                          "matcher": matcher, "address": 1,
                          "level": 2, "dead": [1]},
    }[kind]


class TestMessageCodec:
    @pytest.mark.parametrize(
        "kind", sorted(KNOWN_KINDS),
        ids=sorted(KNOWN_KINDS),
    )
    def test_every_kind_roundtrips(self, kind):
        payload = payload_for(kind)
        message = Message(src=CLIENT, dst=BUCKET, kind=kind,
                          payload=payload, size=96, hops=1,
                          checksum=wire_checksum(kind, payload, 96))
        back = decode_message(encode_message(message))
        assert back.src == message.src
        assert back.dst == message.dst
        assert back.kind == kind
        assert back.size == message.size
        assert back.hops == message.hops
        assert back.checksum == message.checksum
        # Matchers compare by behaviour, not equality; check the rest
        # of the payload by re-computing the order-sensitive checksum.
        assert wire_checksum(kind, back.payload, back.size) \
            == message.checksum

    def test_scan_matcher_behaviour_survives(self):
        message = Message(src=CLIENT, dst=BUCKET, kind="scan",
                          payload=payload_for("scan"), size=64)
        back = decode_message(encode_message(message))
        matcher = back.payload["matcher"]
        original = message.payload["matcher"]
        haystack = BucketHaystack.from_segments([((3 << 2) | 0, b"\x01\x02")])
        assert matcher.match_bucket(haystack) == (
            original.match_bucket(haystack)
        )


# -- framing -----------------------------------------------------------------


class TestFraming:
    def test_frame_roundtrip(self):
        for channel in (CHANNEL_DATA, CHANNEL_CTRL):
            frame = encode_frame(channel, {"ctrl": "ping", "n": 1})
            assert decode_frame_body(frame[4:]) \
                == (channel, {"ctrl": "ping", "n": 1})

    def test_bad_version_rejected(self):
        frame = bytearray(encode_frame(CHANNEL_DATA, 1))
        frame[4] = WIRE_VERSION + 1
        with pytest.raises(WireDecodeError):
            decode_frame_body(bytes(frame)[4:])

    def test_version_1_frame_rejected(self):
        """Version 2 dropped the matchers' flag fields and type 6,
        version 3 the §8 types, version 4 type 8 and the four-field
        hit: a peer still speaking an older version is refused at the
        frame."""
        assert WIRE_VERSION == 4
        frame = bytearray(encode_frame(CHANNEL_DATA, 1))
        for old in (1, 2, 3):
            frame[4] = old
            with pytest.raises(WireDecodeError, match="version"):
                decode_frame_body(bytes(frame)[4:])

    def test_bad_channel_rejected(self):
        frame = bytearray(encode_frame(CHANNEL_DATA, 1))
        frame[5] = 9
        with pytest.raises(WireDecodeError):
            decode_frame_body(bytes(frame)[4:])
        with pytest.raises(WireEncodeError):
            encode_frame(9, 1)

    def test_decoder_reassembles_byte_by_byte(self):
        frames = [encode_frame(CHANNEL_CTRL, {"seq": i})
                  for i in range(3)]
        stream = b"".join(frames)
        decoder = FrameDecoder()
        seen = []
        for offset in range(len(stream)):
            decoder.feed(stream[offset:offset + 1])
            seen.extend(decoder.frames())
        assert seen == [(CHANNEL_CTRL, {"seq": i}) for i in range(3)]

    def test_decoder_handles_coalesced_reads(self):
        frames = b"".join(
            encode_frame(CHANNEL_DATA, [i, b"x" * i]) for i in range(5)
        )
        decoder = FrameDecoder()
        decoder.feed(frames)
        assert len(list(decoder.frames())) == 5

    def test_oversized_length_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(b"\xff\xff\xff\xff")
        with pytest.raises(WireDecodeError):
            list(decoder.frames())


# -- adversarial robustness --------------------------------------------------


def _representative_frame() -> bytes:
    """One frame exercising every codec layer: nested containers,
    typed objects, bytes, and big ints."""
    return encode_frame(CHANNEL_DATA, {
        "kind": "insert",
        "key": 2 ** 96 + 17,
        "record": Record(rid=7, content=b"\x00\xffpayload"),
        "policy": RetryPolicy(timeout=0.25, max_retries=3),
        "nested": [None, True, {"deep": (b"\x01\x02",)}],
    })


class TestCodecRobustness:
    """A hostile byte stream must never hang the decoder or escape as
    anything but :class:`WireDecodeError` — truncation and corruption
    are facts of life on the live transport's sockets."""

    def test_every_body_truncation_decodes_or_raises_typed(self):
        body = _representative_frame()[4:]
        for cut in range(len(body)):
            try:
                decode_frame_body(body[:cut])
            except WireDecodeError:
                continue
            pytest.fail(f"truncation at byte {cut} decoded a "
                        "partial frame as complete")

    def test_every_stream_truncation_buffers_or_raises_typed(self):
        frame = _representative_frame()
        stream = frame * 2
        for cut in range(len(stream)):
            decoder = FrameDecoder()
            decoder.feed(stream[:cut])
            try:
                seen = list(decoder.frames())
            except WireDecodeError:
                continue
            # Whole frames before the cut decode; the tail buffers.
            assert len(seen) == cut // len(frame)

    @given(st.data())
    def test_byte_flips_decode_or_raise_typed(self, data):
        body = bytearray(_representative_frame()[4:])
        flips = data.draw(st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(body) - 1),
                st.integers(min_value=1, max_value=255),
            ),
            min_size=1, max_size=8,
        ))
        for position, mask in flips:
            body[position] ^= mask
        try:
            decode_frame_body(bytes(body))
        except WireDecodeError:
            pass

    @given(st.binary(max_size=256))
    def test_arbitrary_bytes_decode_or_raise_typed(self, junk):
        try:
            decode_frame_body(junk)
        except WireDecodeError:
            pass
        decoder = FrameDecoder()
        decoder.feed(junk)
        try:
            list(decoder.frames())
        except WireDecodeError:
            pass


# -- the normative kind registry ---------------------------------------------


class TestKindRegistry:
    def test_registry_matches_source(self):
        assert protocol_kinds_in_source() == KNOWN_KINDS

    def test_no_duplicate_kinds(self):
        kinds = [spec.kind for spec in MESSAGE_KINDS]
        assert len(kinds) == len(set(kinds))

    def test_table_lists_every_kind(self):
        table = kind_table_markdown()
        for spec in MESSAGE_KINDS:
            assert f"`{spec.kind}`" in table

    def test_payload_fixtures_cover_spec_fields(self):
        # The representative payloads above must carry exactly the
        # fields §11 declares (modulo the reply's optional fields).
        for spec in MESSAGE_KINDS:
            if spec.kind == "reply":
                continue
            declared = {name.rstrip("?") for name in spec.payload}
            assert set(payload_for(spec.kind)) == declared, spec.kind
