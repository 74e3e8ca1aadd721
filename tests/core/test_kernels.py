"""Fused-codec kernels: fast path ≡ reference path, byte for byte.

The whole value of :mod:`repro.core.kernels` rests on one invariant —
the fused tables are an *optimisation*, never a semantic change.  The
grid here sweeps (chunk bits, dispersal k, piece bits, Stage-2 on/off,
alignment-populating pattern lengths) and asserts the fused pipeline
and the per-chunk reference pipeline produce identical index streams
and identical query needles.  Cache-keying tests pin that distinct
keys, matrices and parameters never share a table.
"""

import pytest

from repro.core import (
    FrequencyEncoder,
    IndexPipeline,
    SchemeParameters,
)
from repro.core.dispersion import Disperser
from repro.core.kernels import (
    CODEC_CACHE_ENV,
    _load_codec_table,
    clear_codec_cache,
    codec_cache_size,
    fused_codec,
)
from repro.crypto.feistel import FeistelPRP
from repro.gf import GF2, identity_matrix
from repro.obs.metrics import MetricsRegistry, use_metrics
from tests.oracle import both, per_chunking_streams

TEXTS = [
    b"SCHWARZ THOMAS J 453-2234\x00",
    b"LITWIN WITOLD 123-4567\x00",
    b"AAAABBBBCCCCDDDD\x00",
    b"X\x00",
    b"MARTINEZ-GARCIA ANA 999-0000\x00",
]

PATTERNS = [b"SCHWARZ ", b"WITOLD 12", b"ABCDEFGHIJKL", b"AAAABBBB"]

# (params-factory, n_codes) covering raw/Stage-2 chunk domains of
# 6..16 bits, k in {1, 2, 4}, piece widths 1 and 2 bytes, full and
# reduced layouts.
GRID = [
    # Stage 2 on: 6-bit codes, k=1 and k=2 (translate-table path)
    (lambda: SchemeParameters.full(4, n_codes=64), 64),
    (lambda: SchemeParameters.full(4, n_codes=64, dispersal=2), 64),
    # Stage 2 on: 8-bit codes, k=4 over GF(2^2)
    (lambda: SchemeParameters.reduced(8, 4, n_codes=256, dispersal=4),
     256),
    # Stage 2 on: >256 codes -> 2-byte pieces (array packing path)
    (lambda: SchemeParameters.full(4, n_codes=1000), 1000),
    (lambda: SchemeParameters.full(4, n_codes=1000, dispersal=2), 1000),
    # Raw 8-bit and 16-bit chunks (byte-row path), with dispersal
    (lambda: SchemeParameters.full(1), None),
    (lambda: SchemeParameters.full(2), None),
    (lambda: SchemeParameters.full(2, dispersal=2), None),
    # ECB off: identity Stage 1 still fuses
    (lambda: SchemeParameters.full(4, n_codes=64, encrypt=False), 64),
    # Large raw domain: must fall back to the reference path
    (lambda: SchemeParameters.full(4), None),
]


def _pipeline(make_params, n_codes):
    params = make_params()
    encoder = (
        FrequencyEncoder.train(TEXTS, params.chunk_bytes, n_codes)
        if n_codes is not None
        else None
    )
    return IndexPipeline(params, encoder)


class TestEquivalence:
    @pytest.mark.parametrize("make_params,n_codes", GRID)
    def test_index_streams_byte_identical(self, make_params, n_codes):
        def run():
            pipeline = _pipeline(make_params, n_codes)
            return [pipeline.build_index_streams(t) for t in TEXTS]

        fused, plain = both(run)
        assert fused == plain

    @pytest.mark.parametrize("make_params,n_codes", GRID)
    def test_query_needles_byte_identical(self, make_params, n_codes):
        from repro.core.errors import QueryTooShortError

        def run():
            pipeline = _pipeline(make_params, n_codes)
            plans = {}
            for pattern in PATTERNS:
                try:
                    plan = pipeline.plan_query(pattern)
                except QueryTooShortError:
                    plans[pattern] = None
                else:
                    plans[pattern] = (plan.needles, plan.alignments,
                                      plan.required_groups)
            return plans

        fused, plain = both(run)
        assert fused == plain

    def test_sliding_build_matches_reference_for_all_lengths(self):
        """The sliding-window record-build fast path: shared one-pass
        extraction plus padded head/tail reconstruction must equal the
        per-group ``record_chunks`` reference for every content length
        and both partial-chunk policies."""
        sample = b"SCHWARZ THOMAS J 453-2234\x00"
        for drop_partial in (False, True):
            params = SchemeParameters.full(
                4, n_codes=64, drop_partial_chunks=drop_partial,
            )
            pipeline = IndexPipeline(
                params, FrequencyEncoder.train(TEXTS, 4, 64)
            )
            for length in range(len(sample)):
                text = sample[:length]
                assert (
                    pipeline.build_index_streams(text)
                    == per_chunking_streams(pipeline, text)
                ), (drop_partial, length)

    def test_fallback_for_large_domain(self):
        # 32-bit raw chunks exceed the fused bound: no codec.
        pipeline = IndexPipeline(SchemeParameters.full(4))
        assert pipeline.codec(0) is None

    def test_warm_builds_every_group(self):
        pipeline = IndexPipeline(SchemeParameters.full(2))
        pipeline.warm()
        for group in range(pipeline.params.layout.group_count):
            assert pipeline.codec(group) is not None


class TestCacheKeying:
    def setup_method(self):
        clear_codec_cache()

    def test_same_key_and_parameters_share_a_table(self):
        prp = FeistelPRP(b"key-a", 64)
        first = fused_codec(prp, None, piece_width=1, domain=64)
        second = fused_codec(
            FeistelPRP(b"key-a", 64), None, piece_width=1, domain=64
        )
        assert first is second
        assert codec_cache_size() == 1

    def test_different_keys_never_share(self):
        a = fused_codec(
            FeistelPRP(b"key-a", 64), None, piece_width=1, domain=64
        )
        b = fused_codec(
            FeistelPRP(b"key-b", 64), None, piece_width=1, domain=64
        )
        assert a is not b
        assert a.site_streams([5]) != b.site_streams([5])

    def test_different_rounds_never_share(self):
        a = fused_codec(
            FeistelPRP(b"key-a", 64, rounds=10), None, 1, 64
        )
        b = fused_codec(
            FeistelPRP(b"key-a", 64, rounds=12), None, 1, 64
        )
        assert a is not b

    def test_different_matrices_never_share(self):
        prp = FeistelPRP(b"key-a", 256)
        cauchy = Disperser(k=2, piece_bits=4)
        identity = Disperser(
            k=2, piece_bits=4, matrix=identity_matrix(GF2(4), 2)
        )
        a = fused_codec(prp, cauchy, piece_width=1, domain=256)
        b = fused_codec(prp, identity, piece_width=1, domain=256)
        assert a is not b
        assert a.site_streams([0xAB]) != b.site_streams([0xAB])

    def test_no_prp_and_prp_never_share(self):
        a = fused_codec(None, None, piece_width=1, domain=64)
        b = fused_codec(
            FeistelPRP(b"key-a", 64), None, piece_width=1, domain=64
        )
        assert a is not b

    def test_oversized_domain_returns_none(self):
        prp = FeistelPRP(b"key-a", 1 << 24)
        assert fused_codec(prp, None, 3, 1 << 24) is None

    def test_metrics_exported(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            prp = FeistelPRP(b"key-m", 64)
            fused_codec(prp, None, 1, 64)
            fused_codec(FeistelPRP(b"key-m", 64), None, 1, 64)
        assert registry.counter("kernels.codec.miss").value == 1
        assert registry.counter("kernels.codec.hit").value == 1
        assert registry.histogram(
            "kernels.codec.build_seconds"
        ).count == 1


class TestPlanCache:
    def test_repeated_pattern_reuses_plan(self):
        registry = MetricsRegistry()
        pipeline = IndexPipeline(SchemeParameters.full(2))
        with use_metrics(registry):
            first = pipeline.plan_query(b"ABCD")
            second = pipeline.plan_query(b"ABCD")
        assert first is second
        assert pipeline.plan_cache_size() == 1
        assert registry.counter("kernels.plan.miss").value == 1
        assert registry.counter("kernels.plan.hit").value == 1

    def test_distinct_patterns_get_distinct_plans(self):
        pipeline = IndexPipeline(SchemeParameters.full(2))
        assert (
            pipeline.plan_query(b"ABCD")
            is not pipeline.plan_query(b"ABCE")
        )
        assert pipeline.plan_cache_size() == 2

    def test_cache_is_bounded(self):
        from repro.core.index import PLAN_CACHE_CAPACITY

        pipeline = IndexPipeline(SchemeParameters.full(2))
        for value in range(PLAN_CACHE_CAPACITY + 16):
            pipeline.plan_query(b"AB%04d" % value)
        assert pipeline.plan_cache_size() == PLAN_CACHE_CAPACITY


class TestStoreEquivalence:
    """Scheme level: a fused store is indistinguishable on the wire."""

    def test_search_answers_and_wire_costs_identical(self):
        from repro.core import EncryptedSearchableStore

        params = SchemeParameters.full(
            4, n_codes=64, dispersal=2, master_key=b"kernel-equiv"
        )

        def run():
            encoder = FrequencyEncoder.train(TEXTS, 4, 64)
            store = EncryptedSearchableStore(
                params, encoder=encoder, bucket_capacity=8,
            )
            for rid, text in enumerate(TEXTS):
                store.put(rid, text.rstrip(b"\x00").decode("ascii"))
            index = {
                r.rid: r.content for r in store.index_file.all_records()
            }
            found = {
                pattern: (result.candidates, result.matches)
                for pattern in ("SCHWARZ ", "WITOLD 12")
                for result in [store.search(pattern)]
            }
            stats = store.network.stats
            return index, found, stats.messages, stats.bytes

        fused, plain = both(run)
        assert fused == plain


class TestDiskCache:
    """Persisted codec tables: load ≡ build, damage-tolerant."""

    def setup_method(self):
        clear_codec_cache()

    def teardown_method(self):
        clear_codec_cache()

    def test_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CODEC_CACHE_ENV, raising=False)
        fused_codec(FeistelPRP(b"key-d", 64), None, 1, 64)
        assert list(tmp_path.iterdir()) == []

    def test_roundtrip_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CODEC_CACHE_ENV, str(tmp_path))
        values = list(range(64)) * 3
        registry = MetricsRegistry()
        with use_metrics(registry):
            built = fused_codec(FeistelPRP(b"key-d", 64), None, 1, 64)
            clear_codec_cache()
            loaded = fused_codec(FeistelPRP(b"key-d", 64), None, 1, 64)
        assert built is not loaded
        assert built.site_streams(values) == loaded.site_streams(values)
        assert registry.counter("kernels.codec.disk_write").value == 1
        assert registry.counter("kernels.codec.disk_hit").value == 1
        assert registry.counter("kernels.codec.disk_miss").value == 1
        assert registry.histogram(
            "kernels.codec.build_seconds"
        ).count == 1  # the load produced no build

    def test_roundtrip_with_dispersal_and_wide_pieces(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CODEC_CACHE_ENV, str(tmp_path))
        for disperser, piece_width, domain in (
            (Disperser(k=2, piece_bits=4), 1, 256),
            (Disperser(k=2, piece_bits=8), 2, 1 << 16),
        ):
            clear_codec_cache()
            prp = FeistelPRP(b"key-w", domain)
            built = fused_codec(prp, disperser, piece_width, domain)
            clear_codec_cache()
            loaded = fused_codec(prp, disperser, piece_width, domain)
            probe = [0, 1, domain - 1, domain // 2]
            assert built.site_streams(probe) == loaded.site_streams(
                probe
            )
            assert loaded.sites == disperser.k

    def test_distinct_keys_get_distinct_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CODEC_CACHE_ENV, str(tmp_path))
        fused_codec(FeistelPRP(b"key-a", 64), None, 1, 64)
        fused_codec(FeistelPRP(b"key-b", 64), None, 1, 64)
        assert len(list(tmp_path.glob("codec-v*.bin"))) == 2

    def test_corrupt_file_rebuilds_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CODEC_CACHE_ENV, str(tmp_path))
        reference = fused_codec(FeistelPRP(b"key-c", 64), None, 1, 64)
        streams = reference.site_streams(list(range(64)))
        (path,) = tmp_path.glob("codec-v*.bin")
        path.write_bytes(path.read_bytes()[:17])
        clear_codec_cache()
        registry = MetricsRegistry()
        with use_metrics(registry):
            rebuilt = fused_codec(
                FeistelPRP(b"key-c", 64), None, 1, 64
            )
        assert rebuilt.site_streams(list(range(64))) == streams
        assert registry.counter("kernels.codec.disk_miss").value == 1
        # the rebuild rewrote a healthy file
        loadable = _load_codec_table(path, 64, 1, 1)
        assert loadable is not None

    def test_env_var_activates_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CODEC_CACHE_ENV, str(tmp_path))
        fused_codec(FeistelPRP(b"key-e", 64), None, 1, 64)
        assert len(list(tmp_path.glob("codec-v*.bin"))) == 1
