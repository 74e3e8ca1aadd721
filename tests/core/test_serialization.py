"""Round-trips of persisted scheme artifacts."""

import pytest

from repro.core import FrequencyEncoder, SchemeParameters
from repro.core.errors import ConfigurationError
from repro.core.serialization import (
    encoder_from_json,
    encoder_to_json,
    params_from_dict,
    params_to_dict,
)
from repro.extensions.compression import (
    PairCompressor,
    compressor_from_json,
    compressor_to_json,
)


class TestParams:
    @pytest.mark.parametrize(
        "params",
        [
            SchemeParameters.full(4),
            SchemeParameters.full(4, n_codes=64, dispersal=2),
            SchemeParameters.reduced(8, 4, drop_partial_chunks=True),
            SchemeParameters.full(2, encrypt=False,
                                  master_key=b"\x00\xffbinary"),
        ],
    )
    def test_roundtrip(self, params):
        assert params_from_dict(params_to_dict(params)) == params

    def test_bad_version(self):
        data = params_to_dict(SchemeParameters.full(4))
        data["version"] = 99
        with pytest.raises(ConfigurationError):
            params_from_dict(data)

    def test_dict_is_json_compatible(self):
        import json
        text = json.dumps(params_to_dict(SchemeParameters.full(4)))
        assert params_from_dict(json.loads(text)) == \
            SchemeParameters.full(4)


class TestEncoder:
    def test_roundtrip_behaviour(self, name_corpus):
        encoder = FrequencyEncoder.train(name_corpus[:300], 2, 16)
        restored = encoder_from_json(encoder_to_json(encoder))
        assert restored.chunk_size == encoder.chunk_size
        assert restored.n_codes == encoder.n_codes
        for text in name_corpus[:50]:
            assert (
                restored.encode_nonoverlapping(text, 0)
                == encoder.encode_nonoverlapping(text, 0)
            )

    def test_unseen_chunk_fallback_survives(self, name_corpus):
        encoder = FrequencyEncoder.train(name_corpus[:300], 2, 16)
        restored = encoder_from_json(encoder_to_json(encoder))
        assert restored.encode_chunk(b"\x01\x02") == \
            encoder.encode_chunk(b"\x01\x02")

    def test_training_counts_preserved(self, name_corpus):
        encoder = FrequencyEncoder.train(name_corpus[:300], 1, 8)
        restored = encoder_from_json(encoder_to_json(encoder))
        assert restored.bucket_loads() == encoder.bucket_loads()

    def test_binary_chunks_survive(self):
        encoder = FrequencyEncoder.train(
            [bytes([0, 255, 0, 255, 7, 9])], 2, 2
        )
        restored = encoder_from_json(encoder_to_json(encoder))
        assert restored.assignment == encoder.assignment


class TestPropertyRoundTrips:
    from hypothesis import given
    from hypothesis import strategies as st

    @given(
        st.sampled_from([2, 4, 8]),
        st.sampled_from([None, 16, 64, 256]),
        st.booleans(),
        st.booleans(),
        st.sampled_from(["auto", "any"]),
        st.binary(min_size=1, max_size=32),
    )
    def test_random_params_roundtrip(self, s, n_codes, encrypt,
                                     drop, aggregation, key):
        from repro.core.errors import ConfigurationError

        try:
            params = SchemeParameters.full(
                s, n_codes=n_codes, encrypt=encrypt,
                drop_partial_chunks=drop, aggregation=aggregation,
                master_key=key,
            )
        except ConfigurationError:
            return  # invalid combination; nothing to round-trip
        assert params_from_dict(params_to_dict(params)) == params


class TestCompressor:
    def test_roundtrip_behaviour(self, name_corpus):
        compressor = PairCompressor.train(name_corpus[:300],
                                          max_pairs=32)
        restored = compressor_from_json(compressor_to_json(compressor))
        for text in name_corpus[:50]:
            assert restored.encode(text) == compressor.encode(text)
            if len(text) >= 6:
                assert restored.pattern_variants(text[1:6]) == \
                    compressor.pattern_variants(text[1:6])

    def test_lossy_map_roundtrip(self, name_corpus):
        compressor = PairCompressor.train(
            name_corpus[:300], max_pairs=32, lossy_codes=16
        )
        restored = compressor_from_json(compressor_to_json(compressor))
        assert restored.lossy_map == compressor.lossy_map
        for text in name_corpus[:30]:
            assert restored.encode(text) == compressor.encode(text)
