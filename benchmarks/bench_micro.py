"""Component microbenchmarks (proper pytest-benchmark timing runs)."""

import random

from repro.core import Disperser, FrequencyEncoder, IndexPipeline, \
    SchemeParameters
from repro.core.search import aligned_find
from repro.crypto import AES, FeistelPRP


def test_aes_block(benchmark):
    aes = AES(bytes(range(16)))
    block = bytes(range(16))
    benchmark(aes.encrypt_block, block)


#: Pre-materialised PRP inputs: the old bench computed
#: ``next(values) % 65536`` inside the timed lambda, so iterator and
#: modulo overhead polluted the PRP measurement.
PRP_VALUES = [(i * 2654435761) % 65536 for i in range(1000)]


def test_feistel_prp_stream(benchmark):
    """The fused fast path: table-driven batch encryption."""
    prp = FeistelPRP(b"bench-key", 2 ** 16)
    prp.permutation_table()  # build outside the timed region
    benchmark(prp.encrypt_stream, PRP_VALUES)


def test_dispersion_throughput(benchmark):
    d = Disperser(k=4, piece_bits=2, seed=1)
    rng = random.Random(2)
    stream = [rng.randrange(256) for __ in range(1000)]
    benchmark(d.disperse_stream, stream)


def test_encoder_throughput(benchmark, directory):
    corpus = [e.name.encode("ascii") for e in directory.sample(500, 1)]
    encoder = FrequencyEncoder.train(corpus, 2, 32)
    benchmark(
        lambda: [encoder.encode_nonoverlapping(t, 0) for t in corpus]
    )


def test_index_pipeline_build(benchmark, directory):
    """The fused fast path (default): table-driven index build."""
    sample = directory.sample(100, seed=2)
    corpus = [e.name.encode("ascii") for e in sample]
    params = SchemeParameters.full(4, n_codes=64, dispersal=2)
    pipeline = IndexPipeline(
        params, FrequencyEncoder.train(corpus, 4, 64)
    )
    texts = [e.record_text.encode("ascii") + b"\x00" for e in sample]
    pipeline.warm()  # codec tables built outside the timed region
    benchmark(
        lambda: [pipeline.build_index_streams(t) for t in texts]
    )


def test_aligned_find_large_haystack(benchmark):
    rng = random.Random(3)
    haystack = bytes(rng.randrange(64) for __ in range(100_000))
    needle = haystack[50_000:50_006]
    positions = benchmark(aligned_find, haystack, needle, 2)
    assert 25_000 in positions
