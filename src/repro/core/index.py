"""The index-record pipeline: chunk → (encode) → (ECB) → (disperse).

One :class:`IndexPipeline` instance holds the trained Stage-2 encoder,
the per-chunking Stage-1 permutations and the Stage-3 disperser, and
turns record content into the per-site index streams of the paper's
Figure 3 — and, symmetrically, turns a search pattern into the
per-(chunking, alignment, site) needle streams.

Stream representation: every stored element (a dispersed piece, or the
whole chunk value when k = 1) is packed big-endian at a fixed byte
width, so index records are plain ``bytes`` and matching is C-level
``bytes.find`` with alignment checks (see :mod:`repro.core.search`).

Two execution paths produce identical bytes, chosen by the size of
the chunk domain:

* the **fused path** — for chunk domains of at most 2^16 values, the
  per-group :class:`repro.core.kernels.FusedCodec` table collapses
  PRP + dispersion + packing into table lookups (see
  ``docs/PERFORMANCE.md``); and
* the **per-chunk path** — ``encode_chunk``/``encrypt``/``disperse``
  calls, the direct transliteration of the paper's stages, for every
  larger domain.  The equivalence suite runs both over the small
  domains and asserts byte-identical output.

Query plans are memoised per pattern in a small LRU (repeated
patterns — retried queries, batch workloads, chaos twins — skip the
per-query needle rebuild entirely; ``kernels.plan.*`` metrics count
hits).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.chunking import query_series, record_chunks
from repro.core.config import SchemeParameters
from repro.core.dispersion import Disperser
from repro.core.encoder import FrequencyEncoder
from repro.core.errors import ConfigurationError
from repro.core.kernels import FusedCodec, fused_codec
from repro.core.search import SearchPlan
from repro.crypto.feistel import FeistelPRP
from repro.crypto.keys import KeyHierarchy
from repro.obs.metrics import inc as metric_inc

#: Query plans memoised per pipeline (patterns, in bytes form).
PLAN_CACHE_CAPACITY = 256

#: Sentinel distinguishing "codec not yet built" from "no codec
#: applicable" in the per-group codec slots.
_UNBUILT = object()


class IndexPipeline:
    """Builds index streams and query needles for one configuration."""

    def __init__(
        self,
        params: SchemeParameters,
        encoder: FrequencyEncoder | None = None,
    ) -> None:
        if (params.n_codes is None) != (encoder is None):
            raise ConfigurationError(
                "encoder must be supplied exactly when n_codes is set"
            )
        if encoder is not None:
            if encoder.chunk_size != params.chunk_bytes:
                raise ConfigurationError(
                    f"encoder chunk size {encoder.chunk_size} bytes != "
                    f"scheme chunk size {params.chunk_bytes} bytes "
                    f"({params.chunk_size} symbols x "
                    f"{params.symbol_width})"
                )
            if encoder.n_codes != params.n_codes:
                raise ConfigurationError(
                    f"encoder has {encoder.n_codes} codes, scheme expects "
                    f"{params.n_codes}"
                )
        self.params = params
        self.encoder = encoder
        keys = KeyHierarchy(params.master_key)
        self._prps: list[FeistelPRP | None] = []
        for index in range(params.layout.group_count):
            if params.encrypt:
                self._prps.append(
                    FeistelPRP(keys.chunking_key(index), params.value_domain)
                )
            else:
                self._prps.append(None)
        if params.dispersal > 1:
            self.disperser: Disperser | None = Disperser(
                k=params.dispersal, piece_bits=params.piece_bits
            )
        else:
            self.disperser = None
        self._codecs: list = [_UNBUILT] * params.layout.group_count
        self._plan_cache: OrderedDict[bytes, SearchPlan] = OrderedDict()

    # -- fused fast path ----------------------------------------------------

    def codec(self, group_index: int) -> FusedCodec | None:
        """The group's fused codec, built lazily; None when the chunk
        domain is too large and the per-chunk path must run."""
        codec = self._codecs[group_index]
        if codec is _UNBUILT:
            codec = fused_codec(
                prp=self._prps[group_index],
                disperser=self.disperser,
                piece_width=self.params.piece_width,
                domain=self.params.value_domain,
            )
            self._codecs[group_index] = codec
        return codec

    def warm(self) -> None:
        """Eagerly build every group's codec (bulk-load warmup)."""
        for group_index in range(self.params.layout.group_count):
            self.codec(group_index)

    # -- chunk values ------------------------------------------------------

    def chunk_value(self, chunk: bytes) -> int:
        """Stage-2 view of one chunk: its code, or its raw packing."""
        if self.encoder is not None:
            return self.encoder.encode_chunk(chunk)
        return int.from_bytes(chunk, "big")

    def chunk_values(self, chunks: list[bytes]) -> list[int]:
        """Bulk :meth:`chunk_value` over one chunk list."""
        if self.encoder is not None:
            return self.encoder.encode_chunks(chunks)
        return [int.from_bytes(chunk, "big") for chunk in chunks]

    def _pack_values(self, values: list[int]) -> bytes:
        width = self.params.piece_width
        if width == 1:
            return bytes(values)
        out = bytearray()
        for value in values:
            out += value.to_bytes(width, "big")
        return bytes(out)

    def _site_streams(self, values: list[int]) -> list[bytes]:
        """Stage 3: one packed stream per dispersal site (k = 1 → one)."""
        if self.disperser is None:
            return [self._pack_values(values)]
        return [
            self.disperser.pack_stream(stream)
            for stream in self.disperser.disperse_stream(values)
        ]

    def _streams_from_values(
        self, values: list[int], group_index: int
    ) -> list[bytes]:
        """One chunking's per-site streams from its chunk values:
        fused when possible, reference otherwise — byte-identical
        either way."""
        codec = self.codec(group_index)
        if codec is not None:
            return codec.site_streams(values)
        prp = self._prps[group_index]
        if prp is not None:
            values = [prp.encrypt(value) for value in values]
        return self._site_streams(values)

    def _group_streams(
        self, chunks: list[bytes], group_index: int
    ) -> list[bytes]:
        """One chunking's per-site streams: fused when possible,
        reference otherwise — byte-identical either way."""
        return self._streams_from_values(
            self.chunk_values(chunks), group_index
        )

    # -- record side ----------------------------------------------------------

    def build_index_streams(
        self, content: bytes
    ) -> dict[tuple[int, int], bytes]:
        """All index streams of one record.

        Returns ``(chunking_index, site) -> packed stream``; the
        paper's Figure 3 stores each under its own key in the index
        SDDS.
        """
        layout = self.params.layout
        sliding: list[int] | None = None
        if (
            self.encoder is not None
            and layout.stride == 1
            and layout.group_count > 1
        ):
            # Full layouts store every offset's chunking: one sliding
            # pass encodes all windows once, and each chunking's full
            # chunks are a stride slice of the shared value list.
            sliding = self.encoder.encode_values_sliding(
                content, step=self.params.symbol_width
            )
        streams: dict[tuple[int, int], bytes] = {}
        for group_index, offset in enumerate(layout.offsets):
            if sliding is not None:
                values = self._sliding_group_values(
                    content, sliding, offset
                )
            else:
                chunks = record_chunks(
                    content,
                    layout.chunk_size,
                    offset,
                    drop_partial=self.params.drop_partial_chunks,
                    symbol_width=self.params.symbol_width,
                )
                values = self.chunk_values(chunks)
            for site, stream in enumerate(
                self._streams_from_values(values, group_index)
            ):
                streams[(group_index, site)] = stream
        return streams

    def _sliding_group_values(
        self, content: bytes, sliding: list[int], offset: int
    ) -> list[int]:
        """The offset-``o`` chunking's chunk values, carved out of the
        shared sliding-window value list — value-identical to encoding
        :func:`repro.core.chunking.record_chunks` output directly.

        The full interior chunks are the ``[offset::chunk_size]``
        stride of the sliding list; the padded partial head and tail
        chunks (absent under ``drop_partial_chunks``) are rebuilt and
        encoded individually, exactly as ``record_chunks`` pads them.
        """
        params = self.params
        size = params.chunk_size
        width = params.symbol_width
        chunk_bytes = size * width
        offset_bytes = offset * width
        values = sliding[offset::size]
        if params.drop_partial_chunks:
            return values
        encoder = self.encoder
        length = len(content)
        if offset:
            head = content[:offset_bytes]
            values.insert(0, encoder.encode_chunk(
                bytes(chunk_bytes - offset_bytes)
                + head
                + bytes(offset_bytes - len(head))
            ))
        if length > offset_bytes:
            remainder = (length - offset_bytes) % chunk_bytes
            if remainder:
                values.append(encoder.encode_chunk(
                    content[length - remainder:]
                    + bytes(chunk_bytes - remainder)
                ))
        return values

    # -- query side --------------------------------------------------------------

    def plan_query(self, pattern: bytes) -> SearchPlan:
        """Needle streams for every (chunking, alignment, site).

        The same series must be prepared once per stored chunking
        because each chunking encrypts under its own key.  Plans are
        memoised per pattern (LRU of :data:`PLAN_CACHE_CAPACITY`):
        repeated patterns — retries, batch workloads, benchmark
        sweeps — reuse the built needles without touching the codec.
        """
        cached = self._plan_cache.get(pattern)
        if cached is not None:
            self._plan_cache.move_to_end(pattern)
            metric_inc("kernels.plan.hit")
            return cached
        metric_inc("kernels.plan.miss")
        plan = self._build_plan(pattern)
        self._plan_cache[pattern] = plan
        while len(self._plan_cache) > PLAN_CACHE_CAPACITY:
            self._plan_cache.popitem(last=False)
        return plan

    def plan_cache_size(self) -> int:
        """Number of memoised query plans (diagnostics)."""
        return len(self._plan_cache)

    def _build_plan(self, pattern: bytes) -> SearchPlan:
        layout = self.params.layout
        width = self.params.symbol_width
        if len(pattern) % width:
            raise ConfigurationError(
                f"pattern of {len(pattern)} bytes is not a whole "
                f"number of {width}-byte symbols"
            )
        alignments = layout.query_alignments(len(pattern) // width)
        needles: dict[tuple[int, int], tuple[bytes, ...]] = {}
        for group_index in range(layout.group_count):
            for alignment in alignments:
                chunks = query_series(
                    pattern, layout.chunk_size, alignment,
                    symbol_width=width,
                )
                needles[(group_index, alignment)] = tuple(
                    self._group_streams(chunks, group_index)
                )
        if self.params.aggregation == "any":
            required = 1
        else:
            required = max(1, len(alignments) // layout.stride)
        return SearchPlan(
            pattern=pattern,
            needles=needles,
            piece_width=self.params.piece_width,
            sites=self.params.dispersal if self.disperser else 1,
            group_count=layout.group_count,
            alignments=tuple(alignments),
            required_groups=min(required, layout.group_count),
        )
