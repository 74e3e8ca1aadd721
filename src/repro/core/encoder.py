"""Stage 2: redundancy removal by frequency-equalising lossy encoding.

The paper (section 3): "we preprocess the symbols by placing them into
a smaller number of buckets and encode them by bucket number … we can
preprocess a representative part of the database and count the
occurrence of each chunk.  We then place these characters into
buckets, one for each encoded symbol, in order of frequency of
occurrence."

The assignment rule visible in the paper's Figure 5 is **greedy
least-loaded**: walk the chunks in decreasing frequency and put each
into the bucket with the smallest accumulated count (ties to the
lowest bucket index).  We verified the figure reproduces under this
rule symbol-for-symbol (space→0, A→1, …, S→7, T→6, …), and the unit
tests pin it.

Encoding is deliberately lossy — all chunks in a bucket become the
same code — which flattens the frequency profile the ECB leaks, at the
price of search false positives.  Tables 3, 4 and 5 of the paper
quantify exactly this trade-off and are reproduced by the benches on
top of this class.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from collections import Counter
from typing import Iterable, Sequence

from repro.core.errors import ConfigurationError


def census_chunks(
    texts: Iterable[bytes], chunk_size: int
) -> Counter:
    """Count non-overlapping offset-0 chunks, dropping partial tails.

    This is the paper's training pass: "LITWIN WITOLD" with n = 4
    becomes ("LITW", "IN W", "ITOL") — the odd tail symbol is dropped.
    """
    if chunk_size < 1:
        raise ConfigurationError("chunk size must be positive")
    counts: Counter = Counter()
    for text in texts:
        limit = len(text) - chunk_size + 1
        for start in range(0, limit, chunk_size):
            counts[text[start:start + chunk_size]] += 1
    return counts


def least_loaded_assignment(
    counts: Counter, n_codes: int
) -> dict[bytes, int]:
    """Greedy least-loaded bucket assignment (paper Figure 5).

    Chunks are processed by decreasing count (ties between chunks by
    chunk value).  Each goes into the least-loaded bucket; among
    equally loaded buckets the *most recently loaded* one wins, and
    buckets never used rank by lowest index.  This is the rule that
    reproduces the paper's Figure 5 assignment symbol-for-symbol
    (space→0 … W→7, '-'→5), as pinned by
    ``tests/core/test_encoder.py::TestFigure5``.
    """
    if n_codes < 2:
        raise ConfigurationError("need at least 2 codes")
    loads = [0] * n_codes
    last_used = [-1] * n_codes
    assignment: dict[bytes, int] = {}
    for step, (chunk, count) in enumerate(sorted(
        counts.items(), key=lambda item: (-item[1], item[0])
    )):
        bucket = min(
            range(n_codes),
            key=lambda b: (loads[b], -last_used[b], b),
        )
        assignment[chunk] = bucket
        loads[bucket] += count
        last_used[bucket] = step
    return assignment


class FrequencyEncoder:
    """A trained Stage-2 encoder: chunk -> code in ``range(n_codes)``.

    Codes pack into a fixed-width byte stream (1 byte for up to 256
    codes, 2 bytes beyond) so record streams support C-level substring
    search.  Chunks never seen in training map deterministically to a
    hash-derived bucket, keeping the encoder total.

    >>> enc = FrequencyEncoder.train([b"ABAB"], chunk_size=1, n_codes=2)
    >>> enc.encode_chunk(b"A") != enc.encode_chunk(b"B")
    True
    """

    def __init__(
        self,
        chunk_size: int,
        n_codes: int,
        assignment: dict[bytes, int],
        training_counts: Counter | None = None,
    ) -> None:
        if n_codes < 2 or n_codes > 1 << 16:
            raise ConfigurationError("codes must lie in [2, 65536]")
        for chunk, code in assignment.items():
            if len(chunk) != chunk_size:
                raise ConfigurationError(
                    f"assignment chunk {chunk!r} has wrong size"
                )
            if not 0 <= code < n_codes:
                raise ConfigurationError(f"code {code} out of range")
        self.chunk_size = chunk_size
        self.n_codes = n_codes
        self.assignment = dict(assignment)
        self.training_counts = training_counts or Counter()
        self.code_width = 1 if n_codes <= 256 else 2
        # Total chunk -> code memo: starts as the trained assignment
        # and absorbs the hash-derived codes of unseen chunks on first
        # sight, so bulk encoding is one dict probe per chunk.
        self._code_cache: dict[bytes, int] = dict(self.assignment)

    @classmethod
    def train(
        cls,
        texts: Iterable[bytes],
        chunk_size: int,
        n_codes: int,
    ) -> "FrequencyEncoder":
        counts = census_chunks(texts, chunk_size)
        if not counts:
            raise ConfigurationError("empty training corpus")
        return cls(
            chunk_size=chunk_size,
            n_codes=n_codes,
            assignment=least_loaded_assignment(counts, n_codes),
            training_counts=counts,
        )

    # -- encoding -----------------------------------------------------------

    def encode_chunk(self, chunk: bytes) -> int:
        if len(chunk) != self.chunk_size:
            raise ValueError(
                f"chunk of length {len(chunk)}, expected {self.chunk_size}"
            )
        code = self._code_cache.get(chunk)
        if code is None:
            code = self._miss_code(chunk)
        return code

    def _miss_code(self, chunk: bytes) -> int:
        """Deterministic fallback for unseen chunks, memoised."""
        digest = hashlib.blake2b(chunk, digest_size=4).digest()
        code = int.from_bytes(digest, "big") % self.n_codes
        self._code_cache[chunk] = code
        return code

    def encode_chunks(self, chunks: Sequence[bytes]) -> list[int]:
        """Bulk :meth:`encode_chunk`: one memo probe per chunk.

        Length validation happens on the miss path only — a chunk of
        the wrong size can never be in the memo, so misbehaving input
        still raises exactly like the scalar method.
        """
        cache = self._code_cache
        miss = self._miss_code
        size = self.chunk_size
        out = []
        append = out.append
        for chunk in chunks:
            code = cache.get(chunk)
            if code is None:
                if len(chunk) != size:
                    raise ValueError(
                        f"chunk of length {len(chunk)}, expected {size}"
                    )
                code = miss(chunk)
            append(code)
        return out

    def pack(self, codes: Sequence[int]) -> bytes:
        """Pack codes into the fixed-width byte stream."""
        if self.code_width == 1:
            return bytes(codes)
        packed = array("H", codes)
        if sys.byteorder == "little":
            packed.byteswap()
        return packed.tobytes()

    def encode_symbols(self, text: bytes) -> bytes:
        """Per-symbol encoding of a whole text (chunk size must be 1).

        This is the Table-4 "FP1" representation: every 8-bit symbol
        independently replaced by its bucket code.
        """
        if self.chunk_size != 1:
            raise ConfigurationError(
                "encode_symbols requires a chunk-size-1 encoder"
            )
        return self.pack(self.encode_chunks(
            [text[i:i + 1] for i in range(len(text))]
        ))

    def encode_values_nonoverlapping(
        self, text: bytes, offset: int
    ) -> list[int]:
        """Code values of the offset-o non-overlapping chunking of
        ``text``, dropping partial edge chunks — the unpacked form of
        :meth:`encode_nonoverlapping`, vectorised over the stream.
        """
        if not 0 <= offset < self.chunk_size:
            raise ConfigurationError(
                f"offset {offset} outside [0, {self.chunk_size})"
            )
        size = self.chunk_size
        return self.encode_chunks([
            text[start:start + size]
            for start in range(offset, len(text) - size + 1, size)
        ])

    def encode_values_sliding(
        self, text: bytes, step: int = 1
    ) -> list[int]:
        """Code values of every overlapping (sliding-window) chunk of
        ``text``, window start advancing by ``step`` bytes.

        Complements :meth:`encode_values_nonoverlapping`: with
        ``step=1`` the offset-``o`` non-overlapping values are exactly
        the ``[o::chunk_size]`` stride of this list, so one sliding
        pass feeds every chunking of a full layout at once (the index
        pipeline's record-build fast path).  Partial edge windows are
        dropped, like the non-overlapping form.
        """
        if step < 1:
            raise ConfigurationError("step must be positive")
        size = self.chunk_size
        return self.encode_chunks([
            text[start:start + size]
            for start in range(0, len(text) - size + 1, step)
        ])

    def encode_nonoverlapping(self, text: bytes, offset: int) -> bytes:
        """Encode the offset-o non-overlapping chunking of ``text``,
        dropping partial edge chunks (the paper's section-7 procedure).
        """
        return self.pack(self.encode_values_nonoverlapping(text, offset))

    # -- introspection -----------------------------------------------------

    def bucket_loads(self) -> list[int]:
        """Training-frequency mass per code bucket."""
        loads = [0] * self.n_codes
        for chunk, count in self.training_counts.items():
            loads[self.assignment[chunk]] += count
        return loads

    def assignment_table(self) -> list[tuple[bytes, int, int]]:
        """(chunk, training count, code), by decreasing count —
        the paper's Figure 5 layout."""
        return sorted(
            (
                (chunk, self.training_counts.get(chunk, 0), code)
                for chunk, code in self.assignment.items()
            ),
            key=lambda row: (-row[1], row[0]),
        )
