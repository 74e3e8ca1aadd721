"""Searchable (byte-pair) compression — the paper's [M97] direction.

Section 8: "we are pursuing searchable compression as a main means of
redundancy removal.  In contrast to the work reported in [GN99] and
[M97], our task is simpler, since the compression can be (and probably
should be) lossy.  We only need very good, but not perfect precision
and 100 % recall."

This module implements a Manber-style pair encoder with exactly those
semantics:

* Symbols are partitioned into a **left set** and a **right set**;
  only pairs ``(l, r)`` with ``l ∈ L`` and ``r ∈ R`` may be merged
  into a single pair code.  Because membership is a property of the
  *individual* symbol, the segmentation of any text is decided locally
  — a scanner never needs lookahead beyond one symbol, and the same
  substring always encodes the same way **except possibly at its two
  edges** (its first symbol may have been absorbed by a preceding
  left-symbol, its last may absorb a following right-symbol).
* Searching therefore probes a small set of **edge variants** of the
  encoded pattern (drop-first / drop-last), giving 100 % recall with a
  bounded, quantifiable precision loss — the paper's stated target.
* An optional **lossy stage** merges the resulting code alphabet into
  ``n_codes`` frequency-equalised buckets via the same greedy rule as
  Stage 2, composing compression with redundancy removal.

The encoder plugs into the same byte-stream search machinery as the
rest of the core (`bytes.find` on code streams).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable

from repro.core.encoder import least_loaded_assignment
from repro.core.errors import ConfigurationError
from repro.core.serialization import _FORMAT_VERSION, _check_version


class PairCompressor:
    """A trained searchable pair encoder.

    >>> comp = PairCompressor.train([b"ANANANAN" * 3], max_pairs=4)
    >>> len(comp.encode(b"ANANANAN")) < len(b"ANANANAN")
    True
    """

    def __init__(
        self,
        left: set[int],
        right: set[int],
        pair_codes: dict[tuple[int, int], int],
        single_codes: dict[int, int],
        n_codes: int,
        lossy_map: dict[int, int] | None = None,
    ) -> None:
        if set(pair_codes.values()) & set(single_codes.values()):
            raise ConfigurationError("overlapping code assignments")
        self.left = frozenset(left)
        self.right = frozenset(right)
        self.pair_codes = dict(pair_codes)
        self.single_codes = dict(single_codes)
        self.n_codes = n_codes
        self.lossy_map = dict(lossy_map) if lossy_map else None
        self.code_width = 1 if self._output_space() <= 256 else 2

    def _output_space(self) -> int:
        if self.lossy_map is not None:
            return max(self.lossy_map.values()) + 1
        return self.n_codes

    # -- training ----------------------------------------------------------------

    @classmethod
    def train(
        cls,
        texts: Iterable[bytes],
        max_pairs: int = 64,
        min_pair_count: int = 2,
        lossy_codes: int | None = None,
    ) -> "PairCompressor":
        """Learn the L/R partition and the pair codebook.

        The partition is chosen greedily: for every symbol compare how
        much pair mass it contributes as a left element vs as a right
        element of frequent digrams, and put it on its heavier side —
        Manber's heuristic.  The ``max_pairs`` most frequent
        compatible pairs then receive codes.
        """
        texts = list(texts)
        if not texts:
            raise ConfigurationError("empty training corpus")
        singles: Counter = Counter()
        digrams: Counter = Counter()
        for text in texts:
            singles.update(text)
            for i in range(len(text) - 1):
                digrams[(text[i], text[i + 1])] += 1
        # Side scores: mass as left vs as right element.
        as_left: Counter = Counter()
        as_right: Counter = Counter()
        for (a, b), count in digrams.items():
            as_left[a] += count
            as_right[b] += count
        left = {s for s in singles if as_left[s] >= as_right[s]}
        right = set(singles) - left
        candidates = sorted(
            (
                (count, pair)
                for pair, count in digrams.items()
                if pair[0] in left and pair[1] in right
                and count >= min_pair_count
            ),
            reverse=True,
        )
        pair_codes: dict[tuple[int, int], int] = {}
        # Codes: singles first (so every symbol is always encodable),
        # then pairs.
        single_codes = {
            symbol: index for index, symbol in enumerate(sorted(singles))
        }
        next_code = len(single_codes)
        for __, pair in candidates[:max_pairs]:
            pair_codes[pair] = next_code
            next_code += 1
        lossy_map = None
        if lossy_codes is not None:
            # Build a census of emitted codes, then bucket-merge them
            # with the Stage-2 greedy rule.
            trial = cls(left, right, pair_codes, single_codes, next_code)
            code_census: Counter = Counter()
            for text in texts:
                code_census.update(trial._encode_codes(text))
            keyed = Counter(
                {code.to_bytes(2, "big"): count
                 for code, count in code_census.items()}
            )
            assignment = least_loaded_assignment(keyed, lossy_codes)
            lossy_map = {
                int.from_bytes(chunk, "big"): bucket
                for chunk, bucket in assignment.items()
            }
            # Codes never seen in training fall back deterministically.
            for code in range(next_code):
                lossy_map.setdefault(code, code % lossy_codes)
        return cls(left, right, pair_codes, single_codes, next_code,
                   lossy_map)

    # -- encoding -----------------------------------------------------------------

    def _encode_spans(self, text: bytes) -> list[tuple[int, int]]:
        """Encode to ``(code, consumed_symbols)`` pairs."""
        spans = []
        i = 0
        n = len(text)
        while i < n:
            symbol = text[i]
            if i + 1 < n:
                pair = (symbol, text[i + 1])
                code = self.pair_codes.get(pair)
                if code is not None:
                    spans.append((code, 2))
                    i += 2
                    continue
            code = self.single_codes.get(symbol)
            if code is None:
                # Unseen symbol: deterministic fallback inside the
                # single-code space.
                code = symbol % max(1, len(self.single_codes))
            spans.append((code, 1))
            i += 1
        return spans

    def _encode_codes(self, text: bytes) -> list[int]:
        return [code for code, __ in self._encode_spans(text)]

    def _pack(self, codes: list[int]) -> bytes:
        if self.lossy_map is not None:
            codes = [self.lossy_map[c] for c in codes]
        if self.code_width == 1:
            return bytes(codes)
        out = bytearray()
        for code in codes:
            out += code.to_bytes(2, "big")
        return bytes(out)

    def encode(self, text: bytes) -> bytes:
        """The stored stream for a record."""
        return self._pack(self._encode_codes(text))

    def compression_ratio(self, texts: Iterable[bytes]) -> float:
        """Output bytes per input byte over ``texts``."""
        total_in = total_out = 0
        for text in texts:
            total_in += len(text)
            total_out += len(self.encode(text))
        if total_in == 0:
            raise ConfigurationError("empty corpus")
        return total_out / total_in

    # -- searching ----------------------------------------------------------------

    def pattern_variants(self, pattern: bytes) -> list[bytes]:
        """The encoded edge variants to probe for ``pattern``.

        Segmentation is local (one symbol of context), so the interior
        of an occurrence encodes exactly as the pattern does; only the
        edges can differ:

        * **head** — if ``pattern[0]`` is a right-symbol, the record
          scanner may have absorbed it into a pair with the preceding
          record symbol.  The occurrence then continues exactly like
          ``encode(pattern[1:])``.
        * **tail** — if the scan's final code is a *single* left-symbol,
          the record scanner may instead pair it with the record symbol
          that follows the occurrence, changing that final code.  The
          variant drops the final *code* (not the final symbol — the
          pattern's own tail pair, if any, is stable).

        Probing all variants gives 100 % recall; the dropped edge
        symbols are what costs precision — the paper's stated
        lossy-compression trade-off ("very good, but not perfect
        precision and 100 % recall").
        """
        if not pattern:
            raise ConfigurationError("empty pattern")
        variants: set[bytes] = set()
        starts = [0]
        if len(pattern) > 1 and pattern[0] in self.right:
            starts.append(1)
        for start in starts:
            spans = self._encode_spans(pattern[start:])
            codes = [code for code, __ in spans]
            variants.add(self._pack(codes))
            final_code_is_single_left = (
                spans[-1][1] == 1 and pattern[-1] in self.left
            )
            if final_code_is_single_left and len(codes) > 1:
                variants.add(self._pack(codes[:-1]))
        variants.discard(b"")
        if not variants:
            raise ConfigurationError(
                f"pattern {pattern!r} too short to search under this "
                "compressor (every variant is empty)"
            )
        return sorted(variants, key=len, reverse=True)

    def search(self, encoded_record: bytes, pattern: bytes) -> bool:
        """Does ``pattern`` (plausibly) occur in the encoded record?

        100 % recall: a true occurrence always matches one variant.
        False positives arise from dropped edge symbols and (in lossy
        mode) bucket collisions.
        """
        if self.code_width == 1:
            return any(
                variant in encoded_record
                for variant in self.pattern_variants(pattern)
            )
        # Two-byte codes need aligned matching.
        from repro.core.search import aligned_find
        return any(
            aligned_find(encoded_record, variant, 2)
            for variant in self.pattern_variants(pattern)
        )

    # -- introspection -----------------------------------------------------------

    def describe(self) -> str:
        lossy = (
            f", lossy->{self._output_space()} buckets"
            if self.lossy_map is not None else ""
        )
        return (
            f"PairCompressor({len(self.single_codes)} singles, "
            f"{len(self.pair_codes)} pairs{lossy})"
        )


# ---------------------------------------------------------------------------
# persistence (the format of :mod:`repro.core.serialization`)
# ---------------------------------------------------------------------------

def compressor_to_json(compressor: PairCompressor) -> str:
    payload = {
        "version": _FORMAT_VERSION,
        "left": sorted(compressor.left),
        "right": sorted(compressor.right),
        "pair_codes": [
            [a, b, code]
            for (a, b), code in sorted(compressor.pair_codes.items())
        ],
        "single_codes": sorted(compressor.single_codes.items()),
        "n_codes": compressor.n_codes,
        "lossy_map": (
            sorted(compressor.lossy_map.items())
            if compressor.lossy_map is not None else None
        ),
    }
    return json.dumps(payload, sort_keys=True)


def compressor_from_json(text: str) -> PairCompressor:
    data = json.loads(text)
    _check_version(data)
    return PairCompressor(
        left=set(data["left"]),
        right=set(data["right"]),
        pair_codes={
            (a, b): code for a, b, code in data["pair_codes"]
        },
        single_codes=dict(
            (symbol, code) for symbol, code in data["single_codes"]
        ),
        n_codes=data["n_codes"],
        lossy_map=(
            {code: bucket for code, bucket in data["lossy_map"]}
            if data["lossy_map"] is not None else None
        ),
    )
