"""Stage 1 geometry: record chunkings and query chunkings.

Terminology (fixed here, used everywhere else):

* ``s`` — the chunk size in symbols.
* A **chunking with offset o** (0 <= o < s) places chunk boundaries at
  symbol indices ≡ o (mod s).  For o > 0 the first chunk is *partial*:
  the o leading symbols, left-padded with zero symbols.  The last
  chunk is partial when the remaining tail is shorter than ``s``; it
  is right-padded.  This reproduces the paper's section 2.1/2.2
  exactly: for s=4 and RC "ABCDEFGH…", offset 1 yields
  ``(000A)(BCDE)…`` — the paper's "second chunked RC".
* A **query series with alignment a** (for pattern q of length l) is
  the sequence of *complete* chunks ``q[a:a+s], q[a+s:a+2s], …`` —
  partial edge chunks are never included (section 2.3).

The storage layouts of section 2.5 keep only every ``stride``-th
offset; :class:`StorageLayout` captures the resulting geometry and its
derived quantities (number of index records per record, number of
query series, minimum query length, and which hit-aggregation rule is
sound).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError, QueryTooShortError

#: The zero (padding) symbol of the paper.
ZERO = 0


def record_chunks(
    symbols: bytes,
    chunk_size: int,
    offset: int,
    drop_partial: bool = False,
    symbol_width: int = 1,
) -> list[bytes]:
    """Chunk ``symbols`` with boundaries at indices ≡ offset (mod s).

    All quantities — chunk size, offset — are measured in *symbols*;
    ``symbol_width`` is the bytes per symbol (1 for the paper's 8-bit
    ASCII, 2 for its 16-bit Unicode).  The zero/padding symbol is
    ``symbol_width`` zero bytes.

    With ``drop_partial`` the padded edge chunks are omitted — the
    paper's counter-measure against the boundary-chunk frequency
    attack ("not storing these 'partial' chunks limits our search
    capability, but is otherwise perfectly feasible").

    >>> record_chunks(b"ABCDEFGH", 4, 1)
    [b'\\x00\\x00\\x00A', b'BCDE', b'FGH\\x00']
    """
    s = chunk_size
    w = symbol_width
    if s < 1:
        raise ConfigurationError("chunk size must be positive")
    if w < 1:
        raise ConfigurationError("symbol width must be positive")
    if not 0 <= offset < s:
        raise ConfigurationError(f"offset {offset} outside [0, {s})")
    if len(symbols) % w:
        raise ConfigurationError(
            f"content of {len(symbols)} bytes is not a whole number of "
            f"{w}-byte symbols"
        )
    sw, ow = s * w, offset * w
    chunks: list[bytes] = []
    if offset:
        if not drop_partial:
            head = symbols[:ow]
            chunks.append(
                bytes(sw - ow) + head + bytes(ow - len(head))
            )
    for start in range(ow, len(symbols), sw):
        piece = symbols[start:start + sw]
        if len(piece) < sw:
            if not drop_partial:
                chunks.append(piece + bytes(sw - len(piece)))
        else:
            chunks.append(piece)
    return chunks


def query_series(
    pattern: bytes,
    chunk_size: int,
    alignment: int,
    symbol_width: int = 1,
) -> list[bytes]:
    """The complete-chunk series of ``pattern`` at ``alignment``.

    ``chunk_size`` and ``alignment`` are in symbols; the pattern is a
    byte string of whole ``symbol_width``-byte symbols.

    Raises :class:`QueryTooShortError` when no complete chunk fits —
    the alignment contributes nothing and the caller's configuration
    should have refused the query earlier.

    >>> query_series(b"BCDEFGHIJK", 4, 3)
    [b'EFGH']
    """
    s = chunk_size
    w = symbol_width
    if not 0 <= alignment < s:
        raise ConfigurationError(f"alignment {alignment} outside [0, {s})")
    if len(pattern) % w:
        raise ConfigurationError(
            f"pattern of {len(pattern)} bytes is not a whole number of "
            f"{w}-byte symbols"
        )
    pattern_symbols = len(pattern) // w
    count = (pattern_symbols - alignment) // s
    if count < 1:
        raise QueryTooShortError(
            f"pattern of {pattern_symbols} symbols has no complete chunk "
            f"at alignment {alignment} with chunk size {s}"
        )
    sw, aw = s * w, alignment * w
    return [
        pattern[aw + k * sw: aw + (k + 1) * sw]
        for k in range(count)
    ]


def all_query_series(
    pattern: bytes, chunk_size: int, alignments: int
) -> dict[int, list[bytes]]:
    """Query series for alignments ``0 .. alignments-1``.

    All requested alignments must produce at least one complete chunk;
    the minimum pattern length for that is
    ``chunk_size + alignments - 1`` (cf. section 2.5's minima).
    """
    return {
        a: query_series(pattern, chunk_size, a) for a in range(alignments)
    }


@dataclass(frozen=True)
class StorageLayout:
    """Which chunkings are stored, and how queries must be shaped.

    * ``chunk_size`` — s.
    * ``offsets`` — the stored chunking offsets, an arithmetic
      progression 0, stride, 2·stride, … inside [0, s).
    * ``alignments`` — how many query alignments are generated
      (section 2.3 uses s; section 2.5 uses s / #offsets).
    * ``required_groups`` — how many chunking groups are guaranteed to
      report a true occurrence, hence the sound AND-threshold for
      candidate filtering (= alignments / stride).
    """

    chunk_size: int
    offsets: tuple[int, ...]
    alignments: int

    def __post_init__(self) -> None:
        s = self.chunk_size
        if s < 1:
            raise ConfigurationError("chunk size must be positive")
        if not self.offsets:
            raise ConfigurationError("at least one chunking offset needed")
        if sorted(set(self.offsets)) != list(self.offsets):
            raise ConfigurationError("offsets must be sorted and distinct")
        if any(not 0 <= o < s for o in self.offsets):
            raise ConfigurationError(f"offsets must lie in [0, {s})")
        if self.offsets[0] != 0:
            raise ConfigurationError("offsets must start at 0")
        stride = self.stride
        if [o for o in self.offsets] != list(range(0, s, stride)):
            raise ConfigurationError(
                "offsets must form an arithmetic progression covering "
                f"[0, {s}) with uniform stride; got {self.offsets}"
            )
        if not self.stride <= self.alignments <= s:
            raise ConfigurationError(
                f"alignments must lie in [{self.stride}, {s}]"
            )
        if self.alignments % self.stride:
            raise ConfigurationError(
                "alignments must be a multiple of the offset stride so "
                "every occurrence triggers the same number of groups"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def full(cls, chunk_size: int) -> "StorageLayout":
        """Section 2.3: s chunkings stored, s query series, AND rule."""
        return cls(
            chunk_size=chunk_size,
            offsets=tuple(range(chunk_size)),
            alignments=chunk_size,
        )

    @classmethod
    def reduced(cls, chunk_size: int, sites: int) -> "StorageLayout":
        """Section 2.5: ``sites`` chunkings with stride s/sites.

        Queries need only ``stride`` alignments; exactly one group
        reports each true occurrence, so candidate filtering is OR.
        """
        if sites < 1 or chunk_size % sites:
            raise ConfigurationError(
                f"number of sites {sites} must divide chunk size "
                f"{chunk_size}"
            )
        stride = chunk_size // sites
        return cls(
            chunk_size=chunk_size,
            offsets=tuple(range(0, chunk_size, stride)),
            alignments=stride,
        )

    # -- derived geometry -----------------------------------------------------

    @property
    def stride(self) -> int:
        if len(self.offsets) == 1:
            return self.chunk_size
        return self.offsets[1] - self.offsets[0]

    @property
    def group_count(self) -> int:
        """Number of stored chunkings (index records per record)."""
        return len(self.offsets)

    @property
    def required_groups(self) -> int:
        """Chunking groups guaranteed to hit on a true occurrence."""
        return self.alignments // self.stride

    @property
    def min_query_length(self) -> int:
        """Shortest supported pattern: s + stride − 1.

        An occurrence is seen only through alignments whose first chunk
        starts on a stored chunk boundary, and boundaries of the stored
        chunkings together come every ``stride`` symbols: the pattern
        must populate ``stride`` consecutive alignments, the last of
        which needs ``stride − 1`` symbols before its one complete
        chunk.  Reproduces the paper's minima: s for the full scheme
        (longer patterns simply populate more alignments), s+1 for
        4-of-8 and s+3 for 2-of-8.
        """
        return self.chunk_size + self.stride - 1

    def check_query_length(self, length: int) -> None:
        if length < self.min_query_length:
            raise QueryTooShortError(
                f"pattern length {length} below the layout minimum "
                f"{self.min_query_length} (chunk size "
                f"{self.chunk_size}, {self.group_count} chunkings, "
                f"{self.alignments} alignments)"
            )

    def query_alignments(self, length: int) -> list[int]:
        """The alignments a pattern of ``length`` actually populates."""
        self.check_query_length(length)
        return [
            a for a in range(self.alignments) if length - a >= self.chunk_size
        ]

    def chunk_origins(self, drop_partial: bool) -> tuple[int, ...]:
        """The symbol index at which stream chunk 0 of each stored
        chunking begins: its offset — or one chunk before it, when a
        padded head chunk is stored ahead of the first complete one."""
        return tuple(
            offset - self.chunk_size if offset and not drop_partial
            else offset
            for offset in self.offsets
        )

    def storage_blowup(self) -> float:
        """Index storage per record, in multiples of the record size
        (before Stage-2 compression and ignoring padding edges)."""
        return float(self.group_count)
