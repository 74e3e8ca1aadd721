"""Scheme configuration: one object that pins every parameter.

The paper leaves "the number of chunkings and the ratio of dispersion"
as "application specific parameters" (Figure 3 caption).
:class:`SchemeParameters` captures them all, validates their mutual
constraints (section 4: the dispersion degree must divide the chunk
bit width; section 2.5: minimum query lengths), and derives the
quantities the pipeline needs.

Stages are individually optional, matching the paper's staged
presentation:

* ``n_codes=None`` disables Stage 2 (no lossy compression);
* ``encrypt=False`` disables Stage 1's ECB (no paper table needs it:
  Tables 4/5 count on plaintext in :mod:`repro.bench.falsepos`);
* ``dispersal=1`` disables Stage 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.chunking import StorageLayout
from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class SchemeParameters:
    """All knobs of the encrypted-search scheme.

    ``layout`` fixes Stage-1 geometry (chunk size, stored chunkings,
    query alignments).  ``n_codes`` is the Stage-2 code-space size
    (None = off).  ``dispersal`` is the paper's k (1 = off).
    ``encrypt`` toggles the Stage-1 ECB permutation.
    ``drop_partial_chunks`` enables the section-2.1 edge
    counter-measure.
    """

    layout: StorageLayout
    n_codes: int | None = None
    dispersal: int = 1
    encrypt: bool = True
    drop_partial_chunks: bool = False
    symbol_width: int = 1
    #: "auto" — the layout's sound threshold (ALL groups for §2.3,
    #: ANY for §2.5); "any" — force the OR rule, the store-side form
    #: of the §7 FP2 count (a hit in *either* chunking), which
    #: :mod:`repro.bench.falsepos` measures without a store.
    aggregation: str = "auto"
    master_key: bytes = field(default=b"repro-master-key", repr=False)

    def __post_init__(self) -> None:
        if self.n_codes is not None and not 2 <= self.n_codes <= 1 << 16:
            raise ConfigurationError("n_codes must lie in [2, 65536]")
        if self.aggregation not in ("auto", "any"):
            raise ConfigurationError(
                "aggregation must be 'auto' or 'any'"
            )
        if self.symbol_width not in (1, 2):
            raise ConfigurationError(
                "symbol width must be 1 (8-bit ASCII) or 2 (16-bit "
                "Unicode) — the paper's two symbol types"
            )
        if self.dispersal < 1:
            raise ConfigurationError("dispersal must be >= 1")
        if not self.master_key:
            raise ConfigurationError("master key must be non-empty")
        if self.dispersal > 1:
            if self.chunk_bits % self.dispersal:
                raise ConfigurationError(
                    f"dispersal degree {self.dispersal} must divide the "
                    f"chunk width of {self.chunk_bits} bits (paper §4: "
                    "'k has to be a divisor of c')"
                )
            if self.piece_bits > 16:
                raise ConfigurationError(
                    f"dispersed pieces of {self.piece_bits} bits exceed "
                    "the supported GF(2^16); increase the dispersal "
                    "degree or enable Stage-2 compression"
                )

    # -- convenience constructors -----------------------------------------------

    @classmethod
    def full(cls, chunk_size: int, **kwargs) -> "SchemeParameters":
        """Section-2.3 layout: all s chunkings stored."""
        return cls(layout=StorageLayout.full(chunk_size), **kwargs)

    @classmethod
    def reduced(
        cls, chunk_size: int, sites: int, **kwargs
    ) -> "SchemeParameters":
        """Section-2.5 layout: ``sites`` chunkings, stride s/sites."""
        return cls(
            layout=StorageLayout.reduced(chunk_size, sites), **kwargs
        )

    # -- derived quantities -----------------------------------------------------

    @property
    def chunk_size(self) -> int:
        return self.layout.chunk_size

    @property
    def chunk_bytes(self) -> int:
        """Bytes per chunk of record content (symbols x width)."""
        return self.chunk_size * self.symbol_width

    @property
    def chunk_bits(self) -> int:
        """Bit width of a chunk value entering Stage 1/3.

        Raw chunks carry 8·width bits per symbol; Stage-2 output
        carries ceil(log2(n_codes)) bits per chunk.
        """
        if self.n_codes is None:
            return 8 * self.chunk_bytes
        return max(1, (self.n_codes - 1).bit_length())

    @property
    def piece_bits(self) -> int:
        """Bits per dispersed piece (= chunk_bits when k == 1)."""
        return self.chunk_bits // self.dispersal

    @property
    def piece_width(self) -> int:
        """Packed bytes per stored stream element."""
        return (self.piece_bits + 7) // 8

    @property
    def value_domain(self) -> int:
        """Size of the chunk-value space the Stage-1 PRP permutes."""
        return 1 << self.chunk_bits

    @property
    def index_sites_per_record(self) -> int:
        """The paper's Figure-3 count: chunkings × dispersal sites."""
        return self.layout.group_count * self.dispersal

    @property
    def min_query_length(self) -> int:
        return self.layout.min_query_length

    def describe(self) -> str:
        """One-line human summary for logs and benches."""
        stage2 = (
            f"{self.n_codes} codes" if self.n_codes is not None else "off"
        )
        return (
            f"s={self.chunk_size}, chunkings={self.layout.group_count}, "
            f"alignments={self.layout.alignments}, stage2={stage2}, "
            f"ecb={'on' if self.encrypt else 'off'}, k={self.dispersal}, "
            f"min-query={self.min_query_length}"
        )
