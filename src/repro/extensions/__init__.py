"""The paper's §8 future work, built: two more index designs.

"Song's et al. method of encrypting while allowing for word searches
should be adapted to our system", and "we are pursuing searchable
compression as a main means of redundancy removal".  Both designs run
over the same two-file LH* layout as the core scheme, on their own
simulator network; neither the core nor the live wire imports them.

* :mod:`repro.extensions.swp` — the Song-Wagner-Perrig cipher.
* :mod:`repro.extensions.wordsearch` — :class:`EncryptedWordStore`,
  SWP word search over LH*.
* :mod:`repro.extensions.compression` — :class:`PairCompressor`,
  Manber-style searchable (optionally lossy) pair compression.
* :mod:`repro.extensions.compressed_index` —
  :class:`CompressedSearchStore`, the PRP-encrypted compressed-stream
  index over LH*.
"""

from repro.extensions.compressed_index import CompressedSearchStore
from repro.extensions.compression import PairCompressor
from repro.extensions.wordsearch import EncryptedWordStore, WordSearchResult

__all__ = [
    "EncryptedWordStore",
    "WordSearchResult",
    "CompressedSearchStore",
    "PairCompressor",
]
