"""The paper's core contribution: encrypted, searchable index records.

Layering (bottom-up):

* :mod:`repro.core.chunking` — Stage-1 geometry (record chunkings,
  query series, storage layouts of §2.3/§2.5).
* :mod:`repro.core.encoder` — Stage-2 frequency-equalising lossy
  compression (§3, Figure 5).
* :mod:`repro.core.dispersion` — Stage-3 GF-matrix dispersion (§4).
* :mod:`repro.core.kernels` — fused codec tables: the batched
  encode→encrypt→disperse→pack fast path and its cache registry.
* :mod:`repro.core.index` — the pipeline composing the stages.
* :mod:`repro.core.search` — aligned matching + hit aggregation.
* :mod:`repro.core.scheme` — :class:`EncryptedSearchableStore`, the
  complete scheme of §5 over LH* files.
"""

from repro.core.chunking import (
    StorageLayout,
    all_query_series,
    query_series,
    record_chunks,
)
from repro.core.config import SchemeParameters
from repro.core.dispersion import Disperser
from repro.core.encoder import FrequencyEncoder, census_chunks
from repro.core.errors import (
    ConfigurationError,
    QueryTooShortError,
    SchemeError,
)
from repro.core.index import IndexPipeline
from repro.core.kernels import (
    FusedCodec,
    clear_codec_cache,
    codec_cache_size,
    fused_codec,
)
from repro.core.scheme import (
    EncryptedSearchableStore,
    SearchResult,
    StorageFootprint,
)
from repro.core.search import HitAggregator, SearchPlan, SiteHit, aligned_find

__all__ = [
    "StorageLayout",
    "record_chunks",
    "query_series",
    "all_query_series",
    "SchemeParameters",
    "FrequencyEncoder",
    "census_chunks",
    "Disperser",
    "FusedCodec",
    "fused_codec",
    "codec_cache_size",
    "clear_codec_cache",
    "IndexPipeline",
    "SearchPlan",
    "SiteHit",
    "HitAggregator",
    "aligned_find",
    "EncryptedSearchableStore",
    "SearchResult",
    "StorageFootprint",
    "SchemeError",
    "ConfigurationError",
    "QueryTooShortError",
]
