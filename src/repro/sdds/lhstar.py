"""LH*: distributed linear hashing over the simulated network, one
module per role — :mod:`repro.sdds.bucket`, :mod:`repro.sdds.coordinator`,
:mod:`repro.sdds.client` and :mod:`repro.sdds.file` (the synchronous
facade :class:`LHStarFile`), plus :mod:`repro.sdds.protocol` for what
they share.  This module re-exports the names it held before the
split, so existing imports keep working.
"""

from repro.sdds.bucket import LHStarBucket
from repro.sdds.client import LHStarClient
from repro.sdds.coordinator import LHStarCoordinator
from repro.sdds.file import (
    DEFAULT_RETRY_POLICY,
    MERGE_THRASH_BOUND,
    FileView,
    LHStarFile,
)
from repro.sdds.protocol import (
    DEDUP_CACHE_LIMIT,
    HEADER_SIZE,
    MAX_ESCALATIONS,
    ReplyCache,
    RidScanMatcher,
    ScanMatcher,
    _hit_size,
)
