"""Scalable Distributed Data Structures (SDDS).

The substrate the paper stores everything in: LH* (Litwin, Neimat,
Schneider, ACM TODS 1996) and its high-availability variant LH*_RS
(Litwin, Moussa, Schwarz, ACM TODS 2005), both running on the
deterministic network simulator of :mod:`repro.net`.

Highlights:

* **LH\\*** — linear hashing distributed over buckets-as-nodes.  Clients
  keep a possibly stale *image* ``(i', n')`` of the file state, address
  buckets without any central directory, and converge through Image
  Adjustment Messages.  A misdirected key reaches the right bucket in
  at most two forwarding hops, whatever the staleness (the LNS96
  guarantee; pinned by property tests).
* **Parallel scan** — content queries are shipped to every bucket in
  one round using the deterministic-termination forwarding rule; the
  client detects completion by covering the address space (sum of
  2^-level over responders reaching 1).
* **LH\\*_RS** — buckets are organised in groups of ``m``; ``k`` parity
  buckets per group hold Reed-Solomon parity (over GF(2^8), Cauchy
  generator) of same-rank records, allowing recovery of up to ``k``
  unavailable buckets per group.

The encrypted-search layer (:mod:`repro.core`) stores its record-store
and index records in these files exactly as the paper prescribes
("a standard SDDS such as LH* or its high-availability version LH*_RS
is used to store index records and the records themselves").
"""

from repro.errors import BucketUnavailableError, SDDSError
from repro.net.faults import RetryExhaustedError, RetryPolicy
from repro.sdds.hashing import client_address, forward_address, image_adjust
from repro.sdds.lhstar import DEFAULT_RETRY_POLICY, LHStarClient, LHStarFile
from repro.sdds.lhstar_rs import LHStarRSFile
from repro.sdds.records import Record

__all__ = [
    "Record",
    "client_address",
    "forward_address",
    "image_adjust",
    "LHStarFile",
    "LHStarClient",
    "LHStarRSFile",
    "RetryPolicy",
    "RetryExhaustedError",
    "SDDSError",
    "BucketUnavailableError",
    "DEFAULT_RETRY_POLICY",
]
