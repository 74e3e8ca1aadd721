"""The repro-wide exception family.

Every layer used to raise its own ad-hoc errors — bare
``RuntimeError`` from the LH* facade, a ``RetryExhaustedError`` rooted
directly on ``RuntimeError``, a separate ``SchemeError`` tree in
:mod:`repro.core` — so a caller driving the whole stack had no single
base class to catch.  This module roots them all:

* :class:`ReproError` — base of everything the package raises on
  purpose.
* :class:`SDDSError` — faults surfaced by the SDDS layer
  (:mod:`repro.sdds`): retry budgets and unavailable buckets.

The scheme-level tree (:class:`repro.core.errors.SchemeError` and
subclasses) also derives from :class:`ReproError`, so
``except ReproError`` catches any deliberate failure of the stack
while programming errors (``KeyError``, ``TypeError``) still escape.

Errors that historically derived from ``RuntimeError`` keep it as a
secondary base so existing ``except RuntimeError`` call sites continue
to work.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every deliberate error the package raises."""


class SDDSError(ReproError):
    """Base class for SDDS-layer (LH*/LH*_RS) failures."""


class BucketUnavailableError(SDDSError, RuntimeError):
    """An operation needs a bucket that is dead and cannot be served.

    Raised when a bucket has been declared dead by the coordinator and
    the file has no parity to answer from (plain LH*), or when more
    buckets of a parity group are down than the parity count covers.
    """


class OperationPendingError(ReproError, RuntimeError):
    """A caller took the result of an operation that is not done (still
    in flight, never started or already taken): not a fault of the file,
    so not an :class:`SDDSError`."""


class UnknownNodeError(SDDSError, KeyError):
    """A network operation named a node id that is not attached.

    Raised by :meth:`repro.net.simulator.Network.send` (and the other
    topology entry points) instead of the historic bare ``KeyError``,
    so callers can catch the whole :class:`SDDSError` family.  The
    ``KeyError`` base is kept for callers that predate the typed
    hierarchy.
    """

    def __str__(self) -> str:
        # KeyError.__str__ reprs its single argument, which would wrap
        # the message in quotes; report it verbatim like the rest of
        # the family.
        return Exception.__str__(self)
