"""Exception types of the encrypted-search core."""

from repro.errors import ReproError


class SchemeError(ReproError):
    """Base class for all scheme-level errors."""


class ConfigurationError(SchemeError):
    """Invalid or inconsistent scheme parameters."""


class QueryTooShortError(SchemeError):
    """The search pattern is shorter than the configuration's minimum.

    The paper, section 2.3: "our search strategy does not work for
    search strings of length less than s", and section 2.5 derives the
    stricter minima for the reduced-storage layouts.
    """
