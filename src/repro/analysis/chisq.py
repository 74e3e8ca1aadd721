"""χ² against the uniform distribution.

The paper's central randomness statistic: for a census of N n-grams
over a category space of size C, the statistic is

    χ² = Σ_categories (O_c − N/C)² / (N/C)

summed over *all* C categories (absent categories contribute
(N/C)² / (N/C) = N/C each).  A perfectly uniform stream scores ≈ C−1;
the raw directory scores in the millions (paper Table 1).

The category-space convention (DESIGN.md §5): for raw text we take the
observed alphabet; for encoded streams the full code space ``2**t``
(n-grams: its n-fold product).  The paper leaves this implicit; the
convention is pinned here and exercised by the tests, and the *shape*
of all reproduced tables is insensitive to it because the encoded
streams the scheme cares about populate their whole code space.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.analysis.ngrams import ngram_counts


def chi_square_uniform(counts: Counter, categories: int) -> float:
    """χ² of ``counts`` against uniform over ``categories`` cells.

    ``categories`` must be at least the number of distinct observed
    keys; zero-count cells are accounted analytically rather than
    enumerated (the paper's chunk-size-6 sweep has 2^24 cells).
    """
    observed_cells = len(counts)
    if categories < observed_cells:
        raise ValueError(
            f"category space {categories} smaller than the "
            f"{observed_cells} observed categories"
        )
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty census")
    expected = total / categories
    chi = sum((count - expected) ** 2 for count in counts.values()) / expected
    chi += (categories - observed_cells) * expected
    return chi


def chi_square_p_value(chi: float, categories: int) -> float:
    """P(X² >= chi) under H0: uniform, with ``categories - 1`` degrees
    of freedom.

    The paper reports raw χ² values; the p-value expresses the same
    content on a fixed [0, 1] scale (≈ 0 means "definitely not
    uniform", the regime all of the paper's Tables 1-3 live in).
    """
    from repro.analysis.randomness import regularized_gamma_q

    if categories < 2:
        raise ValueError("need at least 2 categories")
    if chi < 0:
        raise ValueError("chi-square statistic cannot be negative")
    df = categories - 1
    return regularized_gamma_q(df / 2, chi / 2)


def ngram_chi_square(
    sequences: Iterable[Sequence],
    n: int,
    symbol_space: int | None = None,
) -> tuple[float, Counter]:
    """Census ``sequences`` for n-grams and compute χ².

    With ``symbol_space`` given, the category space is
    ``symbol_space ** n`` (encoded streams over a known code space);
    otherwise the observed *unigram* alphabet is derived from the data
    and its n-th power used (raw text).  Returns ``(chi², census)``.
    """
    if symbol_space is None:
        materialised = list(sequences)
        counts = ngram_counts(materialised, n)
        alphabet = len(ngram_counts(materialised, 1)) if n > 1 else len(counts)
        categories = alphabet ** n
    else:
        counts = ngram_counts(sequences, n)
        categories = symbol_space ** n
    return chi_square_uniform(counts, categories), counts
