"""Shannon entropy estimators.

Section 6 of the paper reasons about the information content of index
records: "a letter in an English text contains between 2 and 3 bits of
information ... storing only 2 bits for each byte should be safe",
then qualifies that with Shannon's ~1-bit-per-letter result for
contextual prediction.  These estimators measure the per-symbol
entropy and redundancy of our corpora and of the scheme's encoded
streams.
"""

from __future__ import annotations

import math
from collections import Counter


def shannon_entropy(counts: Counter) -> float:
    """Entropy (bits/symbol) of the empirical distribution in ``counts``."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty census")
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def redundancy(counts: Counter, alphabet: int) -> float:
    """Relative redundancy 1 − H/log2(alphabet) in [0, 1].

    Zero for a uniform stream; the higher it is, the more traction a
    frequency analysis of ECB ciphertext has.
    """
    if alphabet < 2:
        raise ValueError("alphabet must have at least 2 symbols")
    return 1.0 - shannon_entropy(counts) / math.log2(alphabet)
