"""χ² p-values and the incomplete-gamma helper."""

import math
import random
from collections import Counter

import pytest

from repro.analysis.chisq import chi_square_p_value, chi_square_uniform
from repro.analysis.randomness import regularized_gamma_q


class TestRegularizedGamma:
    def test_boundaries(self):
        assert regularized_gamma_q(1.0, 0.0) == 1.0

    def test_exponential_special_case(self):
        # Q(1, x) = exp(-x).
        for x in (0.1, 1.0, 3.0, 10.0):
            assert regularized_gamma_q(1.0, x) == pytest.approx(
                math.exp(-x), rel=1e-9
            )

    def test_half_degree_special_case(self):
        # Q(1/2, x) = erfc(sqrt(x)).
        for x in (0.2, 1.0, 4.0):
            assert regularized_gamma_q(0.5, x) == pytest.approx(
                math.erfc(math.sqrt(x)), rel=1e-9
            )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            regularized_gamma_q(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_q(1.0, -1.0)


class TestChiSquarePValue:
    def test_uniform_data_high_p(self):
        rng = random.Random(1)
        counts = Counter(rng.randrange(16) for __ in range(16_000))
        chi = chi_square_uniform(counts, 16)
        assert chi_square_p_value(chi, 16) > 0.001

    def test_skewed_data_low_p(self):
        counts = Counter({0: 900, 1: 50, 2: 25, 3: 25})
        chi = chi_square_uniform(counts, 4)
        assert chi_square_p_value(chi, 4) < 1e-6

    def test_chi_equal_df_is_moderate(self):
        # chi^2 == df sits near the distribution's centre.
        p = chi_square_p_value(15.0, 16)
        assert 0.3 < p < 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_square_p_value(1.0, 1)
        with pytest.raises(ValueError):
            chi_square_p_value(-1.0, 4)
