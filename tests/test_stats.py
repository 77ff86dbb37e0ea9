import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from gumbelkit.distributions import GumbelParams, sample_gumbel
from gumbelkit.rng import stream
from gumbelkit.stats import (
    SampleSummary,
    regularized_incomplete_beta,
    student_t_two_sided_p,
    summarize,
    t_test_from_summary,
    welch_t_test,
)


def series_incomplete_beta(x, a, b, dps=50):
    """High-precision series oracle: I_x(a,b) via the hypergeometric sum.

    I_x(a, b) = x**a (1-x)**b / (a B(a, b)) * sum_k ((a+b)_k / (a+1)_k) x**k,
    summed in arbitrary precision until the terms vanish.
    """
    with mpmath.workdps(dps):
        x, a, b = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(b)
        total = mpmath.mpf(1)
        term = mpmath.mpf(1)
        k = 0
        while True:
            term *= (a + b + k) / (a + 1 + k) * x
            if abs(term) < mpmath.mpf(10) ** (-dps):
                break
            total += term
            k += 1
        front = x**a * (1 - x) ** b / (a * mpmath.beta(a, b))
        return float(front * total)


class TestSummarize:
    def test_constant_samples(self):
        assert summarize([1.0, 1.0, 1.0]) == SampleSummary(n=3, mean=1.0, std=0.0)

    def test_two_samples(self):
        result = summarize([0.0, 2.0])
        assert result.mean == 1.0
        assert result.std == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            summarize([1.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="^samples must be finite$"):
            summarize([1.0, bad])
        with pytest.raises(ValueError, match="^samples must be finite$"):
            welch_t_test([1.0, 2.0, 3.0], [1.0, bad])

    def test_gumbel_std_monte_carlo(self):
        draws = sample_gumbel(GumbelParams(), stream(21, 0), size=10_000)
        assert abs(summarize(draws).std - math.pi / math.sqrt(6.0)) < 0.05


class TestIncompleteBeta:
    @pytest.mark.parametrize("a", (0.5, 1.0, 2.5, 10.0, 40.0))
    @pytest.mark.parametrize("b", (0.5, 1.0, 2.5, 10.0, 40.0))
    def test_matches_series_oracle(self, a, b):
        for x in (0.03, 0.2, 0.5, 0.8, 0.97):
            assert regularized_incomplete_beta(x, a, b) == pytest.approx(
                series_incomplete_beta(x, a, b), abs=1e-10
            )

    def test_endpoints(self):
        assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.5, 0.0, 1.0)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.1, max_value=30.0),
        st.floats(min_value=0.1, max_value=30.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_complement_identity(self, x, a, b):
        left = regularized_incomplete_beta(x, a, b)
        right = regularized_incomplete_beta(1.0 - x, b, a)
        assert left + right == pytest.approx(1.0, abs=1e-12)


class TestTTest:
    def test_identical_samples(self):
        result = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t == 0.0
        assert result.p == 1.0

    def test_shifted_samples_significant(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [11.0, 12.0, 13.0, 14.0, 15.0]
        result = welch_t_test(a, b)
        assert result.p < 0.001
        ref = sps.ttest_ind(a, b, equal_var=False)
        assert result.t == pytest.approx(ref.statistic, rel=1e-10)
        assert result.p == pytest.approx(ref.pvalue, rel=1e-10)

    def test_welch_matches_scipy_on_uneven_samples(self):
        rng = stream(33, 0)
        a = rng.normal(0.0, 1.0, size=13)
        b = rng.normal(0.4, 2.5, size=29)
        mine = welch_t_test(a, b)
        ref = sps.ttest_ind(a, b, equal_var=False)
        assert mine.t == pytest.approx(ref.statistic, rel=1e-10)
        assert mine.p == pytest.approx(ref.pvalue, rel=1e-10)

    def test_student_variant_matches_scipy(self):
        rng = stream(34, 0)
        a = rng.normal(0.0, 1.0, size=10)
        b = rng.normal(0.2, 1.0, size=14)
        mine = welch_t_test(a, b, kind="student")
        ref = sps.ttest_ind(a, b, equal_var=True)
        assert mine.t == pytest.approx(ref.statistic, rel=1e-10)
        assert mine.p == pytest.approx(ref.pvalue, rel=1e-10)

    def test_swap_negates_t_and_preserves_p(self):
        a = [1.0, 2.0, 3.5, 2.2]
        b = [2.0, 2.5, 4.0]
        fwd = welch_t_test(a, b)
        rev = welch_t_test(b, a)
        assert fwd.t == pytest.approx(-rev.t, rel=1e-12)
        assert fwd.p == pytest.approx(rev.p, rel=1e-12)
        assert fwd.dof == pytest.approx(rev.dof, rel=1e-12)

    def test_zero_variance_conventions(self):
        equal = t_test_from_summary(3, 1.0, 0.0, 3, 1.0, 0.0)
        assert equal == (0.0, 4.0, 1.0)
        apart = t_test_from_summary(3, 2.0, 0.0, 3, 1.0, 0.0)
        assert math.isinf(apart.t) and apart.t > 0
        assert apart.p == 0.0

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=20),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=20),
        st.randoms(),
    )
    @settings(max_examples=60, deadline=None)
    def test_p_in_unit_interval_and_permutation_invariant(self, a, b, rnd):
        result = welch_t_test(a, b)
        assert 0.0 <= result.p <= 1.0
        shuffled = list(a)
        rnd.shuffle(shuffled)
        again = welch_t_test(shuffled, b)
        assert again.p == pytest.approx(result.p, abs=1e-12)

    def test_p_symmetric_in_t_sign(self):
        assert student_t_two_sided_p(2.3, 7.0) == pytest.approx(student_t_two_sided_p(-2.3, 7.0), rel=1e-14)
