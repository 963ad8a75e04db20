import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from elmdetect.errors import ElmDetectError
from elmdetect.significance import paired_t_test, t_cdf, wilcoxon_signed_rank

# two-sided critical values at alpha = 0.05: reject iff W <= value
WILCOXON_CRITICAL_05 = {6: 0, 7: 2, 8: 3, 9: 5, 10: 8, 11: 10, 12: 13}


def sample_from_diffs(diffs):
    """The (base, other) pair whose differences other - base are diffs."""
    return [0.0] * len(diffs), list(diffs)


class TestWilcoxon:
    def test_all_positive_ten_folds(self):
        result = wilcoxon_signed_rank(*sample_from_diffs([0.01 * (i + 1) for i in range(10)]))
        assert result["w_minus"] == 0.0
        assert result["w"] == 0.0
        assert result["n_eff"] == 10
        assert result["p_exact_two_sided"] == pytest.approx(0.001953125, abs=1e-15)
        assert result["p_one_sided"] == pytest.approx(1 / 1024, abs=1e-15)
        assert list(result) == ["w_plus", "w_minus", "w", "n_eff", "p_exact_two_sided", "p_one_sided"]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rank_sums_are_floats_when_one_side_is_empty(self, sign):
        """report.json stores 0.0, not 0, for an empty rank sum."""
        result = wilcoxon_signed_rank(*sample_from_diffs([sign * 0.1, sign * 0.2, sign * 0.3]))
        assert [type(result[key]) for key in ("w_plus", "w_minus", "w")] == [float, float, float]

    def test_sign_flip_swaps_rank_sums_keeps_p(self):
        diffs = [0.3, -0.1, 0.25, 0.07, -0.02, 0.4, 0.11]
        a = wilcoxon_signed_rank(*sample_from_diffs(diffs))
        b = wilcoxon_signed_rank(*sample_from_diffs([-d for d in diffs]))
        assert a["w_plus"] == b["w_minus"]
        assert a["w_minus"] == b["w_plus"]
        assert a["p_exact_two_sided"] == b["p_exact_two_sided"]

    def test_zero_differences_dropped(self):
        result = wilcoxon_signed_rank(*sample_from_diffs([0.0, 0.0, 0.5, -0.2, 0.3]))
        assert result["n_eff"] == 3

    def test_all_zero_differences_error(self):
        with pytest.raises(ElmDetectError, match="all paired differences are zero"):
            wilcoxon_signed_rank(*sample_from_diffs([0.0, 0.0, 0.0]))

    def test_too_few_pairs(self):
        with pytest.raises(ElmDetectError, match="need at least 2 pairs, got 1"):
            wilcoxon_signed_rank(*sample_from_diffs([1.0]))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            wilcoxon_signed_rank([1.0, 2.0], [1.0])

    def test_rescaling_invariance(self):
        diffs = [0.4, -0.2, 0.9, 0.05, -0.6, 0.33]
        a = wilcoxon_signed_rank(*sample_from_diffs(diffs))
        b = wilcoxon_signed_rank(*sample_from_diffs([37.0 * d for d in diffs]))
        assert a["p_exact_two_sided"] == b["p_exact_two_sided"]
        assert a["w"] == b["w"]

    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False).filter(lambda x: abs(x) > 1e-6),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_rank_sum_identity(self, diffs):
        result = wilcoxon_signed_rank(*sample_from_diffs(diffs))
        n = result["n_eff"]
        assert result["w_plus"] + result["w_minus"] == pytest.approx(n * (n + 1) / 2)
        assert result["w"] == min(result["w_plus"], result["w_minus"])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_rejection_matches_published_critical_values(self, n):
        """Exhaustive over all sign patterns of distinct magnitudes 1..n."""
        critical = WILCOXON_CRITICAL_05.get(n, -1)  # n <= 5: never reject
        for signs in itertools.product((1, -1), repeat=n):
            if all(s == 1 for s in signs) or all(s == -1 for s in signs):
                pass  # still a valid pattern; W = 0
            diffs = [s * m for s, m in zip(signs, range(1, n + 1))]
            result = wilcoxon_signed_rank(*sample_from_diffs(diffs))
            reject = result["p_exact_two_sided"] <= 0.05
            assert reject == (result["w"] <= critical), (
                n,
                signs,
                result["w"],
                result["p_exact_two_sided"],
            )

    def test_matches_scipy_exact_on_tie_free_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 41))
            diffs = rng.normal(size=n)
            while len(np.unique(np.abs(diffs))) != n or np.any(diffs == 0):
                diffs = rng.normal(size=n)
            mine = wilcoxon_signed_rank(*sample_from_diffs(list(diffs)))
            ref = scipy.stats.wilcoxon(diffs, alternative="two-sided", method="exact")
            assert mine["p_exact_two_sided"] == pytest.approx(ref.pvalue, abs=1e-12)

    def test_exact_with_ties_in_magnitudes(self):
        # tied |D| get average ranks; the doubled-rank enumeration stays exact
        diffs = [0.2, 0.2, -0.2, 0.5, 0.5]
        result = wilcoxon_signed_rank(*sample_from_diffs(diffs))
        assert result["w_plus"] + result["w_minus"] == pytest.approx(15.0)
        # brute force over all 2^5 sign assignments with the same ranks
        ranks = [2.0, 2.0, 2.0, 4.5, 4.5]
        observed_w_plus = 2.0 + 2.0 + 4.5 + 4.5
        count_ge = sum(
            1
            for signs in itertools.product((0, 1), repeat=5)
            if sum(r for s, r in zip(signs, ranks) if s) >= observed_w_plus
        )
        count_le = sum(
            1
            for signs in itertools.product((0, 1), repeat=5)
            if sum(r for s, r in zip(signs, ranks) if s) <= observed_w_plus
        )
        expected_two = min(1.0, 2.0 * min(count_ge / 32, count_le / 32))
        assert result["p_exact_two_sided"] == pytest.approx(expected_two, abs=1e-15)


def mpmath_t_cdf(t, df):
    import mpmath

    mpmath.mp.dps = 40
    nu = mpmath.mpf(df)
    pdf = lambda x: (
        mpmath.gamma((nu + 1) / 2)
        / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
        * (1 + x**2 / nu) ** (-(nu + 1) / 2)
    )
    return float(mpmath.quad(pdf, [-mpmath.inf, t]))


T_GRID = [-6.0, -2.5, -0.5, 0.0, 0.5, 1.0, 2.776, 6.3246, 15.0]


class TestTCdf:
    @pytest.mark.parametrize("t", T_GRID)
    @pytest.mark.parametrize("df", [1, 2, 4, 9, 30])
    def test_against_numeric_integration(self, t, df):
        assert t_cdf(t, df) == pytest.approx(mpmath_t_cdf(t, df), abs=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = float(rng.normal() * 4)
            df = int(rng.integers(1, 50))
            assert t_cdf(t, df) == pytest.approx(scipy.stats.t.cdf(t, df), abs=1e-12)

    @pytest.mark.parametrize("t", T_GRID)
    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 9, 30, 59])
    def test_within_1e15_of_the_incomplete_beta(self, t, df):
        """The series is exact up to rounding: within 1e-15 of a 50-digit
        P(T <= t) = 1 - I_x(df/2, 1/2) / 2, x = df / (df + t^2), for t >= 0."""
        import mpmath

        with mpmath.workdps(50):
            x = df / (df + mpmath.mpf(t) ** 2)
            tail = mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, x, regularized=True) / 2
            expected = float(1 - tail if t >= 0 else tail)
        assert abs(t_cdf(t, df) - expected) <= 1e-15

    @pytest.mark.parametrize("df", [0, 2.5])
    def test_rejects_df_that_is_not_a_whole_number_at_least_1(self, df):
        with pytest.raises(ValueError, match="degrees of freedom must be a whole number >= 1"):
            t_cdf(1.0, df)

    @pytest.mark.parametrize("t", [-2.5, 0.5, 6.3246])
    def test_takes_numpy_integer_df(self, t):
        assert t_cdf(t, np.int64(4)) == t_cdf(t, 4)
        assert t_cdf(t, np.int32(9)) == t_cdf(t, 9)


class TestPairedTTest:
    def test_symmetric_differences_give_half(self):
        result = paired_t_test(*sample_from_diffs([1.0, -1.0, 1.0, -1.0]))
        assert result["t"] == 0.0
        assert result["p_t_one_sided"] == pytest.approx(0.5)
        assert result["df"] == 3
        assert list(result) == ["t", "df", "p_t_one_sided"]

    def test_constant_differences_zero_variance(self):
        with pytest.raises(ElmDetectError, match="paired differences have zero variance"):
            paired_t_test(*sample_from_diffs([1.0, 1.0, 1.0, 1.0]))

    def test_known_case_against_oracle(self):
        diffs = [2.0, 1.0, 3.0, 2.0, 2.0]
        result = paired_t_test(*sample_from_diffs(diffs))
        mean = 2.0
        sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / 4)
        t_expected = mean / (sd / math.sqrt(5))
        assert result["t"] == pytest.approx(t_expected, abs=1e-12)
        assert result["df"] == 4
        assert result["p_t_one_sided"] == pytest.approx(1.0 - mpmath_t_cdf(t_expected, 4), abs=1e-10)

    def test_matches_scipy_one_sided(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            base = rng.normal(size=n)
            enhanced = base + rng.normal(loc=0.2, size=n)
            mine = paired_t_test(list(base), list(enhanced))
            ref = scipy.stats.ttest_rel(enhanced, base, alternative="greater")
            assert mine["p_t_one_sided"] == pytest.approx(ref.pvalue, abs=1e-10)
            assert mine["t"] == pytest.approx(ref.statistic, abs=1e-10)

    def test_too_few_pairs(self):
        with pytest.raises(ElmDetectError, match="need at least 2 pairs, got 1"):
            paired_t_test(*sample_from_diffs([1.0]))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            paired_t_test([1.0, 2.0], [1.0])
