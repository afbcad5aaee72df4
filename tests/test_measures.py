from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiclt.measures import (
    BadParameters,
    DegenerateSigma,
    DiscreteMeasure,
    MeasureError,
    MeasureSet,
    SupportMismatch,
    VarianceAmbiguous,
    coin_example,
    measure_set_from_text,
    validate_measure_set,
)

VALUES = (1, -1, 0)


def two_law_set():
    return MeasureSet(
        (
            DiscreteMeasure(VALUES, ("0.6", "0.3", "0.1")),
            DiscreteMeasure(VALUES, ("0.3", "0.6", "0.1")),
        )
    )


class TestDiscreteMeasure:
    def test_moments(self):
        law = DiscreteMeasure(VALUES, ("0.6", "0.3", "0.1"))
        assert law.mean() == Fraction(3, 10)
        assert law.variance() == Fraction(81, 100)

    def test_prob_sum_checked(self):
        with pytest.raises(MeasureError):
            DiscreteMeasure(VALUES, ("0.6", "0.3", "0.2"))

    def test_prob_sum_must_be_exactly_one(self):
        with pytest.raises(MeasureError):
            DiscreteMeasure((1, -1), ("0.4999999999995", "0.5"))

    def test_negative_prob_rejected(self):
        with pytest.raises(MeasureError):
            DiscreteMeasure((1, -1), ("1.2", "-0.2"))

    def test_length_mismatch(self):
        with pytest.raises(MeasureError):
            DiscreteMeasure((1, -1), ("0.5", "0.3", "0.2"))


class TestValidateMeasureSet:
    def test_coin_pair(self):
        iv = validate_measure_set(two_law_set())
        assert (float(iv.mu_lower), float(iv.mu_upper)) == (-0.3, 0.3)
        assert float(iv.sigma) == 0.9
        assert iv.sigma_sq == Fraction(81, 100)

    def test_singleton_fair_coin(self):
        L = MeasureSet((DiscreteMeasure((1, -1), ("0.5", "0.5")),))
        iv = validate_measure_set(L)
        assert (float(iv.mu_lower), float(iv.mu_upper), float(iv.sigma)) == (0, 0, 1)

    def test_variance_mismatch_rejected(self):
        # second law has variance 0.80 against 0.81
        L = MeasureSet(
            (
                DiscreteMeasure(VALUES, ("0.6", "0.3", "0.1")),
                DiscreteMeasure(VALUES, ("0.4", "0.4", "0.2")),
            )
        )
        # a set that fails keeps no answer: every call raises
        for _ in range(2):
            with pytest.raises(VarianceAmbiguous):
                validate_measure_set(L)

    def test_variance_mismatch_below_1e9_rejected(self):
        # variances 81/100 and 8100000001/10000000000: a tolerance of 1e-9
        # let this pair through, with sigma^2 set by whichever law came first
        L = MeasureSet(
            (
                DiscreteMeasure(VALUES, ("0.6", "0.3", "0.1")),
                DiscreteMeasure(VALUES, ("0.30000000005", "0.60000000005", "0.0999999999")),
            )
        )
        with pytest.raises(VarianceAmbiguous):
            validate_measure_set(L)

    def test_degenerate_sigma(self):
        L = MeasureSet((DiscreteMeasure((2,), ("1",)),))
        with pytest.raises(DegenerateSigma):
            validate_measure_set(L)

    def test_equal_sets_give_equal_intervals(self):
        L, same = two_law_set(), two_law_set()
        first = validate_measure_set(L)
        assert validate_measure_set(L) is first
        assert validate_measure_set(same) == first

    def test_validation_leaves_equality_and_hashing(self):
        checked, fresh = two_law_set(), two_law_set()
        before = hash(checked)
        validate_measure_set(checked)
        assert hash(checked) == before == hash(fresh)
        assert checked == fresh and fresh == checked
        assert repr(checked) == repr(fresh)
        assert {checked: 1}[fresh] == 1
        assert checked == coin_example("3/5", "3/10") != coin_example("0.55", "0.25")

    def test_means_lie_in_interval(self):
        L = two_law_set()
        iv = validate_measure_set(L)
        for law in L.laws:
            assert iv.mu_lower <= law.mean() <= iv.mu_upper


class TestMeasureSetStructure:
    def test_support_values_must_match(self):
        with pytest.raises(SupportMismatch):
            MeasureSet(
                (
                    DiscreteMeasure((1, -1), ("0.5", "0.5")),
                    DiscreteMeasure((2, -2), ("0.5", "0.5")),
                )
            )

    def test_zero_patterns_must_match(self):
        with pytest.raises(SupportMismatch):
            MeasureSet(
                (
                    DiscreteMeasure(VALUES, ("0.5", "0.5", "0")),
                    DiscreteMeasure(VALUES, ("0.3", "0.6", "0.1")),
                )
            )

    def test_shared_zero_pattern_allowed(self):
        # both laws kill the third outcome: still mutually equivalent
        L = coin_example("0.7", "0.3")
        assert validate_measure_set(L).sigma_sq == Fraction(21, 25)


class TestCoinExample:
    def test_parametrization(self):
        L = coin_example(0.6, 0.3)
        assert L.values == (1, -1, 0)
        assert [law.probs for law in L.laws] == [
            (Fraction(3, 5), Fraction(3, 10), Fraction(1, 10)),
            (Fraction(3, 10), Fraction(3, 5), Fraction(1, 10)),
        ]
        iv = validate_measure_set(L)
        assert iv.kappa == 0.3
        assert iv.sigma_sq == Fraction(81, 100)

    def test_ordering_enforced(self):
        with pytest.raises(BadParameters):
            coin_example(0.5, 0.5)
        with pytest.raises(BadParameters):
            coin_example(0.3, 0.6)
        with pytest.raises(BadParameters):
            coin_example(0.8, 0.3)

    def test_direct_arithmetic_case(self):
        iv = validate_measure_set(coin_example(0.5, 0.25))
        assert iv.kappa == 0.25
        assert iv.sigma_sq == Fraction(11, 16)  # 0.6875

    @given(
        p=st.fractions(min_value=Fraction(1, 5), max_value=Fraction(3, 5), max_denominator=30),
        gap=st.fractions(min_value=Fraction(1, 30), max_value=Fraction(1, 5), max_denominator=30),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_variance_law_independent(self, p, gap):
        q = p - gap
        if q <= 0 or p + q > 1:
            return
        L = coin_example(p, q)
        # analytically identical variances: exactly equal as Fractions
        iv = validate_measure_set(L)
        assert iv.sigma_sq == p + q - (p - q) ** 2


class TestShiftProperty:
    @given(t=st.fractions(min_value=-3, max_value=3, max_denominator=20))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_translation_moves_means_only(self, t):
        L = two_law_set()
        iv = validate_measure_set(L)
        shifted = validate_measure_set(L.shifted(t))
        assert shifted.mu_lower == iv.mu_lower + t
        assert shifted.mu_upper == iv.mu_upper + t
        assert shifted.sigma_sq == iv.sigma_sq


class TestTextConfig:
    def test_parse_decimals_and_ratios(self):
        text = """
        # favorable / unfavorable coin
        law: 1:0.6  -1:0.3  0:1/10
        1:3/10 -1:3/5 0:0.1
        """
        L = measure_set_from_text(text)
        assert L == two_law_set()

    def test_bad_token(self):
        with pytest.raises(MeasureError):
            measure_set_from_text("1 0.6")

    def test_empty_config(self):
        with pytest.raises(MeasureError):
            measure_set_from_text("# nothing here\n")
