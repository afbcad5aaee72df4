import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambiclt._exact import ExactValue, sign_affine, sqrt_exact, to_fraction


class TestToFraction:
    def test_float_reads_shortest_decimal(self):
        assert to_fraction(0.6) == Fraction(3, 5)
        assert to_fraction(0.1) == Fraction(1, 10)
        assert to_fraction(-0.25) == Fraction(-1, 4)

    def test_strings(self):
        assert to_fraction("3/10") == Fraction(3, 10)
        assert to_fraction("0.81") == Fraction(81, 100)
        assert to_fraction("1e-3") == Fraction(1, 1000)

    def test_passthrough(self):
        assert to_fraction(Fraction(7, 3)) == Fraction(7, 3)
        assert to_fraction(5) == Fraction(5)

    @pytest.mark.parametrize("text", ["abc", "", "1/0", "inf"])
    def test_malformed_strings_raise_value_error(self, text):
        with pytest.raises(ValueError, match=f"cannot read {text!r} as a number"):
            to_fraction(text)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            to_fraction(math.inf)
        with pytest.raises(ValueError):
            to_fraction(math.nan)


class TestSqrtExact:
    def test_perfect_square(self):
        assert sqrt_exact(Fraction(81, 100)) == Fraction(9, 10)
        assert sqrt_exact(Fraction(324)) == 18

    def test_irrational(self):
        assert sqrt_exact(Fraction(2)) is None
        assert sqrt_exact(Fraction(81, 10)) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_exact(Fraction(-1))


class TestSignAffine:
    # sign of a + b*sqrt(s)

    def test_exact_tie(self):
        # -3 + 1*sqrt(9) == 0
        assert sign_affine(Fraction(-3), Fraction(1), Fraction(9)) == 0
        assert sign_affine(Fraction(0), Fraction(0), Fraction(2)) == 0

    def test_same_sign_shortcuts(self):
        assert sign_affine(Fraction(1), Fraction(1), Fraction(2)) == 1
        assert sign_affine(Fraction(-1), Fraction(-1), Fraction(2)) == -1

    def test_opposite_signs(self):
        # 3 - 2*sqrt(2) > 0 since 9 > 8
        assert sign_affine(Fraction(3), Fraction(-2), Fraction(2)) == 1
        # 2 - 2*sqrt(2) < 0
        assert sign_affine(Fraction(2), Fraction(-2), Fraction(2)) == -1
        # -3 + 2*sqrt(3) > 0 since 12 > 9
        assert sign_affine(Fraction(-3), Fraction(2), Fraction(3)) == 1

    @given(
        a=st.fractions(min_value=-5, max_value=5, max_denominator=40),
        b=st.fractions(min_value=-5, max_value=5, max_denominator=40),
        s=st.fractions(min_value=Fraction(1, 10), max_value=9, max_denominator=40),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_matches_float_sign_when_clear(self, a, b, s):
        value = float(a) + float(b) * math.sqrt(float(s))
        if abs(value) > 1e-9:
            assert sign_affine(a, b, s) == (1 if value > 0 else -1)


class TestExactValue:
    def test_canonical_fold_when_root_rational(self):
        v = ExactValue.create(Fraction(1), Fraction(9), Fraction(81, 100))
        # 1 + 9/(9/10) = 11
        assert (v.u, v.w) == (Fraction(11), Fraction(0))
        assert float(v) == 11.0

    def test_no_fold_for_irrational_root(self):
        v = ExactValue.create(Fraction(1), Fraction(3), Fraction(2))
        assert (v.u, v.w) == (Fraction(1), Fraction(3))
        assert math.isclose(float(v), 1 + 3 / math.sqrt(2))

    def test_cmp_is_exact(self):
        # 0 + w/sqrt(s) vs t with w/sqrt(s) == t exactly: w=3, s=9, t=1
        v = ExactValue.create(Fraction(0), Fraction(3), Fraction(9))
        assert v.cmp(Fraction(1)) == 0
        assert v.cmp(Fraction(2)) == -1
        assert v.cmp(Fraction(1, 2)) == 1

    def test_shift_accumulates(self):
        v = ExactValue.zero(Fraction(2))
        v = v.shift(Fraction(1, 3), Fraction(1, 2))
        v = v.shift(Fraction(1, 3), Fraction(-1, 2))
        assert (v.u, v.w) == (Fraction(2, 3), Fraction(0))

    def test_states_with_equal_value_share_keys(self):
        s = Fraction(4)  # sqrt(s) = 2 rational: different (u, w) routes merge
        a = ExactValue.create(Fraction(1), Fraction(2), s)   # 1 + 1 = 2
        b = ExactValue.create(Fraction(2), Fraction(0), s)
        assert a.key() == b.key() == (Fraction(2), Fraction(0))
