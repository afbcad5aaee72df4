import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ambiclt import worst_case
from ambiclt._exact import ExactValue
from ambiclt.measures import DiscreteMeasure, MeasureSet, coin_example, validate_measure_set
from ambiclt.statistics import (LAW_MEAN, VARIANT_M, VARIANT_TILDE, SwitchRule, increment,
                                statistic_trace)
from ambiclt.terminal import TerminalFunction
from ambiclt.worst_case import (
    VARIANTS,
    DriftPolicy,
    StateExplosion,
    band_probability_sup,
    builtin_policies,
    convergence_report,
    dp_lattice,
    enumerate_worst_case,
    inf_dp_special_tilde,
    mc_policy_value,
    product_model_value,
    simulate_statistic_values,
    sup_dp_clt,
    sup_dp_deviation,
    sup_dp_lln,
    sup_dp_scaled,
    sup_dp_special,
)

COIN = coin_example("3/5", "3/10")
IV = validate_measure_set(COIN)
RULE = SwitchRule(0.0, IV)
BOX = TerminalFunction.indicator(-1, 1)
# three laws of variance 81/100 with means -1/5, 1/10 and 2/5: the mean
# interval's midpoint 1/10 enters every switching threshold
THREE = MeasureSet(
    COIN.laws + (DiscreteMeasure((1, -1, 0), ("0.405", "0.405", "0.19")),)
).shifted("1/10")


def singleton():
    return MeasureSet((DiscreteMeasure((1, -1, 0), ("0.45", "0.45", "0.1")),))


def three_point_law(values, mean, variance):
    """The law on three distinct values with the given mean and variance:
    p_i = E[prod_{j != i} (X - x_j)] / prod_{j != i} (x_i - x_j)."""
    values = [Fraction(v) for v in values]
    mean, second = Fraction(mean), Fraction(variance) + Fraction(mean) ** 2
    probs = []
    for i, xi in enumerate(values):
        a, b = (x for j, x in enumerate(values) if j != i)
        probs.append((second - (a + b) * mean + a * b) / ((xi - a) * (xi - b)))
    return DiscreteMeasure(tuple(values), tuple(probs))


class TestSmallOracle:
    # full equivalence over n <= 6 is an acceptance criterion; spot checks here

    def test_one_step_hand_value(self):
        phi = TerminalFunction.indicator("-1/2", "1/2")
        assert sup_dp_clt(COIN, phi, 1, value_mode="exact") == Fraction(1, 10)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("variant", ["clt", "special"])
    def test_tree_horizon_must_be_positive(self, variant, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            enumerate_worst_case(COIN, BOX, n, variant, rule=RULE)

    @pytest.mark.parametrize("variant", ["clt", "deviation", "lln"])
    def test_dp_equals_tree(self, variant):
        from ambiclt.worst_case import _dp_value

        for n in (2, 3):
            dp = _dp_value(COIN, BOX, n, variant, value_mode="exact")
            assert dp == enumerate_worst_case(COIN, BOX, n, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_dp_equals_tree_with_an_off_center_interval(self, variant):
        from ambiclt.worst_case import _dp_value

        rule = SwitchRule(0.0, validate_measure_set(THREE))
        kw = {
            "scaled": dict(alpha="1/2", beta=2),
            "special": dict(rule=rule),
            "tilde": dict(rule=rule, minimize=True),
        }.get(variant, {})
        for n in range(1, 5):
            dp = _dp_value(THREE, BOX, n, variant, value_mode="exact", **kw)
            assert dp == enumerate_worst_case(THREE, BOX, n, variant, **kw)

    def test_switching_variants_equal_tree(self):
        for n in (2, 3):
            assert sup_dp_special(COIN, BOX, n, RULE, value_mode="exact") == \
                enumerate_worst_case(COIN, BOX, n, "special", rule=RULE)
            assert inf_dp_special_tilde(COIN, BOX, n, RULE, value_mode="exact") == \
                enumerate_worst_case(COIN, BOX, n, "tilde", rule=RULE, minimize=True)

    def test_inf_is_one_minus_sup_of_the_complement(self):
        # best case of the box equals one minus the worst case of its
        # complement over the same switching statistic
        from fractions import Fraction as F

        from ambiclt._exact import ExactValue
        from ambiclt.worst_case import _dp_value

        n = 6
        scale = F(n) * IV.sigma_sq

        def complement(u, w):
            return 1 - BOX.evaluate_exact(ExactValue(u, w, scale))

        sup_comp = _dp_value(COIN, None, n, "tilde", rule=RULE,
                             terminal=complement, minimize=False)
        inf_box = inf_dp_special_tilde(COIN, BOX, n, RULE, value_mode="float")
        assert sup_comp + inf_box == pytest.approx(1.0, abs=1e-12)


def _variant_kwargs(variant, rule):
    return {
        "scaled": dict(alpha="1/2", beta=2),
        "special": dict(rule=rule),
        "tilde": dict(rule=rule, minimize=True),
    }.get(variant, {})


def _path_value(L, variant, n, rule, outcomes, laws):
    """Exact statistic at the end of one path: outcome and law index per step,
    the center being the law's mean or the switching rule's choice."""
    inc = increment(variant, "1/2", 2)
    s = n * validate_measure_set(L).variance_exact()
    M = ExactValue.zero(s)
    for m, (i, j) in enumerate(zip(outcomes, laws), start=1):
        if inc.switching:
            center = rule.mean(M, rule.threshold_exact(m, n), inc.tilde)
        else:
            center = inc.law_centers(L.means())[j]
        M = M.shift(*inc.exact(L.values[i], center, n))
    return M


def _rational(draw, lo, hi, den):
    return Fraction(draw(st.integers(lo, hi)), draw(st.integers(1, den)))


@st.composite
def _coin(draw):
    den = draw(st.integers(3, 12))
    q = draw(st.integers(1, (den - 1) // 2))
    p = draw(st.integers(q + 1, den - q))
    L = coin_example(Fraction(p, den), Fraction(q, den))
    if draw(st.booleans()):
        L = L.shifted(_rational(draw, -6, 6, 6))
    return L


@st.composite
def _uneven_pair(draw):
    """Two laws of one variance on three values with unequal, non-unit gaps,
    the means a little either side of a reference law's."""
    low = _rational(draw, -12, 0, 7)
    gaps = [_rational(draw, 1, 9, 7) for _ in range(2)]
    values = draw(st.permutations([low, low + gaps[0], low + sum(gaps)]))
    weights = [draw(st.integers(1, 5)) for _ in values]
    ref = DiscreteMeasure(values, [Fraction(w, sum(weights)) for w in weights])
    shift = min(gaps) * draw(st.integers(1, 4)) / 40
    laws = [three_point_law(values, ref.mean() + d, ref.variance()) for d in (shift, -shift)]
    assume(all(p > 0 for law in laws for p in law.probs))
    return MeasureSet(tuple(laws))


@st.composite
def _dp_cases(draw, variant):
    coin = draw(st.booleans())
    L = draw(_coin() if coin else _uneven_pair())
    # the oracle's tree has 6**n leaves when the two laws center apart, and
    # uneven gaps merge few of them
    n = draw(st.integers(1, 4 + coin if increment(variant).centering == LAW_MEAN else 6))
    center = draw(st.sampled_from([0.0, math.inf, -math.inf, None]))
    if center is None:
        center = draw(st.integers(-20, 20)) / 20
    rule = SwitchRule(center, validate_measure_set(L))
    # endpoints: j/10, and a reachable terminal value when that is rational
    outcomes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    laws = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    value = _path_value(L, variant, n, rule, outcomes, laws)
    ends = [Fraction(draw(st.integers(-15, 15)), 10)]
    ends.append(value.u if value.w == 0 else Fraction(draw(st.integers(-15, 15)), 10))
    lo, hi = min(ends), max(ends)
    if lo == hi:
        hi += Fraction(1, 2)
    return L, n, rule, TerminalFunction.indicator(lo, hi)


class TestLatticeAgainstEnumeration:
    @pytest.mark.parametrize("variant", VARIANTS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_random_coins_endpoints_and_centers(self, variant, data):
        from ambiclt.worst_case import _dp_value

        L, n, rule, phi = data.draw(_dp_cases(variant))
        kw = _variant_kwargs(variant, rule)
        tree = enumerate_worst_case(L, phi, n, variant, **kw)
        assert _dp_value(L, phi, n, variant, value_mode="exact", **kw) == tree
        got = _dp_value(L, phi, n, variant, value_mode="float", **kw)
        assert got == pytest.approx(float(tree), abs=1e-12)

    @pytest.mark.parametrize("variant", ["special", "tilde", "lln"])
    def test_ties_at_a_rational_root_horizon(self, variant):
        # n*sigma^2 = 9*81/100 has the rational root 27/10, so every statistic
        # value is rational and states sit exactly on thresholds and endpoints
        n = 9
        kw = _variant_kwargs(variant, RULE)
        lattice = dp_lattice(COIN, BOX, n, variant, value_mode="exact", **kw)
        assert lattice.value == enumerate_worst_case(COIN, BOX, n, variant, **kw)
        assert lattice.exact_tests > 0


class TestSharedExpectation:
    """A backward step forms each group's expectation once, over every column
    of layer m, and each cell reads its center's column from it; a switching
    rule picks that column by the row's side of the column's split.  These
    cases take each branch of that step, against the enumeration oracle."""

    ONE_SIDED = (TerminalFunction.left(0), TerminalFunction.right("1/3"))
    # three laws of variance 81/100 with means -3/10, -1/5 and 3/10: their
    # centers sit at column offsets 0, 1 and 6, so columns land with gaps
    UNEVEN = MeasureSet(tuple(three_point_law((-1, 0, 1), mean, "81/100")
                              for mean in ("-3/10", "-1/5", "3/10")))

    # one indicator endpoint joins the thresholds in one split pass; the
    # fine unit's outcome sums have gaps, so its rows land through index arrays
    @pytest.mark.parametrize("center", [0.0, 0.17, math.inf, -math.inf])
    @pytest.mark.parametrize("variant", ["special", "tilde"])
    @pytest.mark.parametrize("L", [COIN, coin_example("3/5", "2/5"), "fine"],
                             ids=["coin", "two-outcome", "fine"])
    def test_switching_centers_and_one_sided_indicators(self, L, variant, center):
        from ambiclt.worst_case import _dp_value

        if L == "fine":
            L = TestFineLatticeUnit.fine()
        kw = _variant_kwargs(variant, SwitchRule(center, validate_measure_set(L)))
        for phi in (*self.ONE_SIDED, BOX):
            for n in range(1, 7):
                tree = enumerate_worst_case(L, phi, n, variant, **kw)
                assert _dp_value(L, phi, n, variant, value_mode="exact", **kw) == tree, (phi, n)

    @pytest.mark.parametrize("variant", ["clt", "scaled", "deviation"])
    def test_law_centers_landing_with_gaps(self, variant):
        from ambiclt.worst_case import _dp_value, _Lattice, _route

        kw = _variant_kwargs(variant, None)
        grid = _Lattice(_route(self.UNEVEN, variant, 4, None, "1/2", 2), 4, 10**6, False)
        assert isinstance(grid.landing(2, 1, 0), np.ndarray)
        for phi in (*self.ONE_SIDED, BOX):
            for n in range(1, 5):
                tree = enumerate_worst_case(self.UNEVEN, phi, n, variant, **kw)
                assert _dp_value(self.UNEVEN, phi, n, variant, value_mode="exact", **kw) == tree

    def test_exact_tests_of_a_two_endpoint_switching_case(self):
        # seven cells lie near a threshold or an endpoint, whether the
        # thresholds and the endpoints are located in one pass or in two
        for variant in ("special", "tilde"):
            lattice = dp_lattice(COIN, BOX, 9, variant, value_mode="exact",
                                 **_variant_kwargs(variant, RULE))
            assert lattice.exact_tests == 7


class TestFineLatticeUnit:
    # outcome values -1, 1/1000, 1: a lattice unit of 1/1000 against a range
    # of 2, but only a few hundred distinct outcome sums per layer
    @staticmethod
    def fine(middle="1/1000"):
        return MeasureSet(tuple(
            three_point_law((-1, middle, 1), mean, "81/100") for mean in ("3/10", "-3/10")
        ))

    FINE = fine()

    def test_layers_follow_the_reachable_sums(self):
        rule = SwitchRule(0.0, validate_measure_set(self.FINE))
        # a dense grid over the unit would need 6.4M cells at n = 40
        value = sup_dp_special(self.FINE, BOX, 40, rule, value_mode="float",
                               max_states=200_000)
        assert 0 < value < 1
        # 41*42/2 outcome sums times 41 center sums, for two layers
        with pytest.raises(StateExplosion):
            sup_dp_special(self.FINE, BOX, 40, rule, max_states=2 * 861 * 41)

    # a unit of 10**-18 takes the offsets past the int64 guard: Python ints
    @pytest.mark.parametrize("middle", ["1/1000", "1/1000000000000000000"])
    def test_exact_equals_enumeration(self, middle):
        from ambiclt.worst_case import _dp_value

        L = self.fine(middle)
        rule = SwitchRule(0.0, validate_measure_set(L))
        for variant, kw in (("special", dict(rule=rule)), ("clt", {})):
            tree = enumerate_worst_case(L, BOX, 4, variant, **kw)
            assert _dp_value(L, BOX, 4, variant, value_mode="exact", **kw) == tree

    @pytest.mark.parametrize("middle", ["1/1000", "1/1000000000000000000"])
    def test_product_model_equals_the_exact_convolution(self, middle):
        # gapped outcome sums: the product model's steps gather rows
        L = self.fine(middle)
        for n in range(1, 7):
            exact = dict_product_model_value(L, BOX, n, "clt", exact=True)
            assert repr(product_model_value(L, BOX, n, "clt")) == repr(float(exact)), n


class TestWideDenominator:
    """Exact numerators are int64 while D**(steps - m + 1) fits in it, then
    Python ints: with D = 1000 the switch comes after 6 layers, with
    D = 10**7 after 2, so these horizons cross it."""

    @staticmethod
    def wide(variance):
        return MeasureSet(tuple(
            three_point_law((-1, 0, 1), mean, variance) for mean in ("3/10", "-3/10")
        ))

    D3 = wide("0.812")  # probabilities 0.601, 0.098, 0.301: D = 1000
    D7 = wide("0.8100002")  # 0.6000001, 0.0999998, 0.3000001: D = 10**7

    def test_the_switch_layers(self):
        from ambiclt.worst_case import _exact_dtype, _route

        assert [_route(L, "clt", 1, None, 1, 1).D for L in (self.D3, self.D7)] == [1000, 10**7]
        assert [_exact_dtype(1000, k) for k in (6, 7)] == [np.int64, object]
        assert [_exact_dtype(10**7, k) for k in (2, 3)] == [np.int64, object]

    @pytest.mark.parametrize("minimize", [False, True], ids=["sup", "inf"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_against_the_oracle(self, variant, minimize):
        from ambiclt.worst_case import _dp_value

        # two laws of two centers branch six ways a step: n = 7 only for
        # the one-center variants
        cases = [(self.D7, n) for n in range(1, 5)]
        if variant in ("special", "tilde", "lln"):
            cases.append((self.D3, 7))
        for L, n in cases:
            kw = dict(_variant_kwargs(variant, SwitchRule(0.0, validate_measure_set(L))),
                      minimize=minimize)
            tree = enumerate_worst_case(L, BOX, n, variant, **kw)
            got = _dp_value(L, BOX, n, variant, value_mode="exact", **kw)
            assert got == tree, (n, L is self.D3)

    @pytest.mark.parametrize("variant", ["clt", "lln"])
    def test_product_model_against_the_exact_convolution(self, variant):
        # a distribution after m steps is over D**m: Python ints from m = 3
        for n in range(1, 6):
            exact = dict_product_model_value(self.D7, BOX, n, variant, exact=True)
            assert repr(product_model_value(self.D7, BOX, n, variant)) == repr(float(exact)), n


class TestTerminalLayer:
    SMOOTH = TerminalFunction.smoothed_indicator(-1, 1, 0.05)

    @staticmethod
    def grid(L, variant, n):
        from ambiclt.worst_case import _Lattice, _route

        rule = SwitchRule(0.0, validate_measure_set(L))
        return _Lattice(_route(L, variant, n, rule, "1/2", 2), n, 10**6, False)

    # n = 9 on the coin has the rational root 27/10 (w folds into u); the
    # 10**-18 unit takes the numerators past 2**53, into Python ints
    @pytest.mark.parametrize("L, n, int64", [
        (COIN, 9, True), (COIN, 8, True), (COIN.shifted("1/10"), 7, True),
        (THREE, 6, True), (TestFineLatticeUnit.fine(), 5, True),
        (TestFineLatticeUnit.fine("1/1000000000000000000"), 3, False),
    ])
    @pytest.mark.parametrize("variant", ["clt", "scaled", "deviation", "special", "lln"])
    def test_statistic_is_the_float_of_each_exact_cell(self, L, n, int64, variant):
        from ambiclt.worst_case import _terminal_layer

        grid = self.grid(L, variant, n)
        assert (grid.ux.denominator < 2**53) == int64
        for m in range(n + 1):
            cells = list(np.ndindex(grid.shape(m)))
            x = grid.statistic(m)
            assert repr([float(x[c]) for c in cells]) == repr(
                [float(grid.state(m, *c)) for c in cells])
        _, layer = _terminal_layer(grid, self.SMOOTH, n)
        assert repr([float(layer[c]) for c in cells]) == repr(
            [self.SMOOTH(float(grid.state(n, *c))) for c in cells])


class TestExactSign:
    """The lattice's integer sign test against ExactValue.cmp, on every cell."""

    @staticmethod
    def thresholds(grid, m, rule, n):
        """The rule's thresholds, +/-1, and the least, a middle and the
        greatest rational statistic value of layer m, an exact tie for some
        cell."""
        rational = sorted({state.u for state in (grid.state(m, *c)
                                                 for c in np.ndindex(grid.shape(m)))
                           if state.w == 0})
        picks = rational[::max(1, len(rational) // 2)] + rational[-1:]
        return sorted({Fraction(1), Fraction(-1), *rule._thresholds(n)[0], *picks})

    # the coin at n = 16 has sqrt(n*sigma^2) = 18/5, rational; at n = 15 it
    # is irrational; the 10**-18 unit takes the test into Python ints
    @pytest.mark.parametrize("L, n, python_ints", [
        (COIN, 16, False), (COIN, 15, False), (COIN.shifted("1/10"), 7, False),
        (THREE, 6, False), (TestFineLatticeUnit.fine("1/1000000000000000000"), 4, True),
    ])
    @pytest.mark.parametrize("variant", ["special", "tilde", "scaled"])
    def test_sign_is_the_exact_comparison(self, L, n, python_ints, variant):
        from ambiclt.worst_case import _Lattice, _route

        rule = SwitchRule(0.0, validate_measure_set(L))
        grid = _Lattice(_route(L, variant, n, rule, "1/2", 2), n, 10**6, False)
        ties = 0
        for m in range(n + 1):
            cells = list(np.ndindex(grid.shape(m)))
            a = np.array([grid.rows[m][i] for i, _ in cells])
            b = np.array([grid.cols[m][j] for _, j in cells])
            for t in self.thresholds(grid, m, rule, n):
                sign = grid.sign(m, a, b, t.numerator, t.denominator)
                assert (sign.dtype == object) == python_ints
                want = [grid.state(m, *c).cmp(t) for c in cells]
                assert [int(x) for x in sign] == want, (m, t)
                ties += want.count(0)
        assert ties > 0


def stepwise_lattice(moves, steps):
    """Each layer's sorted offsets on one axis, one step at a time, and where
    each move lands the previous layer's offsets: a list of positions."""
    layers, lands = [[0]], [None]
    for _ in range(steps):
        prev = layers[-1]
        layer = sorted({a + d for a in prev for d in moves})
        where = {a: i for i, a in enumerate(layer)}
        layers.append(layer)
        lands.append({d: [where[a + d] for a in prev] for d in moves})
    return layers, lands


def stepwise_held(rows, cols, row_lands, col_lands, keep_layers):
    """For each step, the cells and stored offsets that the lattice counts
    against ``max_states`` by then: a layer with a gapped axis stores its
    gapped offsets and every landing that is not a contiguous run."""
    def run(layer):
        return layer == list(range(len(layer)))

    def gathered(lands):
        return sum(len(p) for p in lands.values() if p != list(range(p[0], p[0] + len(p))))

    totals, offsets, cells, size = [], 0, 1, 1
    for m in range(1, len(rows)):
        if not (run(rows[m]) and run(cols[m])):
            offsets += sum(len(layer) for layer in (rows[m], cols[m]) if not run(layer))
            offsets += gathered(row_lands[m]) + gathered(col_lands[m])
        prev, size = size, len(rows[m]) * len(cols[m])
        cells = cells + size if keep_layers else size + prev
        totals.append(offsets + cells)
    return totals


class TestBlockedStep:
    """A backward step sums a layer in row blocks of about _BLOCK_CELLS
    cells; blocks of 1 and 7 cells split every step of these horizons, and
    each cell's sum is formed in the same order in any blocking."""

    @staticmethod
    def values(L):
        """Exact values of every variant at n <= 6, and the reprs of float
        special, tilde, clt and lln at n = 40."""
        from ambiclt.worst_case import _dp_value

        rule = SwitchRule(0.0, validate_measure_set(L))
        runs = [(variant, n, "exact") for variant in VARIANTS for n in range(1, 7)]
        runs += [(variant, 40, "float") for variant in ("special", "tilde", "clt", "lln")]
        return [repr(_dp_value(L, BOX, n, variant, value_mode=mode,
                               **_variant_kwargs(variant, rule)))
                for variant, n, mode in runs]

    @pytest.mark.parametrize("L", [COIN, TestFineLatticeUnit.FINE, TestSharedExpectation.UNEVEN,
                                   TestWideDenominator.D7],
                             ids=["coin", "fine", "uneven", "wide"])
    def test_blocks_leave_the_values_unchanged(self, monkeypatch, L):
        want = self.values(L)
        for cells in (1, 7):
            monkeypatch.setattr(worst_case, "_BLOCK_CELLS", cells)
            assert self.values(L) == want, cells


class TestSplits:
    """``_Lattice.splits`` against a cell-by-cell exact count, and the
    lattice's offsets against a step-by-step reference."""

    TINY = TestFineLatticeUnit.fine("1/1000000000000000000")
    # outcome offsets 0, 1, 3 and 4: the rows have a gap after one step and
    # none after two
    CLOSING = MeasureSet(tuple(DiscreteMeasure((-1, "-1/2", "1/2", 1), probs) for probs in (
        ("1/10", "1/5", "3/10", "2/5"), ("2/5", "3/10", "1/5", "1/10"))))
    # (set, variant, horizon): the 1/1000 unit has gapped rows, the uneven
    # means gapped columns, and the 10**-18 unit Python-int offsets
    CASES = [(COIN, "special", 9), (COIN.shifted("1/10"), "tilde", 7),
             (TestFineLatticeUnit.fine(), "special", 5),
             (TestSharedExpectation.UNEVEN, "clt", 4), (TINY, "special", 4),
             (CLOSING, "special", 6)]
    IDS = ["coin", "shifted", "fine", "uneven", "tiny", "closing"]

    @staticmethod
    def route(L, variant, n):
        from ambiclt.worst_case import _route

        rule = SwitchRule(0.0, validate_measure_set(L)) if variant in ("special", "tilde") else None
        return _route(L, variant, n, rule, 1, 1)

    def grid(self, L, variant, n):
        from ambiclt.worst_case import _Lattice

        return _Lattice(self.route(L, variant, n), n, 10**6, False)

    @staticmethod
    def entries(grid, n):
        """(layer, t_exact) over every layer: values far outside the layer,
        two off the lattice, and the least, a middle and the greatest
        rational statistic value of the layer, on a lattice point."""
        out = []
        for m in range(n + 1):
            rational = sorted({s.u for s in (grid.state(m, *c) for c in np.ndindex(grid.shape(m)))
                               if s.w == 0})
            picks = rational[::max(1, len(rational) // 2)] + rational[-1:]
            for t in sorted({Fraction(-10), Fraction(-2, 7), Fraction(1, 3), Fraction(10), *picks}):
                out.append((m, t))
        return out

    @staticmethod
    def reference(grid, entries, inclusive):
        """The count below (at or below) t in each column, by ExactValue.cmp,
        and the cells whose float statistic lies within the filter's margin
        of t."""
        from ambiclt._exact import FILTER_MARGIN

        (k0, ka, kb), (g0, ga, gb) = grid._coef, grid._mag
        counts, near = [], 0
        for m, t in entries:
            tf = float(t)
            column = []
            for j, b in enumerate(grid.cols[m]):
                signs = [grid.state(m, i, j).cmp(t) for i in range(len(grid.rows[m]))]
                below = [s < 0 or (inclusive and s == 0) for s in signs]
                assert below == sorted(below, reverse=True)  # a prefix of the column
                column.append(sum(below))
                for a in grid.rows[m]:
                    a, bf = float(a), float(b)
                    value = float(m) * k0 + a * ka + bf * kb
                    bound = float(m) * g0 + a * ga + bf * gb + abs(tf)
                    near += abs(value - tf) <= FILTER_MARGIN * bound
            counts.append(column)
        return counts, near

    @pytest.mark.parametrize("chunk", [None, 3, 1])
    @pytest.mark.parametrize("inclusive", [False, True])
    @pytest.mark.parametrize("L, variant, n", CASES, ids=IDS)
    def test_counts_and_exact_tests_match_each_cell(self, L, variant, n, inclusive, chunk,
                                                    monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(worst_case, "_SPLIT_COLUMNS", chunk)
        grid = self.grid(L, variant, n)
        python_ints = isinstance(grid.rows[n], np.ndarray) and grid.rows[n].dtype == object
        assert python_ints == (L is self.TINY)
        entries = self.entries(grid, n)
        want, near = self.reference(grid, entries, inclusive)
        layers, ts = zip(*entries)
        got = grid.splits(layers, [float(t) for t in ts], ts, [inclusive] * len(entries))
        assert [list(map(int, c)) for c in got] == want
        assert grid.exact_tests == near > 0

    @pytest.mark.parametrize("keep_layers", [False, True])
    @pytest.mark.parametrize("L, variant, n", CASES + [(COIN, "clt", 6)], ids=IDS + ["coin-clt"])
    def test_offsets_landings_and_budget_match_the_steps(self, L, variant, n, keep_layers):
        from ambiclt.worst_case import _Lattice

        grid = self.grid(L, variant, n)
        rows, row_lands = stepwise_lattice(grid.dx, n)
        cols, col_lands = stepwise_lattice(sorted(set(grid.dc.values())), n)
        for m in range(n + 1):
            assert [int(a) for a in grid.rows[m]] == rows[m]
            assert [int(b) for b in grid.cols[m]] == cols[m]
            assert isinstance(grid.rows[m], range) == (rows[m] == list(range(len(rows[m]))))
            assert isinstance(grid.cols[m], range) == (cols[m] == list(range(len(cols[m]))))
            if m:
                for axis, layers, lands in ((0, rows, row_lands), (1, cols, col_lands)):
                    for d, want in lands[m].items():
                        got = np.arange(len(layers[m]))[grid.landing(m, axis, d)]
                        assert got.tolist() == want, (m, axis, d)
                        half = len(want) // 2
                        got = np.arange(len(layers[m]))[grid.landing(m, axis, d, half)]
                        assert got.tolist() == want[half:], (m, axis, d)
        if L is self.CLOSING:
            assert isinstance(grid.rows[2], range) and not isinstance(grid.rows[1], range)
        totals = stepwise_held(rows, cols, row_lands, col_lands, keep_layers)
        route = self.route(L, variant, n)
        _Lattice(route, n, totals[-1], keep_layers)
        for budget in {totals[0] - 1, totals[n // 2] - 1, totals[-1] - 1}:
            step = next(m for m, total in enumerate(totals, 1) if total > budget)
            with pytest.raises(StateExplosion, match=f"by step {step} of {n}$"):
                _Lattice(route, n, budget, keep_layers)


def run_route(route, variant="clt", n=3, rule=None, paths=10):
    """Call one of the four routes on the coin with the box payoff."""
    if route == "dp":
        return worst_case._dp_value(COIN, BOX, n, variant, rule=rule)
    if route == "oracle":
        return enumerate_worst_case(COIN, BOX, n, variant, rule=rule)
    if route == "product":
        return product_model_value(COIN, BOX, n, variant)
    return simulate_statistic_values(COIN, DriftPolicy.constant(0), variant, n, paths, 1,
                                     rule=rule)


ROUTES = ("dp", "oracle", "product", "mc")
RULED_ROUTES = ("dp", "oracle", "mc")
# a rule built on another measure set's mean interval
OTHER_RULE = SwitchRule(0.0, validate_measure_set(THREE))
# (case, the routes it applies to, arguments, the ValueError's message)
BAD_INPUTS = [
    ("unknown-variant", ROUTES, {"variant": "bogus"}, "unknown variant 'bogus'"),
    ("zero-horizon", ROUTES, {"n": 0}, "n must be at least 1"),
    ("no-rule", RULED_ROUTES, {"variant": "special"}, "variant 'special' needs a switch rule"),
    ("mismatched-rule", RULED_ROUTES, {"variant": "tilde", "rule": OTHER_RULE},
     "switch rule means (-0.2, 0.4) differ from the measure set's mean bounds (-0.3, 0.3)"),
    ("zero-paths", ("mc",), {"paths": 0}, "paths must be at least 1"),
    ("switching-variant", ("product",), {"variant": "special"},
     "product model applies to the non-switching variants"),
]


class TestBadInputs:
    @pytest.mark.parametrize("route, kw, message", [
        pytest.param(route, kw, message, id=f"{route}-{case}")
        for case, routes, kw, message in BAD_INPUTS for route in routes
    ])
    def test_each_route_raises_the_same_error(self, route, kw, message):
        with pytest.raises(ValueError) as info:
            run_route(route, **kw)
        assert (info.type, str(info.value)) == (ValueError, message)


class TestCollapseAndBounds:
    def test_singleton_set_is_a_plain_expectation(self):
        L = singleton()
        rule = SwitchRule(0.0, validate_measure_set(L))
        sup = sup_dp_special(L, BOX, 5, rule, value_mode="exact")
        inf = inf_dp_special_tilde(L, BOX, 5, rule, value_mode="exact")
        tree = enumerate_worst_case(L, BOX, 5, "special", rule=rule)
        assert sup == inf == tree

    def test_values_within_terminal_bounds_and_ordered(self):
        sup = sup_dp_special(COIN, BOX, 8, RULE, value_mode="exact")
        inf = inf_dp_special_tilde(COIN, BOX, 8, RULE, value_mode="exact")
        assert 0 <= inf <= sup <= 1

    def test_enlarging_the_set_never_shrinks_the_sup(self):
        # third law, same variance 81/100, mean 0
        extra = DiscreteMeasure((1, -1, 0), ("0.405", "0.405", "0.19"))
        bigger = MeasureSet(COIN.laws + (extra,))
        for n in (3, 6):
            assert sup_dp_clt(bigger, BOX, n, value_mode="exact") >= \
                sup_dp_clt(COIN, BOX, n, value_mode="exact")

    def test_scaled_definitional_identities(self):
        for n in (3, 5):
            assert sup_dp_scaled(COIN, BOX, n, 1, 1, value_mode="exact") == \
                sup_dp_clt(COIN, BOX, n, value_mode="exact")
            assert sup_dp_scaled(COIN, BOX, n, 1, 0, value_mode="exact") == \
                sup_dp_deviation(COIN, BOX, n, value_mode="exact")

    def test_alpha_sweep_approaches_sample_mean_worst_case(self):
        n = 16
        lln = float(sup_dp_lln(COIN, BOX, n, value_mode="float"))
        gaps = [
            abs(float(sup_dp_scaled(COIN, BOX, n, alpha, 1, value_mode="float")) - lln)
            for alpha in ("1", "1/2", "1/8")
        ]
        assert gaps[0] >= gaps[1] >= gaps[2]

    def test_scaled_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            sup_dp_scaled(COIN, BOX, 3, 0, 1)

    @pytest.mark.parametrize("alpha, beta, message", [
        (0, 1, "alpha must be positive"),
        (-1.0, 1, "alpha must be positive"),
        (1, "-1/2", "beta must be nonnegative"),
    ])
    def test_scaled_weights_are_checked_on_every_route(self, alpha, beta, message):
        kw = {"alpha": alpha, "beta": beta}
        routes = [
            lambda: increment("scaled", alpha, beta),
            lambda: sup_dp_scaled(COIN, BOX, 3, alpha, beta),
            lambda: enumerate_worst_case(COIN, BOX, 3, "scaled", **kw),
            lambda: product_model_value(COIN, BOX, 3, "scaled", **kw),
            lambda: convergence_report(COIN, BOX, [3, 4], 0.5, variant="scaled", **kw),
            lambda: simulate_statistic_values(COIN, DriftPolicy.constant(0), "scaled", 3, 10,
                                              seed=1, **kw),
        ]
        for route in routes:
            with pytest.raises(ValueError, match=message):
                route()


class TestPayoffShapes:
    def test_one_sided_indicators_have_an_infinite_endpoint(self):
        for b in (0, "1/3", 0.5, math.inf):
            assert TerminalFunction.left(b) == TerminalFunction.indicator(-math.inf, b)
        for a in (0, "1/3", 0.5, -math.inf):
            assert TerminalFunction.right(a) == TerminalFunction.indicator(a, math.inf)

    def test_empty_one_sided_indicators_are_rejected(self):
        with pytest.raises(ValueError, match="need a < b"):
            TerminalFunction.left(-math.inf)
        with pytest.raises(ValueError, match="need a < b"):
            TerminalFunction.right(math.inf)

    @pytest.mark.parametrize("phi", [TerminalFunction.indicator(-1, 1),
                                     TerminalFunction.indicator("1/3", math.inf),
                                     TerminalFunction.smoothed_indicator(-1, 1, 0.05)],
                             ids=["sharp", "one-sided", "smoothed"])
    def test_a_pickled_payoff_equals_the_original(self, phi):
        copy = pickle.loads(pickle.dumps(phi))
        assert copy == phi
        assert hash(copy) == hash(phi)


class TestFrozenMeanSentinels:
    def test_one_sided_limits_recovered(self):
        # infinite centers freeze the switching rule at one mean, and the
        # worst case then heads for the one-sided normal limits
        lo_rule = SwitchRule(-math.inf, IV)
        hi_rule = SwitchRule(math.inf, IV)
        from ambiclt.closed_form import one_sided_limit

        left = TerminalFunction.left(0)
        want = one_sided_limit(IV, 0.0, "left_tail", "upper")
        got = float(sup_dp_special(COIN, left, 40, lo_rule, value_mode="float"))
        assert got == pytest.approx(want, abs=0.02)

        right = TerminalFunction.right(0)
        want = one_sided_limit(IV, 0.0, "right_tail", "upper")
        got = float(sup_dp_special(COIN, right, 40, hi_rule, value_mode="float"))
        assert got == pytest.approx(want, abs=0.02)


class TestLln:
    def test_saturation_at_moderate_horizon(self):
        hit = float(sup_dp_lln(COIN, TerminalFunction.indicator("-2/5", "2/5"), 100,
                               value_mode="float"))
        miss = float(sup_dp_lln(COIN, TerminalFunction.indicator("1/2", 1), 100,
                                value_mode="float"))
        assert hit >= 0.9
        assert miss <= 0.1

    def test_singleton_concentrates_at_its_mean(self):
        L = singleton()  # mean 0
        near = float(sup_dp_lln(L, TerminalFunction.indicator("-1/5", "1/5"), 200,
                                value_mode="float"))
        assert near >= 0.95


class TestCaps:
    def test_state_cap_raises(self):
        with pytest.raises(StateExplosion):
            sup_dp_clt(COIN, BOX, 12, max_states=50)

    def test_horizon_cap_raises(self):
        with pytest.raises(StateExplosion):
            sup_dp_clt(COIN, BOX, 2001)

    def test_law_mean_variants_share_the_horizon_cap(self):
        # one cap for every variant; clt at n = 100 takes well under a second
        assert 0 < sup_dp_clt(COIN, BOX, 100, value_mode="float") < 1

    # the default budget of 4M cells holds two layers of (2n + 1)(n + 1)
    # cells up to n = 999, whether the center is the rule's or the law's
    @pytest.mark.parametrize("variant, center", [("special", 0.0), ("tilde", 0.17),
                                                 ("clt", None)])
    def test_default_budget_builds_n_999_not_1000(self, variant, center):
        from ambiclt.worst_case import DEFAULT_MAX_STATES, _Lattice, _route

        rule = None if center is None else SwitchRule(center, IV)
        grid = _Lattice(_route(COIN, variant, 999, rule, 1, 1), 999, DEFAULT_MAX_STATES, False)
        assert grid.shape(999) == (1999, 1000)
        with pytest.raises(StateExplosion, match="by step 1000 of 1000"):
            _Lattice(_route(COIN, variant, 1000, rule, 1, 1), 1000, DEFAULT_MAX_STATES, False)

    def test_frozen_rule_and_lln_reach_the_horizon_cap(self):
        # one center per step, so a layer is a single column of 2m + 1 cells
        frozen = SwitchRule(-math.inf, IV)
        assert 0 < sup_dp_special(COIN, BOX, 2000, frozen, value_mode="float") < 1
        assert sup_dp_lln(COIN, BOX, 2000, value_mode="float") > 0.99

    def test_cap_override(self):
        with pytest.raises(StateExplosion):
            sup_dp_clt(COIN, BOX, 5, n_cap=4)
        value = sup_dp_clt(COIN, BOX, 5, n_cap=5, value_mode="exact")
        assert value == enumerate_worst_case(COIN, BOX, 5, "clt")


def all_laws_statistic_values(L, policy, variant, n, paths, seed, rule=None,
                              alpha=1.0, beta=1.0):
    """Reference simulation: the whole paths x n draw matrix at once, and
    every law's outcome drawn at every step before the policy picks one."""
    inc = increment(variant, alpha, beta)
    sigma = float(validate_measure_set(L).sigma)
    values = np.array([float(v) for v in L.values])
    centers = np.array([float(c) for c in inc.law_centers(L.means())])
    cdfs = [np.cumsum([float(p) for p in law.probs]) for law in L.laws]
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random((paths, n))
    M = np.zeros(paths)
    for m in range(1, n + 1):
        idx = np.asarray(policy.fn(m, M, n), dtype=int)
        draws = np.stack([values[np.searchsorted(cdf, uniforms[:, m - 1], side="right")]
                          for cdf in cdfs])
        x = draws[idx, np.arange(paths)]
        mu = rule.mean(M, rule.threshold(m, n), inc.tilde) if inc.switching else centers[idx]
        M = inc.advance(M, x, mu, n, sigma)
    return M


class TestMonteCarloChunks:
    PATHS = 23

    @staticmethod
    def assert_matches(L, center, n, paths, variants=VARIANTS, alpha=1.0, beta=1.0):
        rule = SwitchRule(center, validate_measure_set(L))
        for variant in variants:
            for k, pol in enumerate(builtin_policies(L, rule)):
                want = all_laws_statistic_values(L, pol, variant, n, paths, 40 + k, rule,
                                                 alpha, beta)
                got = simulate_statistic_values(L, pol, variant, n, paths, 40 + k,
                                                rule=rule, alpha=alpha, beta=beta)
                assert np.array_equal(got, want), (variant, pol.label)

    @pytest.mark.parametrize("chunk", [1, 7, PATHS])
    @pytest.mark.parametrize("L", [COIN, THREE, COIN.shifted("1/4")],
                             ids=["coin", "three-laws", "shifted-coin"])
    def test_values_match_the_all_laws_simulation(self, monkeypatch, L, chunk):
        monkeypatch.setattr(worst_case, "_CHUNK_PATHS", chunk)
        self.assert_matches(L, 0.0, 9, self.PATHS)

    @pytest.mark.parametrize("alpha, beta", [(0.5, 2.0), (1.5, 0.0)])
    @pytest.mark.parametrize("chunk", [7, PATHS])
    def test_scaled_weights(self, monkeypatch, chunk, alpha, beta):
        monkeypatch.setattr(worst_case, "_CHUNK_PATHS", chunk)
        for L in (COIN, THREE):
            self.assert_matches(L, 0.0, 9, self.PATHS, ["scaled"], alpha, beta)

    @pytest.mark.parametrize("center", [0.17, math.inf, -math.inf])
    @pytest.mark.parametrize("L", [COIN, COIN.shifted("1/4")], ids=["coin", "shifted-coin"])
    def test_switching_centers(self, monkeypatch, L, center):
        monkeypatch.setattr(worst_case, "_CHUNK_PATHS", 7)
        self.assert_matches(L, center, 9, self.PATHS, ["special", "tilde"])

    def test_one_step_horizon(self, monkeypatch):
        monkeypatch.setattr(worst_case, "_CHUNK_PATHS", 7)
        for L in (COIN, THREE):
            self.assert_matches(L, 0.0, 1, self.PATHS)

    @pytest.mark.parametrize("paths", [7, 9])
    def test_paths_one_off_the_chunk(self, monkeypatch, paths):
        monkeypatch.setattr(worst_case, "_CHUNK_PATHS", 8)
        for L in (COIN, THREE):
            self.assert_matches(L, 0.0, 9, paths)


class TestMonteCarlo:
    def test_seed_determinism_bit_for_bit(self):
        pol = DriftPolicy.threshold(COIN, RULE)
        a = mc_policy_value(COIN, pol, BOX, "special", 15, 4000, seed=5, rule=RULE)
        b = mc_policy_value(COIN, pol, BOX, "special", 15, 4000, seed=5, rule=RULE)
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_seed_changes_the_draws(self):
        pol = DriftPolicy.threshold(COIN, RULE)
        a = mc_policy_value(COIN, pol, BOX, "special", 15, 4000, seed=5, rule=RULE)
        b = mc_policy_value(COIN, pol, BOX, "special", 15, 4000, seed=6, rule=RULE)
        assert a.estimate != b.estimate

    def test_singleton_constant_policy_matches_dp(self):
        L = singleton()
        rule = SwitchRule(0.0, validate_measure_set(L))
        dp = float(sup_dp_special(L, BOX, 12, rule, value_mode="float"))
        est = mc_policy_value(L, DriftPolicy.constant(0), BOX, "special", 12, 40_000,
                              seed=17, rule=rule)
        assert abs(est.estimate - dp) <= 3.0 * est.stderr

    @pytest.mark.parametrize("variant", ["special", "clt", "deviation", "lln"])
    def test_sandwich(self, variant):
        from ambiclt.worst_case import _dp_value

        n = 12
        dp = float(_dp_value(COIN, BOX, n, variant, rule=RULE, value_mode="float"))
        for k, pol in enumerate(builtin_policies(COIN, RULE)):
            est = mc_policy_value(COIN, pol, BOX, variant, n, 20_000, seed=100 + k,
                                  rule=RULE)
            # 1e-12 absorbs float-mode dp rounding when stderr degenerates
            assert est.estimate <= dp + 3.0 * est.stderr + 1e-12

    def test_zero_horizon_is_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            simulate_statistic_values(COIN, DriftPolicy.constant(0), "clt", 0, 10, seed=1)
        with pytest.raises(ValueError, match="n must be at least 1"):
            mc_policy_value(COIN, DriftPolicy.threshold(COIN, RULE), BOX, "special", 0, 10,
                            seed=1, rule=RULE)

    @pytest.mark.parametrize("variant", ["special", "clt"])
    @pytest.mark.parametrize("index", [-1, 2])
    def test_policy_index_outside_the_laws_is_rejected(self, variant, index):
        policy = DriftPolicy(lambda m, M, n: np.full(M.shape, index if m == 3 else 0), "step 3")
        with pytest.raises(ValueError, match=r"law index outside \[0, 2\) at step 3"):
            simulate_statistic_values(COIN, policy, variant, 5, 10, seed=1, rule=RULE)

    def test_policy_callable(self):
        custom = DriftPolicy(lambda m, M, n: np.zeros(M.shape, dtype=int), "custom")
        vals2 = simulate_statistic_values(COIN, custom, "clt", 4, 100, seed=1)
        const = simulate_statistic_values(COIN, DriftPolicy.constant(0), "clt", 4, 100, seed=1)
        assert np.array_equal(vals2, const)


class TestDpLattice:
    def test_layer_structure_and_invariants(self):
        from ambiclt._exact import ExactValue

        lattice = dp_lattice(COIN, BOX, 5, "special", rule=RULE, value_mode="exact")
        assert len(lattice.layers) == 6
        assert lattice.value == sup_dp_special(COIN, BOX, 5, RULE, value_mode="exact")
        # terminal layer equals the payoff at the final statistic values
        for key, value in lattice.layers[5].items():
            ev = ExactValue(key[0], key[1], lattice.scale)
            assert value == BOX.evaluate_exact(ev)
        # every layer value stays within the payoff bounds
        for layer in lattice.layers:
            for value in layer.values():
                assert 0 <= value <= 1

    def test_root_layer_is_a_single_state(self):
        lattice = dp_lattice(COIN, BOX, 3, "clt", value_mode="exact")
        assert len(lattice.layers[0]) == 1


class TestZeroProbabilityOutcome:
    # the coin (3/5, 2/5) gives its outcome 0 probability 0: every route
    # sees the two laws on (1, -1), lattice included
    TWO = MeasureSet((DiscreteMeasure((1, -1), ("3/5", "2/5")),
                      DiscreteMeasure((1, -1), ("2/5", "3/5"))))

    @pytest.mark.parametrize("variant", ["special", "tilde", "clt", "lln"])
    def test_coin_equals_the_two_outcome_set(self, variant):
        results = []
        for L in (coin_example("3/5", "2/5"), self.TWO):
            kw = _variant_kwargs(variant, SwitchRule(0.0, validate_measure_set(L)))
            results.append((
                worst_case._dp_value(L, BOX, 12, variant, value_mode="exact", **kw),
                enumerate_worst_case(L, BOX, 6, variant, **kw),
                dp_lattice(L, BOX, 8, variant, value_mode="exact", **kw),
            ))
        assert results[0] == results[1]


class TestShiftEquivariance:
    # moving every outcome, the rule's center and the payoff's endpoints by t
    # moves M_m by m*t/n and each threshold with it: no value changes
    @pytest.mark.parametrize("t", [Fraction(0), Fraction(1, 5), Fraction(-7, 3)])
    @pytest.mark.parametrize("variant, n", [("special", 5), ("special", 8), ("tilde", 5)])
    def test_exact_dp_is_unmoved_by_a_rational_shift(self, variant, n, t):
        from ambiclt.worst_case import _dp_value

        shifted = COIN.shifted(t)
        rule = SwitchRule(t, validate_measure_set(shifted))
        box = TerminalFunction.indicator(t - 1, t + 1)
        kw = dict(minimize=variant == "tilde", value_mode="exact")
        want = _dp_value(COIN, BOX, n, variant, rule=RULE, **kw)
        assert _dp_value(shifted, box, n, variant, rule=rule, **kw) == want

    # the fixed-center statistics move by drift*t: the outcome sum moves by
    # n*t and every law's mean, hence the centered sum, moves with it
    @pytest.mark.parametrize("t", [Fraction(0), Fraction(1, 5), Fraction(-7, 3)])
    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("variant, alpha, beta, drift", [
        ("clt", 1, 1, 1), ("scaled", Fraction(1, 2), 2, 2), ("deviation", 1, 1, 0),
        ("lln", 1, 1, 1),
    ], ids=["clt", "scaled", "deviation", "lln"])
    def test_fixed_center_dp_is_unmoved_by_a_rational_shift(self, variant, alpha, beta,
                                                           drift, n, t):
        from ambiclt.worst_case import _dp_value

        box = TerminalFunction.indicator(drift * t - 1, drift * t + 1)
        for mode in ("exact", "float"):
            kw = dict(alpha=alpha, beta=beta, value_mode=mode)
            want = _dp_value(COIN, BOX, n, variant, **kw)
            got = _dp_value(COIN.shifted(t), box, n, variant, **kw)
            assert (type(got), got) == (type(want), want), mode


# the float routes under a shift: the two sets' roundings may break a near
# tie differently, after which a path's two traces part ways
NEAR_TIE = 1e-9  # |unshifted M_{m-1} - threshold(m, n)| of a near tie
SHIFT_TOL = 1e-9  # |shifted M_n - (M_n + t)| on a path that chose alike


def _check_shifted_choices(M_prev, thresholds, upper, upper_shifted, end, end_shifted, t):
    """Each path, one column of the (n, paths) arrays of unshifted M_{m-1}
    and of each set's choice of the upper mean at step m, must choose alike
    up to a near tie; a path that chose alike at every step ends t higher.
    Returns the count of such paths."""
    differ = upper != upper_shifted
    for path in np.flatnonzero(differ.any(axis=0)):
        m = differ[:, path].argmax()  # the first step at which the choices differ
        assert abs(M_prev[m, path] - thresholds[m]) <= NEAR_TIE, (m, path)
    alike = ~differ.any(axis=0)
    np.testing.assert_allclose(end_shifted[alike] - end[alike], float(t), rtol=0, atol=SHIFT_TOL)
    return int(alike.sum())


@pytest.mark.parametrize("t", [Fraction(1, 5), Fraction(-7, 3)])
@pytest.mark.parametrize("c", [Fraction(0), Fraction(17, 100)])
class TestFloatShiftEquivariance:
    # the coin and the coin moved by t, with the rule centered at c and at
    # c + t: M_m moves by m*t/n and each threshold with it, in exact terms.
    # At c = 0 every path starts on a tie, M_0 = 0 = threshold(1, n), which
    # both sets' correctly rounded thresholds break alike; a path may land
    # on the threshold 0 again later, so there only half the paths must
    # choose alike, and at c = 17/100 most paths must.
    def rules(self, c, t):
        shifted = COIN.shifted(t)
        rule_t = SwitchRule(c + t, validate_measure_set(shifted))
        return (COIN, SwitchRule(c, IV)), (shifted, rule_t)

    @pytest.mark.parametrize("variant", [VARIANT_M, VARIANT_TILDE])
    def test_fold_chooses_alike_on_a_shifted_path(self, variant, c, t):
        (_, rule), (_, rule_t) = self.rules(c, t)
        rng = np.random.default_rng(3)
        n, alike = 40, 0
        thresholds = np.array([rule.threshold(m, n) for m in range(1, n + 1)])
        for _ in range(25):
            xs = [COIN.values[i] for i in rng.integers(3, size=n)]
            traces = [np.array(statistic_trace(path, n, r, variant))
                      for path, r in ((xs, rule), ([x + t for x in xs], rule_t))]
            (_, mu, M), (_, mu_t, M_t) = (trace.T for trace in traces)
            alike += _check_shifted_choices(
                np.concatenate(([0.0], M[:-1]))[:, None], thresholds,
                (mu == rule.mean_pair()[1])[:, None], (mu_t == rule_t.mean_pair()[1])[:, None],
                M[-1:], M_t[-1:], t)
        assert alike >= (20 if c else 13)

    @pytest.mark.parametrize("variant", ["special", "tilde"])
    def test_monte_carlo_chooses_alike_on_the_same_draws(self, variant, c, t):
        n, paths = 30, 400
        runs = []
        for L, rule in self.rules(c, t):
            seen = []

            def record(m, M, n):
                seen.append(M.copy())
                return np.zeros(M.shape, dtype=int)

            end = simulate_statistic_values(L, DriftPolicy(record, "constant[0], recorded"),
                                            variant, n, paths, seed=9, rule=rule)
            M_prev = np.array(seen)
            thresholds = np.array([rule.threshold(m, n) for m in range(1, n + 1)])
            upper = rule.upper(M_prev, thresholds[:, None], variant == "tilde")
            runs.append((M_prev, thresholds, upper, end))
        (M_prev, thresholds, upper, end), (_, _, upper_t, end_t) = runs
        alike = _check_shifted_choices(M_prev, thresholds, upper, upper_t, end, end_t, t)
        assert alike >= (paths * 4 // 5 if c else paths // 2)


def dict_band_probability(L, n, m, delta, rule):
    """Reference band probability: the band tested cell by cell on exact
    state keys by a terminal callable."""
    thr = rule.threshold_exact(m, n)
    d = Fraction(delta)
    lo, hi = thr - d, thr + d
    s = Fraction(n) * validate_measure_set(L).variance_exact()

    def band(u, w):
        ev = ExactValue(u, w, s)
        return 1.0 if ev.cmp(lo) >= 0 and ev.cmp(hi) <= 0 else 0.0

    if m == 1:
        return band(Fraction(0), Fraction(0))
    return worst_case._dp_value(L, None, n, "tilde", rule=rule, steps=m - 1, terminal=band,
                                value_mode="float")


def tree_band_probability(L, n, m, delta, rule):
    """Reference band probability: the (law, outcome) tree of M~ walked over
    its first m - 1 steps with no state merging, the band tested on each
    leaf's exact value."""
    inc = increment("tilde")
    thr, d = rule.threshold_exact(m, n), Fraction(delta)

    def rec(k, M):
        if k == m - 1:
            return Fraction(int(M.cmp(thr - d) >= 0 and M.cmp(thr + d) <= 0))
        center = rule.mean(M, rule.threshold_exact(k + 1, n), inc.tilde)
        children = [rec(k + 1, M.shift(*inc.exact(x, center, n))) for x in L.values]
        return max(sum(p * child for p, child in zip(law.probs, children)) for law in L.laws)

    return rec(0, ExactValue.zero(n * validate_measure_set(L).variance_exact()))


class TestBandProbability:
    # at n = 9 the coin's sqrt(n sigma^2) = 27/10 is rational, and the first
    # step from the threshold 0 by outcome 1 reaches 1/9 + (7/10)/(27/10) =
    # 10/27 (as do steps 3, 5, 7), so a band of that half-width around the
    # threshold 0 ends on a reachable value
    ON_LATTICE = Fraction(10, 27)

    @pytest.mark.parametrize("n", [6, 9, 24])
    @pytest.mark.parametrize("delta", [Fraction(1, 10), ON_LATTICE, Fraction(1, 10**9),
                                       Fraction(1, 10**30)])
    def test_matches_the_cell_by_cell_band(self, n, delta):
        for rule in (RULE, SwitchRule(0.17, IV)):
            for m in range(1, n + 1):
                want = dict_band_probability(COIN, n, m, delta, rule)
                got = band_probability_sup(COIN, n, m, delta, rule)
                assert repr(got) == repr(want), (rule.center, m)

    def test_endpoint_on_a_reachable_value_is_tested_exactly(self):
        n, m, delta = 9, 4, self.ON_LATTICE  # the band tests M~ after 3 steps
        thr = RULE.threshold_exact(m, n)
        band = TerminalFunction.indicator(thr - delta, thr + delta)
        kw = dict(rule=RULE, steps=m - 1, value_mode="float")
        with_band = dp_lattice(COIN, band, n, "tilde", **kw).exact_tests
        rule_only = dp_lattice(COIN, None, n, "tilde", terminal=lambda u, w: 0.0,
                               **kw).exact_tests
        assert with_band > rule_only

    # m = 1 takes no step (the band holds or fails at the start); m = n
    # takes every step but the last
    @pytest.mark.parametrize("L", [COIN, THREE], ids=["coin", "three"])
    @pytest.mark.parametrize("n", [5, 6])
    def test_first_and_last_band_match_the_tree(self, L, n):
        for center in (0.0, 0.17):
            rule = SwitchRule(center, validate_measure_set(L))
            for delta in (Fraction(1, 10), self.ON_LATTICE):
                for m in (1, n):
                    want = tree_band_probability(L, n, m, delta, rule)
                    got = band_probability_sup(L, n, m, delta, rule)
                    assert got == pytest.approx(float(want), abs=1e-12), (center, delta, m)

    def test_three_laws_off_center(self):
        rule = SwitchRule(0.0, validate_measure_set(THREE))
        for m in range(1, 10):
            want = dict_band_probability(THREE, 9, m, Fraction(1, 20), rule)
            assert repr(band_probability_sup(THREE, 9, m, Fraction(1, 20), rule)) == repr(want)

    @pytest.mark.parametrize("delta", [0, -1, 0.0, "-1/10"])
    def test_delta_must_be_positive(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            band_probability_sup(COIN, 5, 3, delta, RULE)

    def test_first_step_is_deterministic(self):
        # start state sits exactly on the centered threshold
        assert band_probability_sup(COIN, 10, 1, Fraction(1, 100), RULE) == 1.0
        off = SwitchRule(0.17, IV)
        assert band_probability_sup(COIN, 10, 1, Fraction(1, 100), off) == 0.0

    def test_infinite_center_never_bands(self):
        rule = SwitchRule(math.inf, IV)
        assert band_probability_sup(COIN, 10, 4, 0.5, rule) == 0.0


def dict_product_model_value(L, phi, n, variant="clt", *, alpha=1, beta=1, exact=False):
    """Reference product model: the law of the outcome sum by dict
    convolution under each law multiset, in float arithmetic or, with
    ``exact``, in integer weights over the probabilities' common denominator
    with each float payoff taken at its exact value.

    With k_j steps of law j, of center c_j, the statistic is u + w/sqrt(s)
    with u = drift*S/n and w = noise*(S - sum k_j*c_j), S the outcome sum.
    So a state is keyed by S as an integer over the values' common
    denominator, multisets that share a prefix of counts share its
    convolutions, and each terminal (S, center sum) key, the center sum an
    integer over the centers' common denominator, is evaluated once.
    """
    from ambiclt._exact import sqrt_exact

    inc = increment(variant, alpha, beta)
    s = Fraction(n) * validate_measure_set(L).variance_exact()
    root = sqrt_exact(s)
    den = math.lcm(*(x.denominator for x in L.values))
    if exact:
        scale = math.lcm(*(p.denominator for law in L.laws for p in law.probs))
        weight, num = (lambda p: int(p * scale)), Fraction
    else:
        scale, weight, num = 1, float, float
    steps = [[(int(x * den), weight(p)) for x, p in zip(L.values, law.probs) if p]
             for law in L.laws]
    centers = inc.law_centers(L.means())
    cden = math.lcm(*(c.denominator for c in centers))
    centers = [int(c * cden) for c in centers]
    payoffs = {}

    def payoff(total, center_sum):
        key = (total, center_sum)
        if key not in payoffs:
            x = Fraction(total, den)
            u, w = inc.drift * x / n, inc.noise * (x - Fraction(center_sum, cden))
            if root is not None and w != 0:  # folded into u, as ExactValue.create does
                u, w = u + w / root, Fraction(0)
            value = ExactValue(u, w, s)
            payoffs[key] = num(float(phi.evaluate_exact(value)) if phi.supports_exact
                               else phi(float(value)))
        return payoffs[key]

    def convolve(dist, law):
        out: dict = {}
        for total, p0 in dist.items():
            for dx, p in law:
                out[total + dx] = out.get(total + dx, 0) + p0 * p
        return out

    def best(dist, j, left, center_sum):
        """The largest expectation over the multisets that give the left
        remaining steps to laws j, j + 1, ..."""
        if j == len(steps) - 1:
            for _ in range(left):
                dist = convolve(dist, steps[j])
            center_sum += left * centers[j]
            return sum(p * payoff(total, center_sum) for total, p in dist.items())
        value = best(dist, j + 1, left, center_sum)
        for used in range(1, left + 1):
            dist = convolve(dist, steps[j])
            value = max(value, best(dist, j + 1, left - used, center_sum + used * centers[j]))
        return value

    return best({0: 1}, 0, n, 0) / scale**n


PRODUCT_VARIANTS = [("clt", {}), ("lln", {}), ("deviation", {}),
                    ("scaled", {"alpha": "1/2", "beta": 2})]


class TestProductModel:
    SMOOTH = TerminalFunction.smoothed_indicator(-1, 1, 0.3)

    @pytest.mark.parametrize("variant, kw", PRODUCT_VARIANTS, ids=[v for v, _ in PRODUCT_VARIANTS])
    @pytest.mark.parametrize("L", [COIN, COIN.shifted("-1/10"), THREE],
                             ids=["coin", "shifted-coin", "three-laws"])
    def test_matches_the_dict_convolution(self, L, variant, kw):
        # the exact convolution rounded once, bit for bit, and the float
        # convolution within float-mode tolerance
        for phi in (BOX, self.SMOOTH):
            for n in range(1, 13):
                exact = dict_product_model_value(L, phi, n, variant, exact=True, **kw)
                ref = dict_product_model_value(L, phi, n, variant, **kw)
                got = product_model_value(L, phi, n, variant, **kw)
                assert repr(got) == repr(float(exact)), (phi, n)
                assert abs(got - ref) <= 1e-12, (phi, n)

    @pytest.mark.parametrize("variant, kw", PRODUCT_VARIANTS, ids=[v for v, _ in PRODUCT_VARIANTS])
    def test_matches_the_dict_convolution_at_n_24(self, variant, kw):
        exact = dict_product_model_value(COIN, BOX, 24, variant, exact=True, **kw)
        ref = dict_product_model_value(COIN, BOX, 24, variant, **kw)
        got = product_model_value(COIN, BOX, 24, variant, **kw)
        assert repr(got) == repr(float(exact))
        assert abs(got - ref) <= 1e-12

    def test_a_sure_event_has_probability_one(self):
        # a mean of outcomes in {-1, 0, 1} always lies in [-1, 1]; the float
        # convolution summed to 1.0000000000000004
        L = coin_example("0.44", "0.14")
        assert product_model_value(L, BOX, 24, "lln") == 1.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_horizon_must_be_positive(self, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            product_model_value(COIN, BOX, n)


class TestConvergenceReport:
    def test_rows_and_monotone_flag(self):
        ref = 0.770407047562559
        report = convergence_report(COIN, BOX, [4, 8, 16], ref, variant="special",
                                    rule=RULE)
        assert [r.n for r in report.rows] == [4, 8, 16]
        assert all(r.runtime >= 0.0 for r in report.rows)
        assert report.gaps_monotone == (
            report.rows[0].gap >= report.rows[1].gap >= report.rows[2].gap
        )

    def test_n_list_must_increase(self):
        with pytest.raises(ValueError):
            convergence_report(COIN, BOX, [8, 4], 0.5)

    def test_product_model_never_beats_the_rectangular_sup(self):
        # the product measures form a subset of the ambiguous random walk, and
        # both sides are rounded once from exact values, so no slack is needed
        sups = {
            "clt": sup_dp_clt,
            "lln": sup_dp_lln,
            "deviation": sup_dp_deviation,
            "scaled": sup_dp_scaled,
        }
        for L in (COIN, THREE):
            for variant, kw in PRODUCT_VARIANTS:
                for n in range(1, 9):
                    product = product_model_value(L, BOX, n, variant, **kw)
                    sup = sups[variant](L, BOX, n, value_mode="exact", **kw)
                    assert product <= float(sup), (variant, n)
