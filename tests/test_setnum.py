import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmup import (UnaryNumber, bounded_product,
                   bounded_sum, multiset_to_set, newton_table,
                   peano_shared_depth, peano_succ, positional_to_unary,
                   set_intersection, set_union, to_peano, tokenize, unary_add,
                   unary_divide, unary_factorial, unary_multiply, unary_power,
                   unary_subtract, unary_to_positional)
from icmup.errors import (BadDigit, DivisionByZero, Indeterminate,
                          NonIntegerTerm, NotASet, TooLarge, Underflow)
from icmup.setnum import (UNARY_CAP, parse_peano, parse_unary,
                          round_half_away_from_zero)

small_sets = st.lists(st.sampled_from("abcdefg"), min_size=0, max_size=7,
                      unique=True)


def toks(text):
    return tokenize(text)


class TestSets:
    def test_multiset_instance(self):
        assert multiset_to_set(toks("a b a c b b c a c")) == [
            "a", "b", "c"]

    def test_empty_multiset(self):
        assert multiset_to_set([]) == []

    def test_already_distinct(self):
        assert multiset_to_set(toks("x y z")) == ["x", "y", "z"]

    def test_union_and_intersection_instance(self):
        a, b = toks("b f d a c e"), toks("e g i f d h")
        assert list(set_union(a, b)) == list("abcdefghi")
        assert list(set_intersection(a, b)) == ["d", "e", "f"]

    def test_disjoint(self):
        a, b = toks("a b"), toks("x y z")
        assert len(set_union(a, b)) == 5
        assert set_intersection(a, b) == []

    def test_identical_sets(self):
        a = toks("p q r")
        assert list(set_union(a, a)) == ["p", "q", "r"]
        assert list(set_intersection(a, a)) == ["p", "q", "r"]

    def test_repeat_rejected(self):
        with pytest.raises(NotASet):
            set_union(toks("a a"), toks("b"))

    @given(small_sets, small_sets)
    def test_set_laws(self, xs, ys):
        a, b = [toks(" ".join(s)) if s else [] for s in (xs, ys)]
        union_ab = list(set_union(a, b))
        union_ba = list(set_union(b, a))
        inter_ab = list(set_intersection(a, b))
        inter_ba = list(set_intersection(b, a))
        assert union_ab == union_ba
        assert inter_ab == inter_ba
        assert list(set_union(a, a)) == sorted(xs)
        assert len(union_ab) <= len(a) + len(b)
        assert (len(union_ab) == len(a) + len(b)) == (not inter_ab)


class TestUnaryArithmetic:
    def test_add_instance(self):
        result, trace = unary_add(UnaryNumber(3), UnaryNumber(7))
        assert result.count == 10
        assert trace.step_count == 7
        assert all(s.kind == "transfer" for s in trace.steps)

    def test_add_identity(self):
        result, trace = unary_add(UnaryNumber(4), UnaryNumber(0))
        assert result.count == 4 and trace.step_count == 0
        result, trace = unary_add(UnaryNumber(0), UnaryNumber(5))
        assert result.count == 5 and trace.step_count == 5

    def test_subtract(self):
        result, trace = unary_subtract(UnaryNumber(7), UnaryNumber(3))
        assert result.count == 4 and trace.step_count == 3
        result, trace = unary_subtract(UnaryNumber(9), UnaryNumber(0))
        assert result.count == 9 and trace.step_count == 0

    def test_underflow(self):
        with pytest.raises(Underflow):
            unary_subtract(UnaryNumber(3), UnaryNumber(7))

    def test_multiply_instance(self):
        result, trace = unary_multiply(UnaryNumber(3), UnaryNumber(10))
        assert result.count == 30
        assert trace.step_count == 10
        assert all(s.kind == "add-iteration" for s in trace.steps)
        assert all(len(s.substeps) == 3 for s in trace.steps)

    def test_multiply_by_zero(self):
        result, trace = unary_multiply(UnaryNumber(6), UnaryNumber(0))
        assert result.count == 0 and trace.step_count == 0

    def test_multiply_one_by_k(self):
        result, trace = unary_multiply(UnaryNumber(1), UnaryNumber(9))
        assert result.count == 9 and trace.step_count == 9
        assert all(len(s.substeps) == 1 for s in trace.steps)

    def test_divide_instances(self):
        q, r, trace = unary_divide(UnaryNumber(12), UnaryNumber(3))
        assert (q.count, r.count, trace.step_count) == (4, 0, 4)
        q, r, trace = unary_divide(UnaryNumber(7), UnaryNumber(3))
        assert (q.count, r.count, trace.step_count) == (2, 1, 2)
        q, r, trace = unary_divide(UnaryNumber(8), UnaryNumber(1))
        assert (q.count, r.count, trace.step_count) == (8, 0, 8)

    def test_divide_by_zero(self):
        with pytest.raises(DivisionByZero):
            unary_divide(UnaryNumber(4), UnaryNumber(0))

    def test_power_instances(self):
        result, trace = unary_power(UnaryNumber(2), 3)
        assert result.count == 8 and trace.step_count == 3
        assert all(s.kind == "multiply-iteration" for s in trace.steps)
        result, trace = unary_power(UnaryNumber(5), 0)
        assert result.count == 1 and trace.step_count == 0
        result, trace = unary_power(UnaryNumber(10), 2)
        assert result.count == 10 ** 2  # integer oracle

    def test_power_three_levels(self):
        _, trace = unary_power(UnaryNumber(3), 2)
        mult = trace.steps[1]
        assert mult.kind == "multiply-iteration"
        add = mult.substeps[0]
        assert add.kind == "add-iteration"
        assert add.substeps[0].kind == "transfer"

    def test_indeterminate(self):
        with pytest.raises(Indeterminate):
            unary_power(UnaryNumber(0), 0)

    def test_factorial(self):
        assert unary_factorial(4)[0].count == 24
        assert unary_factorial(0)[0].count == 1
        assert unary_factorial(6)[0].count == math.factorial(6)
        _, trace = unary_factorial(3)
        kinds = {s.kind for s in trace.steps}
        assert kinds == {"multiply-iteration", "subtract-iteration"}

    def test_magnitude_cap(self):
        with pytest.raises(TooLarge):
            unary_multiply(UnaryNumber(10 ** 4), UnaryNumber(10 ** 3))
        with pytest.raises(TooLarge):
            unary_power(UnaryNumber(10), 7)
        with pytest.raises(TooLarge):
            unary_factorial(10)
        with pytest.raises(TooLarge):
            UnaryNumber(10 ** 6 + 1)

    # the largest exponents under the cap: one more multiplication is refused
    @pytest.mark.parametrize("a, k", [(2, 19), (3, 12), (10, 6), (1000, 2)])
    def test_power_up_to_the_cap(self, a, k):
        result, trace = unary_power(UnaryNumber(a), k)
        assert result.count == a ** k and trace.step_count == k
        with pytest.raises(TooLarge, match=f"power {a}\\^{k + 1} exceeds cap"):
            unary_power(UnaryNumber(a), k + 1)

    def test_exponent_is_a_capped_natural(self):
        with pytest.raises(TooLarge):
            unary_power(UnaryNumber(1), UNARY_CAP + 1)
        with pytest.raises(ValueError, match="naturals"):
            unary_power(UnaryNumber(2), -1)

    def test_factorial_up_to_the_cap(self):
        assert unary_factorial(9)[0].count == math.factorial(9) <= UNARY_CAP
        with pytest.raises(TooLarge, match="10! exceeds cap"):
            unary_factorial(10)

    def test_trace_laws_small_range(self):
        for a in range(0, 13):
            for b in range(0, 13):
                ua, ub = UnaryNumber(a), UnaryNumber(b)
                r, t = unary_add(ua, ub)
                assert r.count == a + b and t.step_count == b
                r, t = unary_multiply(ua, ub)
                assert r.count == a * b and t.step_count == b
                if a >= b:
                    r, t = unary_subtract(ua, ub)
                    assert r.count == a - b and t.step_count == b
                if b >= 1:
                    q, rem, t = unary_divide(ua, ub)
                    assert (q.count, rem.count) == (a // b, a % b)
                    assert t.step_count == a // b
                    assert a == q.count * b + rem.count

    def test_dump_format(self):
        _, trace = unary_multiply(UnaryNumber(2), UnaryNumber(2))
        lines = trace.dump().splitlines()
        assert lines[0].startswith("0 add-iteration")
        assert lines[1] == "1 transfer move one unary digit"
        assert len(lines) == 6


class TestBoundedForms:
    def test_sum_instance(self):
        result, trace = bounded_sum({i: i for i in range(1, 6)}, 1, 5)
        assert result.count == 15
        assert trace.step_count == 5
        assert all(s.kind == "add-iteration" for s in trace.steps)

    def test_product_instance(self):
        result, trace = bounded_product({i: i for i in range(1, 5)}, 1, 4)
        assert result.count == 24
        assert trace.step_count == 4

    @given(st.integers(0, 6), st.integers(0, 5), st.lists(st.integers(0, 5),
                                                          min_size=1, max_size=4))
    def test_multiply_iterations_are_multiplications(self, a, k, terms):
        # every multiply-iteration of a power, factorial or product holds
        # exactly the steps unary_multiply gives for the same operands
        nested = []
        if a or k:
            nested.append((unary_power(UnaryNumber(a), k)[1], [a] * k))
        nested.append((unary_factorial(a)[1], list(range(a, 0, -1))))
        nested.append((bounded_product(dict(enumerate(terms)), 0,
                                       len(terms) - 1)[1], terms))
        for trace, factors in nested:
            steps = [s for s in trace.steps if s.kind == "multiply-iteration"]
            assert len(steps) == len(factors)
            acc = 1
            for step, m in zip(steps, factors):
                want = unary_multiply(UnaryNumber(acc), UnaryNumber(m))[1].steps
                assert step.substeps == want
                acc *= m

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            bounded_sum({1: 1}, 2, 1)

    def test_non_integer_term(self):
        with pytest.raises(NonIntegerTerm):
            bounded_sum({1: 0.5}, 1, 1)
        with pytest.raises(NonIntegerTerm):
            bounded_sum({1: -2}, 1, 1)
        with pytest.raises(NonIntegerTerm):
            bounded_sum({}, 1, 1)


class TestPeano:
    def test_renderings(self):
        assert to_peano(3).render() == "S(S(S(0)))"
        assert to_peano(0).render() == "0"

    def test_succ(self):
        assert peano_succ(to_peano(2)) == to_peano(3)

    def test_shared_depth(self):
        assert peano_shared_depth(to_peano(2), to_peano(3)) == 2
        assert peano_shared_depth(to_peano(5), to_peano(5)) == 5

    @given(st.integers(0, 500))
    def test_round_trip(self, n):
        assert parse_peano(to_peano(n).render()).depth == n

    def test_parse_rejects_garbage(self):
        with pytest.raises(BadDigit):
            parse_peano("S(S(1))")

    def test_deep_parse_is_linear(self):
        # a parse that copies the rest of the text per layer is quadratic:
        # 0.75 s at depth 10^5
        text = to_peano(UNARY_CAP).render()
        start = time.perf_counter()
        assert parse_peano(text).depth == UNARY_CAP
        assert time.perf_counter() - start < 1.0

    def test_depth_cap(self):
        with pytest.raises(TooLarge, match="depth 1000001 exceeds cap"):
            to_peano(UNARY_CAP + 1)
        with pytest.raises(TooLarge):
            peano_succ(to_peano(UNARY_CAP))
        with pytest.raises(TooLarge):
            parse_peano("S(" + to_peano(UNARY_CAP).render() + ")")


class TestPositional:
    def test_instances(self):
        assert unary_to_positional(UnaryNumber(17), 10) == "17"
        assert unary_to_positional(UnaryNumber(7), 10) == "7"
        assert unary_to_positional(UnaryNumber(0), 10) == "0"
        assert unary_to_positional(UnaryNumber(5), 2) == "101"

    def test_decode(self):
        assert positional_to_unary("17", 10).count == 17
        assert positional_to_unary("ff", 16).count == 255

    def test_bad_digit(self):
        with pytest.raises(BadDigit):
            positional_to_unary("12x", 10)
        with pytest.raises(BadDigit):
            positional_to_unary("", 10)

    def test_unary_render_round_trip(self):
        assert parse_unary(UnaryNumber(9).render()).count == 9
        with pytest.raises(BadDigit):
            parse_unary("//x/")

    @given(st.integers(0, 10 ** 6), st.integers(2, 36))
    @settings(max_examples=300)
    def test_round_trip(self, n, base):
        digits = unary_to_positional(UnaryNumber(n), base)
        assert positional_to_unary(digits, base).count == n


FALL_TABLE = [0.0, 4.9, 19.6, 44.1, 78.5, 122.6, 176.5, 240.3, 313.8, 397.2,
              490.3, 593.3, 706.1, 828.7, 961.1, 1103.2, 1255.3]


class TestFallingBody:
    def test_zero_time(self):
        assert newton_table(9.80665, 0).rows[0].s == 0.0

    def test_rounding_convention(self):
        assert round_half_away_from_zero(0.25, 1) == 0.3
        assert round_half_away_from_zero(0.24999, 1) == 0.2
        assert round_half_away_from_zero(-0.25, 1) == -0.3

    def test_printed_column(self):
        # independent recompute: round(g * t^2 / 2) at one decimal
        report = newton_table(9.80665, 16)
        assert [r.s for r in report.rows] == FALL_TABLE
        for row in report.rows:
            assert row.s == round_half_away_from_zero(9.80665 * row.t ** 2 / 2, 1)

    def test_formula_beats_table(self):
        report = newton_table(9.80665, 16)
        assert report.formula_bits < report.table_bits

    def test_validation(self):
        with pytest.raises(ValueError):
            newton_table(0.0, 5)
        with pytest.raises(ValueError):
            newton_table(9.8, -1)

    @pytest.mark.parametrize("g", [math.inf, -math.inf, math.nan])
    def test_g_must_be_finite(self, g):
        with pytest.raises(ValueError, match="finite"):
            newton_table(g, 3)

    def test_huge_distances(self):
        # 1e30 t^2 / 2 needs 32 digits: more than Decimal's default 28
        assert newton_table(1e30, 16).rows[16].s == 1e30 * 256 / 2
        # 6e307 * 2 * 2 overflows, but the distance 1.2e308 is a float
        assert newton_table(6e307, 2).rows[2].s == 1.2e308
        with pytest.raises(TooLarge, match="t=2"):
            newton_table(1e308, 16)
