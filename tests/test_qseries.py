import json
import math
import random
from fractions import Fraction

import pytest

from oracles import compose, double_factorial, newton_revert, series, series_from_json_dict
from wpvol.cli import main
from wpvol.genexp import GenusExpansionContext
from wpvol.qseries import (
    Series,
    bessel_x_of_y,
    factorial,
    format_rational,
    parse_rational,
    revert_lagrange,
)
from wpvol.verify import build_f_lemma

F = Fraction


def S(*coeffs):
    return series(coeffs)


def X(order):
    """The series x, to `order`."""
    return series([0, 1] + [0] * (order - 1))


def ZERO(order):
    return series([0] * (order + 1))


def _count_series_products(monkeypatch):
    """From now on, record each call to Series.__mul__."""
    mul, calls = Series.__mul__, []

    def counting_mul(*args):
        calls.append(args)
        return mul(*args)

    monkeypatch.setattr(Series, "__mul__", counting_mul)
    return calls


def random_series(rng, order, unit_constant=False, zero_constant=False, unit_linear=False):
    coeffs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order + 1)]
    if unit_constant:
        coeffs[0] = F(rng.randint(1, 5), rng.randint(1, 3))
    if zero_constant:
        coeffs[0] = F(0)
    if unit_linear:
        coeffs[1] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return series(coeffs)


class TestScalars:
    def test_format(self):
        assert format_rational(F(1, 24)) == "1/24"
        assert format_rational(F(-5, 12)) == "-5/12"
        assert format_rational(F(3)) == "3"
        assert format_rational(7) == "7"

    def test_parse(self):
        assert parse_rational("1/24") == F(1, 24)
        assert parse_rational("-61") == F(-61)
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("0.5")
        with pytest.raises(ValueError):
            parse_rational("1 / 2")

    def test_double_factorial(self):
        assert double_factorial(-1) == 1
        assert double_factorial(1) == 1
        assert double_factorial(5) == 15
        assert double_factorial(9) == 945
        with pytest.raises(ValueError):
            double_factorial(-3)

    def test_double_factorial_beyond_recursion_limit(self):
        assert double_factorial(4001) == math.prod(range(4001, 0, -2))

    def test_factorial_negative(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestConstruction:
    def test_built_from_reduced_pairs(self):
        s = Series(iter([(0, 1), (-1, 2)]))
        assert (s.pairs, s.coeffs, s.order) == (((0, 1), (-1, 2)), (0, F(-1, 2)), 1)
        assert s == S(0, F(-1, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Series([])

    def test_order(self):
        assert S(1, 2, 3).order == 2
        assert X(5).order == 5

    def test_truncate_never_extends(self):
        s = S(1, 2, 3)
        assert s.truncate(1) == S(1, 2)
        with pytest.raises(ValueError):
            s.truncate(5)


class TestRingOps:
    def test_mul(self):
        assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)
        a = S(2, 3, 5)
        assert a * S(1, 0, 0) == a
        # x * x at order 1: the x^2 term is beyond order
        x = X(1)
        assert x * x == S(0, 0)

    @pytest.mark.parametrize("scalar", [2, F(1, 2), 0.5])
    def test_mul_needs_a_series(self, scalar):
        # the product is the one binary operation: scalars scale nothing
        with pytest.raises(TypeError):
            S(1, 2) * scalar
        with pytest.raises(TypeError):
            scalar * S(1, 2)

    def test_pow(self, monkeypatch):
        # the closed form's power table: one product per new power, from the highest held
        ctx = GenusExpansionContext(12, 10)
        ctx.f(1)  # f_1 = 1 - 1/y', which h_2 = f_1' reads, takes no product
        calls = _count_series_products(monkeypatch)
        ctx.h_power(2, 6)
        assert len(calls) == 5
        ctx.h_power(2, 7)
        assert len(calls) == 6
        with pytest.raises(KeyError):
            ctx.h_power(99, 2)
        with pytest.raises(ValueError):
            ctx.h_power(2, 0)
        assert len(calls) == 6

    @pytest.mark.parametrize("i_max", [2, 5, 10])
    def test_h_power_reads_build_no_f_i_max(self, monkeypatch, i_max):
        # h_i = f_{i-1}' needs f_1..f_{i-1}: the bases make one product for
        # each of f_2..f_{i_max - 1}, and only f(i_max) makes f_{i_max}
        calls = _count_series_products(monkeypatch)
        ctx = GenusExpansionContext(12, i_max)
        for i in ["y'", *range(2, i_max + 1)]:
            ctx.h_power(i, 1)
        assert len(calls) == i_max - 2
        ctx.f(i_max)
        assert len(calls) == i_max - 1

    @pytest.mark.parametrize("order", [2, 12, 30])
    def test_lemma_sweep_makes_one_product_per_power_of_y(self, monkeypatch, order):
        # the lemma reads y^1..y^N from the table: y^2..y^N cost one product
        # each, nothing else is multiplied, and a second sweep makes none
        ctx = GenusExpansionContext(order, 12)
        calls = _count_series_products(monkeypatch)
        for i in range(2, ctx.i_max + 1):
            build_f_lemma(i, ctx)
        assert len(calls) == order - 1
        for i in range(2, ctx.i_max + 1):
            build_f_lemma(i, ctx)
        assert len(calls) == order - 1

    @pytest.mark.parametrize("exponent, products", [(0, 0), (1, 0), (2, 1), (7, 4)])
    def test_pow_is_repeated_product(self, monkeypatch, exponent, products):
        # with the table holding powers up to exponent - products (at least 1),
        # h_power(2, exponent) makes `products` products; exponent 0 is rejected
        ctx = GenusExpansionContext(12, 10)
        base = ctx.h_power(2, 1)
        expected = series([1] + [0] * base.order)
        for _ in range(exponent):
            expected = expected * base
        ctx.h_power(2, max(1, exponent - products))
        calls = _count_series_products(monkeypatch)
        if exponent:
            assert ctx.h_power(2, exponent) == expected
        else:
            with pytest.raises(ValueError):
                ctx.h_power(2, exponent)
        assert len(calls) == products

    def test_mul_commutes_randomized(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_series(rng, rng.randint(0, 8))
            b = random_series(rng, rng.randint(0, 8))
            assert a * b == b * a


class TestCalculus:
    def test_derivative_examples(self):
        assert S(0, 1, F(1, 2), F(5, 12)).derivative() == S(1, 1, F(5, 4))
        assert S(9, 0, 0, 0).derivative() == ZERO(2)
        k = 6
        s = series([0] * k + [F(1, factorial(k))])
        assert s.derivative() == series([0] * (k - 1) + [F(1, factorial(k - 1))])

    def test_derivative_order_zero_rejected(self):
        with pytest.raises(ValueError):
            S(3).derivative()

    def test_antiderivative_examples(self):
        assert S(1).antiderivative() == S(0, 1)
        assert X(1).antiderivative(1) == S(1, 0, F(1, 2))

    def test_antiderivative_inverts_derivative(self):
        rng = random.Random(11)
        for _ in range(20):
            a = random_series(rng, rng.randint(1, 8), zero_constant=True)
            assert a.derivative().antiderivative(0) == a

    def test_reciprocal_geometric(self):
        assert S(1, -1, 0, 0).reciprocal() == S(1, 1, 1, 1)
        assert S(1).reciprocal() == S(1)
        assert S(1, 1, F(5, 4)).reciprocal() == S(1, -1, F(-1, 4))

    def test_reciprocal_zero_rejected(self):
        with pytest.raises(ValueError):
            S(0, 1).reciprocal()

    def test_mul_reciprocal_randomized(self):
        rng = random.Random(13)
        for _ in range(25):
            a = random_series(rng, rng.randint(0, 8), unit_constant=True)
            assert a * a.reciprocal() == series([1] + [0] * a.order)


class TestCompose:
    def test_identity_inner(self):
        outer = S(1, 1, 1)
        assert compose(outer, X(2)) == outer

    def test_square_inner(self):
        outer = S(0, 0, 1, 0)  # y^2
        inner = S(0, 1, 1, 0)  # x + x^2
        assert compose(outer, inner) == S(0, 0, 1, 2)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            compose(S(0, 1), S(1, 1))

    def test_chain_rule_randomized(self):
        rng = random.Random(17)
        for _ in range(20):
            f = random_series(rng, rng.randint(2, 8))
            g = random_series(rng, f.order, zero_constant=True)
            lhs = compose(f, g).derivative()
            rhs = compose(f.derivative(), g) * g.derivative()
            assert lhs == rhs


class TestRevert:
    def test_identity(self):
        x = X(6)
        assert newton_revert(x) == x

    def test_linear(self):
        assert newton_revert(S(0, 2)) == S(0, F(1, 2))

    def test_bessel_inverse_low_order(self):
        y = newton_revert(bessel_x_of_y(3))
        assert y == S(0, 1, F(1, 2), F(5, 12))

    def test_round_trip_bessel(self):
        a = bessel_x_of_y(12)
        b = newton_revert(a)
        assert compose(a, b) == X(12)
        assert compose(b, a) == X(12)

    def test_round_trip_randomized(self):
        rng = random.Random(19)
        for _ in range(15):
            a = random_series(rng, rng.randint(1, 10), zero_constant=True, unit_linear=True)
            b = newton_revert(a)
            ident = X(a.order)
            assert compose(a, b) == ident
            assert compose(b, a) == ident

    def test_preconditions(self):
        with pytest.raises(ValueError):
            newton_revert(S(1, 1))
        with pytest.raises(ValueError):
            newton_revert(S(0, 0, 1))
        with pytest.raises(ValueError):
            newton_revert(S(3))

    def test_newton_agrees_with_lagrange(self):
        rng = random.Random(23)
        assert newton_revert(bessel_x_of_y(20)) == revert_lagrange(bessel_x_of_y(20))
        for _ in range(10):
            a = random_series(rng, rng.randint(1, 12), zero_constant=True, unit_linear=True)
            assert newton_revert(a) == revert_lagrange(a)

    def test_newton_agrees_with_lagrange_at_order_62(self):
        # the order of the y(x) that `series --phi 0 --order 64` builds
        assert newton_revert(bessel_x_of_y(62)) == revert_lagrange(bessel_x_of_y(62))


class TestBesselSeries:
    def test_low_order(self):
        assert bessel_x_of_y(3) == S(0, 1, F(-1, 2), F(1, 12))

    def test_single_coefficients(self):
        s = bessel_x_of_y(4)
        assert s.coeffs[1] == 1
        assert s.coeffs[4] == F(-1, 144)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            bessel_x_of_y(0)


class TestSerialization:
    def test_json_round_trip(self, capsys):
        # the `series` command's JSON reads back as the series it printed
        assert main(["series", "--phi", "1", "--order", "3"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d == {"order": 3, "coeffs": ["0", "1/24", "1/32", "7/216"]}
        assert series_from_json_dict(d) == S(0, F(1, 24), F(1, 32), F(7, 216))

    def test_json_validates_order(self):
        with pytest.raises(ValueError):
            series_from_json_dict({"order": 2, "coeffs": ["1"]})

