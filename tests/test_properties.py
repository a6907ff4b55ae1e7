"""Property tests: the product kernel, Series ring laws, reversion round trips,
correlator invariants.

Every test runs a fixed, derandomized set of examples, so the suite stays
reproducible and fast.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wpvol.qseries import Series, _mul_lists, double_factorial, factorial, revert_lagrange
from wpvol.taucalc import TauCalculator, canonical_key

F = Fraction

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)

fractions = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
nonzero_fractions = fractions.filter(bool)


@st.composite
def series_tuples(draw, count, order_max=6):
    """`count` series of one common order."""
    order = draw(st.integers(0, order_max))
    return tuple(Series(draw(st.lists(fractions, min_size=order + 1, max_size=order + 1)))
                 for _ in range(count))


single_series = series_tuples(1).map(lambda t: t[0])


@st.composite
def revertible_series(draw, order_max=7):
    """a(x) with a(0) = 0 and a'(0) != 0."""
    order = draw(st.integers(1, order_max))
    rest = draw(st.lists(fractions, min_size=order - 1, max_size=order - 1))
    return Series([F(0), draw(nonzero_fractions), *rest])


@st.composite
def valid_keys(draw, n_max=7):
    """(g, ds) with g <= 3, n <= n_max, 2g - 2 + n > 0 and sum(ds) = 3g - 3 + n."""
    g = draw(st.integers(0, 3))
    n = draw(st.integers(max(1, 3 - 2 * g), n_max))
    slots = draw(st.lists(st.integers(0, n - 1), min_size=3 * g - 3 + n,
                          max_size=3 * g - 3 + n))
    ds = [0] * n
    for slot in slots:
        ds[slot] += 1
    return g, ds


def _ref_mul(a, b, n):
    """Schoolbook truncated Cauchy product in plain Fraction arithmetic: the
    reference for _mul_lists, which revert and revert_lagrange both use."""
    out = [F(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += F(ai) * bj
    return out


_REF_TAU = {}


def _ref_tau(g, ds):
    """The recursive Fraction engine the integer one replaced, kept as the
    reference for TauCalculator: string, dilaton and DVV on labeled points,
    with the double factorials written out, the halving and the final
    division done in Fractions, and the splitting sum over every subset of
    positions and every g1."""
    ds = tuple(sorted(ds, reverse=True))
    n = len(ds)
    if 2 * g - 2 + n <= 0 or sum(ds) != 3 * g - 3 + n:
        return F(0)
    key = (g, ds)
    if key in _REF_TAU:
        return _REF_TAU[key]
    if key == (0, (0, 0, 0)):
        value = F(1)
    elif key == (1, (1,)):
        value = F(1, 24)
    elif ds[-1] == 0:
        rest = ds[:-1]
        value = sum((_ref_tau(g, rest[:j] + (d - 1,) + rest[j + 1:])
                     for j, d in enumerate(rest) if d), F(0))
    elif ds[0] == 1:
        value = (2 * g - 2 + n - 1) * _ref_tau(g, ds[1:])
    else:
        df = double_factorial
        k, rest = ds[0], ds[1:]
        total = F(0)
        for j, d in enumerate(rest):
            total += F(df(2 * (k + d) - 1), df(2 * d - 1)) * _ref_tau(
                g, rest[:j] + (k + d - 1,) + rest[j + 1:])
        for a in range(k - 1):
            b = k - 2 - a
            inner = _ref_tau(g - 1, rest + (a, b)) if g else F(0)
            for mask in range(2 ** len(rest)):
                part = tuple(d for j, d in enumerate(rest) if mask >> j & 1)
                complement = tuple(d for j, d in enumerate(rest) if not mask >> j & 1)
                for g1 in range(g + 1):
                    inner += _ref_tau(g1, part + (a,)) * _ref_tau(g - g1, complement + (b,))
            total += F(df(2 * a + 1) * df(2 * b + 1), 2) * inner
        value = total / df(2 * k + 1)
    _REF_TAU[key] = value
    return value


def _assert_reduced_fractions(coeffs):
    for c in coeffs:
        assert type(c) is F
        assert math.gcd(c.numerator, c.denominator) == 1


class TestMulKernel:
    # entries mix ints and Fractions, zeros and negatives; an empty list is
    # Horner's first partial result; n runs below, between and above both lengths
    entries = st.lists(st.one_of(st.integers(-20, 20), fractions), max_size=8)

    @PROPERTY
    @given(entries, entries, st.integers(0, 10))
    def test_matches_schoolbook_product(self, a, b, n):
        out = _mul_lists(a, b, n)
        assert out == _ref_mul(a, b, n)
        _assert_reduced_fractions(out)

    def test_factorial_squared_denominators(self):
        # denominators up to (60!)^2, as in the Bessel series at order 61
        a = [F((-1) ** k, factorial(k) ** 2) for k in range(61)]
        b = [F(k - 30, factorial(k) * factorial(k + 1)) for k in range(61)]
        out = _mul_lists(a, b, 60)
        assert out == _ref_mul(a, b, 60)
        _assert_reduced_fractions(out)


class TestSeriesRing:
    @PROPERTY
    @given(series_tuples(3))
    def test_addition_is_a_commutative_group(self, abc):
        a, b, c = abc
        zero = Series.zero(a.order)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero == a
        assert a - a == zero

    @PROPERTY
    @given(series_tuples(3))
    def test_multiplication_laws(self, abc):
        a, b, c = abc
        one = Series.constant(1, a.order)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a

    @PROPERTY
    @given(single_series, st.integers(0, 4))
    def test_power_is_repeated_product(self, a, k):
        product = Series.constant(1, a.order)
        for _ in range(k):
            product = product * a
        assert a ** k == product

    @PROPERTY
    @given(single_series, nonzero_fractions)
    def test_reciprocal_inverts_a_unit(self, a, c0):
        unit = Series((c0,) + a.coeffs[1:])
        assert unit * unit.reciprocal() == Series.constant(1, a.order)


class TestReversion:
    @PROPERTY
    @given(revertible_series())
    def test_round_trip_against_lagrange(self, a):
        b = a.revert()
        identity = Series.identity(a.order)
        assert b == revert_lagrange(a)
        assert a.compose(b) == identity
        assert b.compose(a) == identity


class TestCorrelators:
    @PROPERTY
    @given(valid_keys(n_max=8))
    def test_matches_the_fraction_recursion(self, key):
        g, ds = key
        calc = TauCalculator()
        assert calc.tau(g, ds) == _ref_tau(g, ds)
        assert type(calc.store.entries[canonical_key(g, ds)]) is int
        assert all(type(w) is int for w in calc.store.entries.values())

    @PROPERTY
    @given(st.data())
    def test_symmetric_under_permutation(self, calc, data):
        g, ds = data.draw(valid_keys())
        value = calc.tau(g, ds)
        assert value > 0
        assert calc.tau(g, data.draw(st.permutations(ds))) == value

    @PROPERTY
    @given(valid_keys(), st.data())
    def test_dimension_breaking_keys_vanish(self, calc, key, data):
        g, ds = key
        slot = data.draw(st.integers(0, len(ds) - 1))
        bumped = ds[:slot] + [ds[slot] + 1] + ds[slot + 1:]
        assert calc.tau(g, bumped) == 0
        if ds[slot]:
            lowered = ds[:slot] + [ds[slot] - 1] + ds[slot + 1:]
            assert calc.tau(g, lowered) == 0
