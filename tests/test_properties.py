"""Property tests: Series ring laws, reversion round trips, correlator invariants.

Every test runs a fixed, derandomized set of examples, so the suite stays
reproducible and fast.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wpvol.qseries import Series, revert_lagrange

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
def valid_keys(draw):
    """(g, ds) with 2g - 2 + n > 0 and sum(ds) = 3g - 3 + n."""
    g = draw(st.integers(0, 3))
    n = draw(st.integers(max(1, 3 - 2 * g), 7))
    slots = draw(st.lists(st.integers(0, n - 1), min_size=3 * g - 3 + n,
                          max_size=3 * g - 3 + n))
    ds = [0] * n
    for slot in slots:
        ds[slot] += 1
    return g, ds


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
