"""Property tests: the product kernel, the canonical pairs of every series
producer, Series ring laws, reversion round trips, correlator invariants, the
cache file format.

Every test runs a fixed, derandomized set of examples, so the suite stays
reproducible and fast.
"""

import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (add, compose, engine_tau, mul_lists, newton_revert, ref_phi0, ref_phi1,
                     ref_tau, series)
from wpvol.genexp import GenusExpansionContext, build_phi_g, build_y
from wpvol.kappavol import volume
from wpvol.qseries import bessel_x_of_y, factorial, parse_rational, revert_lagrange
from wpvol.taucalc import (CacheFormatError, MemoStore, TauCalculator, _render, _scale,
                           canonical_key, format_rational, load_cache, save_cache)

F = Fraction

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)

fractions = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
nonzero_fractions = fractions.filter(bool)


@st.composite
def series_tuples(draw, count, order_max=6):
    """`count` series of one common order."""
    order = draw(st.integers(0, order_max))
    return tuple(series(draw(st.lists(fractions, min_size=order + 1, max_size=order + 1)))
                 for _ in range(count))


single_series = series_tuples(1).map(lambda t: t[0])

_POWER_TABLE = GenusExpansionContext(12, 10)


@st.composite
def revertible_series(draw, order_max=7):
    """a(x) with a(0) = 0 and a'(0) != 0."""
    order = draw(st.integers(1, order_max))
    rest = draw(st.lists(fractions, min_size=order - 1, max_size=order - 1))
    return series([F(0), draw(nonzero_fractions), *rest])


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


def _ref_scale(genus, ds):
    """2^(4g) prod (2d+1)!!, as the product of each odd factor."""
    return 2 ** (4 * genus) * math.prod(k for d in ds for k in range(2 * d + 1, 0, -2))


def _ref_load_cache(path):
    """A Fraction-based loader of the core-line grammar, kept as the reference
    for load_cache: every index and every value is parsed in full."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.removesuffix("\n")
            parts = line.split("|")
            if len(parts) != 3:
                raise CacheFormatError(line_no, f"expected 3 '|'-separated fields, got {len(parts)}")
            g_text, ds_text, value_text = parts
            try:
                genus = int(g_text)
            except ValueError:
                raise CacheFormatError(line_no, f"malformed genus {g_text!r}") from None
            try:
                ds = tuple(sorted((int(token) for token in ds_text.split(",")), reverse=True))
            except ValueError:
                raise CacheFormatError(line_no, f"malformed index list {ds_text!r}") from None
            try:
                value = parse_rational(value_text)
            except ValueError as exc:
                raise CacheFormatError(line_no, str(exc)) from None
            key = f"{genus}|{','.join(str(d) for d in ds)}"
            if genus < 1 or min(ds) < 2:
                raise CacheFormatError(
                    line_no, f"key {key} is not a core key (genus >= 1, every index >= 2)")
            if (genus, ds) in entries:
                raise CacheFormatError(line_no, f"key {key} is given twice")
            n = len(ds)
            if sum(ds) != 3 * genus - 3 + n:
                raise CacheFormatError(
                    line_no, f"key {key} breaks the dimension rule sum(ds) = 3g-3+n = "
                             f"{3 * genus - 3 + n}")
            if value <= 0:
                raise CacheFormatError(
                    line_no, f"key {key} has the nonpositive value {value_text}, "
                             "but every core correlator is positive")
            w = value * _ref_scale(genus, ds)
            if w.denominator != 1:
                raise CacheFormatError(
                    line_no, f"value {value_text} of {key} times "
                             f"2^(4g) prod (2d+1)!! is not an integer")
            canonical = f"{key}|{value}"
            if line != canonical:
                raise CacheFormatError(line_no, f"line is not in its canonical form {canonical!r}")
            entries[genus, ds] = int(w)
    return MemoStore(entries)


def _core(entries):
    """The entries save_cache writes: genus >= 1 with every index >= 2."""
    return {(g, ds): w for (g, ds), w in entries.items() if g >= 1 and min(ds, default=2) >= 2}


def _ref_cache_text(store):
    """The file save_cache writes, built through Fraction and format_rational."""
    lines = sorted(f"{_render(g, ds)}|{format_rational(F(w, _scale(g, ds)))}"
                   for (g, ds), w in _core(store.entries).items())
    return "".join(line + "\n" for line in lines)


def _load_outcome(load, path):
    """The entries `load` reads from `path`, or the message, line included, it rejects."""
    try:
        return load(path).entries
    except CacheFormatError as exc:
        return str(exc)


@st.composite
def core_keys(draw):
    """(g, ds), ds descending, with 2 <= g <= 4, every index >= 2 and
    sum(ds) = 3g - 3 + n: the keys save_cache writes (genus 1 has none)."""
    g = draw(st.integers(2, 4))
    n = draw(st.integers(1, min(3 * g - 3, 6)))
    ds = [2] * n
    for slot in draw(st.lists(st.integers(0, n - 1), min_size=3 * g - 3 - n,
                              max_size=3 * g - 3 - n)):
        ds[slot] += 1
    return g, tuple(sorted(ds, reverse=True))


@st.composite
def cache_entries(draw):
    """(g, ds, value): mostly a positive value whose W is an int on a core key,
    the lines that load; else the same on a valid key that is not core, or 0
    on an unstable or dimension-breaking key, lines of the full format."""
    kind = draw(st.integers(0, 7))
    if kind > 1:
        g, ds = draw(core_keys())
    elif kind == 1:
        g, ds = draw(valid_keys(n_max=6))
    else:
        g = draw(st.integers(0, 3))
        ds = draw(st.lists(st.integers(0, 6), max_size=6))
        if 2 * g - 2 + len(ds) > 0 and sum(ds) == 3 * g - 3 + len(ds):
            ds.append(0)  # one more tau_0 breaks the dimension rule
        return g, ds, F(0)
    return g, ds, F(draw(st.integers(1, 10 ** 6)), _ref_scale(g, ds))


#: corrupt lines: each is rejected wherever it stands
CORRUPT_LINES = ["1|1| 1/7", "1|1|-1/24 ", "1|-1,3|0", "1|1|0", "5|0|7", "0|0,0|1", "0|-|3",
                 "0|0,0,0|-1", "1|1|1/0", "-1|1|1/0", "-1|1|1/24", "-1|-1,3|0", "1|2,0,-1|0",
                 "1|-0,1|1/24", "1|1,|1", "1||1", "1|x|1/24", "x|1|1/24", "1|1|x", "1|1|1 / 24",
                 "1|1|0.5", "1|1", "1|1|1|1"]

#: lines of the full format, which held every memo entry: valid non-core
#: keys in several spellings, and zeros on invalid keys; each is rejected
NON_CORE_LINES = ["1|0,2|1/24", "1|2,00|1/24", "1|2, 0|2/48", "1|2,-0|1/24", "1|2,+0|+1/24",
                  " 1|2,0| 1/24 ", "0|0,0,1,0|1", "0|00,0,0|1", "0|0,0,0|1", "2|-|0", "2|-|-0",
                  "1|2,0,0|0/5", "0|20,0,0|0", "0|2_0,0,0|0", "1|\u0662,0|1/24",
                  "0|0,0,0|\u0661"]

#: true core entries, none of them spelled as save_cache writes them; each
#: is rejected
ODD_SPELLINGS = ["2|2,3|29/5760", "2|3,02|29/5760", "2|3, 2|58/11520", "2|+3,2|+29/5760",
                 " 2|3,2| 29/5760 ", "02|2,2,2|14/480", "\u0662|3,2|29/5760",
                 "2|2,2,2|\u0667/240", "4|1_0|1/7962624", "2|3,2|29/5760 ", "", "  "]


@st.composite
def cache_files(draw):
    """The text of a cache file: canonical lines mixed with other spellings of
    the same entries (unsorted indices, "0"-led and "+" tokens, unreduced or
    signed values, surrounding whitespace, blank lines), repeated keys and
    corrupt lines."""
    lines = []
    for g, ds, value in draw(st.lists(cache_entries(), max_size=8)):
        ds = sorted(ds, reverse=True)
        if draw(st.integers(0, 3)):  # canonical
            lines.append(f"{g}|{','.join(map(str, ds))}|{format_rational(value)}")
        else:
            ds = draw(st.permutations(ds))
            tokens = [draw(st.sampled_from(["{}", "0{}", "+{}", " {}"] + ["-{}"] * (d == 0)))
                      .format(d) for d in ds]
            k = draw(st.sampled_from([1, 2, 3]))
            text = f"{value.numerator * k}/{value.denominator * k}" if k > 1 else format_rational(value)
            text = draw(st.sampled_from(["", "+", " "])) + text
            pad = draw(st.sampled_from(["", " ", "\t"]))
            lines.append(f"{pad}{g}|{','.join(tokens)}|{text}{pad}")
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", lines[-1]])))
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(CORRUPT_LINES)))
    return "".join(line + "\n" for line in draw(st.permutations(lines)))


def _assert_reduced(series):
    """`series` holds reduced int pairs (p, q), q > 0, the pairs `__eq__` compares."""
    for p, q in series.pairs:
        assert type(p) is int and type(q) is int
        assert q > 0 and math.gcd(p, q) == 1


def _assert_canonical(series, expected):
    """`series` holds reduced pairs and equals the Fraction list `expected`."""
    _assert_reduced(series)
    assert series.coeffs == tuple(expected)


class TestMulKernel:
    # entries mix ints and Fractions, zeros and negatives; the first operand is
    # cut at n, which runs below, between and above both orders
    entries = st.lists(st.one_of(st.integers(-20, 20), fractions), min_size=1, max_size=8)

    @PROPERTY
    @given(entries, entries, st.integers(0, 10))
    def test_matches_schoolbook_product(self, a, b, n):
        n = min(n, len(a) - 1, len(b) - 1)  # the product truncates at the smaller order
        _assert_canonical(series(a).truncate(n) * series(b), mul_lists(a, b, n))

    def test_factorial_squared_denominators(self):
        # denominators up to (60!)^2, as in the Bessel series at order 61
        a = [F((-1) ** k, factorial(k) ** 2) for k in range(61)]
        b = [F(k - 30, factorial(k) * factorial(k + 1)) for k in range(61)]
        _assert_canonical(series(a) * series(b), mul_lists(a, b, 60))


class TestCanonicalPairs:
    """Every producer of a series returns reduced pairs, so `Series.__eq__`,
    which compares the pairs, is value equality; each equals its Fraction
    oracle."""

    @PROPERTY
    @given(series_tuples(2), nonzero_fractions, st.integers(-12, 12), st.integers(0, 6))
    def test_calculus_and_products(self, ab, c0, constant, cut):
        a, b = ab
        cs, order = a.coeffs, a.order
        _assert_canonical(a * b, mul_lists(cs, b.coeffs, order))
        _assert_canonical(a.truncate(min(cut, order)), cs[: cut + 1])
        _assert_canonical(a.antiderivative(constant),
                          [constant] + [c / (k + 1) for k, c in enumerate(cs)])
        if order:
            _assert_canonical(a.derivative(), [k * c for k, c in enumerate(cs)][1:])
        unit = series((c0,) + cs[1:])
        inverse = unit.reciprocal()  # the one series whose product with unit is 1
        _assert_reduced(inverse)
        assert mul_lists(unit.coeffs, inverse.coeffs, order) == [1] + [0] * order

    @PROPERTY
    @given(revertible_series())
    def test_reversion(self, a):
        _assert_canonical(revert_lagrange(a), newton_revert(a).coeffs)

    @pytest.mark.parametrize("order", [1, 2, 7, 20])
    def test_bessel_series_and_its_inverse(self, order):
        x = bessel_x_of_y(order)
        _assert_canonical(x, [0] + [F((-1) ** (k - 1), factorial(k - 1) * factorial(k))
                                    for k in range(1, order + 1)])
        _assert_canonical(build_y(order), newton_revert(x).coeffs)

    @PROPERTY
    @given(st.integers(0, 3), st.integers(1, 6))  # the genus-0 and 1 oracles need order >= 1
    def test_phi_g(self, g, order):
        phi = build_phi_g(g, GenusExpansionContext(order, 3 * g - 2 + max(0, 3 - 2 * g)),
                          TauCalculator())
        if g < 2:
            expected = (ref_phi0 if g == 0 else ref_phi1)(order).coeffs
        else:  # the other route's volumes, v_{g,n} = [x^n] phi_g
            checker = TauCalculator()
            expected = [volume(g, n, checker).v for n in range(order + 1)]
        _assert_canonical(phi, expected)


class TestSeriesRing:
    @PROPERTY
    @given(series_tuples(3))
    def test_multiplication_laws(self, abc):
        a, b, c = abc
        one = series([1] + [0] * a.order)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * add(b, c) == add(a * b, a * c)
        assert a * one == a

    @PROPERTY
    @given(st.sampled_from(["y'", *range(2, 11)]), st.integers(1, 6))
    def test_power_is_repeated_product(self, i, e):
        # the closed form's power table, in whatever state earlier examples left it
        base = _POWER_TABLE.h_power(i, 1)
        product = base
        for _ in range(e - 1):
            product = product * base
        assert _POWER_TABLE.h_power(i, e) == product

    @PROPERTY
    @given(single_series, nonzero_fractions)
    def test_reciprocal_inverts_a_unit(self, a, c0):
        unit = series((c0,) + a.coeffs[1:])
        assert unit * unit.reciprocal() == series([1] + [0] * a.order)


class TestReversion:
    @PROPERTY
    @given(revertible_series())
    def test_round_trip_against_lagrange(self, a):
        b = newton_revert(a)
        identity = series([0, 1] + [0] * (a.order - 1))
        assert b == revert_lagrange(a)
        assert compose(a, b) == identity
        assert compose(b, a) == identity


class TestCorrelators:
    @PROPERTY
    @given(valid_keys(n_max=8))
    def test_matches_the_fraction_recursion(self, key):
        g, ds = key
        calc = TauCalculator()
        assert engine_tau(calc, g, ds) == ref_tau(g, ds)
        assert type(calc.store.entries[canonical_key(g, ds)]) is int
        assert all(type(w) is int for w in calc.store.entries.values())

    @PROPERTY
    @given(st.data())
    def test_symmetric_under_permutation(self, calc, data):
        g, ds = data.draw(valid_keys())
        value = engine_tau(calc, g, ds)
        assert value > 0
        assert engine_tau(calc, g, data.draw(st.permutations(ds))) == value

    @PROPERTY
    @given(valid_keys(), st.data())
    def test_dimension_breaking_keys_vanish(self, calc, key, data):
        g, ds = key
        slot = data.draw(st.integers(0, len(ds) - 1))
        bumped = ds[:slot] + [ds[slot] + 1] + ds[slot + 1:]
        assert engine_tau(calc, g, bumped) == 0
        if ds[slot]:
            lowered = ds[:slot] + [ds[slot] - 1] + ds[slot + 1:]
            assert engine_tau(calc, g, lowered) == 0


class TestCacheFile:
    @pytest.mark.parametrize("line", ODD_SPELLINGS + NON_CORE_LINES + CORRUPT_LINES)
    def test_line_loads_like_the_fraction_loader(self, tmp_path, line):
        path = tmp_path / "c.txt"
        path.write_text(f"2|4|1/1152\n{line}\n", encoding="utf-8")
        outcome = _load_outcome(load_cache, str(path))
        assert outcome == _load_outcome(_ref_load_cache, str(path))
        assert outcome.startswith("cache line 2: ")

    @settings(PROPERTY, max_examples=100)
    @given(cache_files())
    def test_loads_like_the_fraction_loader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.txt"
            path.write_text(text, encoding="utf-8")
            outcome = _load_outcome(load_cache, str(path))
            assert outcome == _load_outcome(_ref_load_cache, str(path))
            if isinstance(outcome, dict):
                assert all(type(w) is int for w in outcome.values())
                save_cache(MemoStore(outcome), str(path))
                assert path.read_text(encoding="utf-8") == _ref_cache_text(MemoStore(outcome))

    @PROPERTY
    @given(st.dictionaries(core_keys(), st.integers(1, 2 ** 200), max_size=12))
    def test_core_memo_round_trip(self, entries):
        # any positive W on any core key: saved, then loaded, gives the memo back
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.txt"
            save_cache(MemoStore(entries), str(path))
            assert load_cache(str(path)).entries == entries

    @PROPERTY
    @given(st.lists(valid_keys(n_max=6), max_size=4), st.integers(0, 3), st.integers(0, 4))
    def test_save_load_save_round_trip(self, keys, g, n):
        calc = TauCalculator()
        for key in keys:
            engine_tau(calc, *key)
        volume(g, n, calc)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.txt", Path(tmp) / "second.txt"
            save_cache(calc.store, str(first))
            assert first.read_text(encoding="utf-8") == _ref_cache_text(calc.store)
            loaded = load_cache(str(first))
            assert loaded.entries == _core(calc.store.entries)
            save_cache(loaded, str(second))
            assert second.read_bytes() == first.read_bytes()
            # the saved core rederives every other key the cold run stored
            warm = TauCalculator(loaded)
            assert volume(g, n, warm) == volume(g, n, TauCalculator())
            for key in calc.store.entries:
                assert engine_tau(warm, *key) == engine_tau(calc, *key)
            assert warm.store.entries == calc.store.entries
