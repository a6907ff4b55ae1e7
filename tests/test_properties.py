"""Property tests: the product kernel, Series ring laws, reversion round trips,
correlator invariants, the cache file format.

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

from oracles import add, compose, engine_tau, newton_revert, ref_tau
from wpvol.genexp import GenusExpansionContext
from wpvol.kappavol import volume
from wpvol.qseries import Series, _mul_lists, factorial, parse_rational, revert_lagrange
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
    return tuple(Series(draw(st.lists(fractions, min_size=order + 1, max_size=order + 1)))
                 for _ in range(count))


single_series = series_tuples(1).map(lambda t: t[0])

_POWER_TABLE = GenusExpansionContext(12, 10)


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
    reference for _mul_lists, which both reference reversions use."""
    out = [F(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += F(ai) * bj
    return out


def _ref_load_cache(path):
    """The Fraction-based loader the int one replaced, kept as the reference
    for load_cache: every index and every value is parsed in full."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split("|")
            if len(parts) != 3:
                raise CacheFormatError(line_no, f"expected 3 '|'-separated fields, got {len(parts)}")
            g_text, ds_text, value_text = parts
            try:
                genus = int(g_text)
            except ValueError:
                raise CacheFormatError(line_no, f"malformed genus {g_text!r}") from None
            if ds_text == "-":
                indices = ()
            else:
                try:
                    indices = tuple(map(int, ds_text.split(",")))
                except ValueError:
                    raise CacheFormatError(line_no, f"malformed index list {ds_text!r}") from None
            try:
                value = parse_rational(value_text)
                genus, ds = canonical_key(genus, indices)
            except ValueError as exc:
                raise CacheFormatError(line_no, str(exc)) from None
            if (genus, ds) in entries:
                raise CacheFormatError(line_no, f"key {_render(genus, ds)} is given twice")
            n = len(ds)
            stable = 2 * genus - 2 + n > 0
            if value and not stable:
                raise CacheFormatError(
                    line_no, f"unstable key {_render(genus, ds)} has a nonzero value")
            if value and sum(ds) != 3 * genus - 3 + n:
                raise CacheFormatError(
                    line_no, f"key {_render(genus, ds)} breaks the dimension rule "
                             f"sum(ds) = 3g-3+n = {3 * genus - 3 + n} but has a nonzero value")
            w, r = divmod(value.numerator * _scale(genus, ds), value.denominator)
            if r:
                raise CacheFormatError(
                    line_no, f"value {value_text} of {_render(genus, ds)} times "
                             f"2^(4g) prod (2d+1)!! is not an integer")
            if w <= 0 and stable and sum(ds) == 3 * genus - 3 + n:
                raise CacheFormatError(
                    line_no, f"key {_render(genus, ds)} has the nonpositive value {value_text}, "
                             "but every stable key that obeys the dimension rule has a "
                             "positive correlator")
            entries[genus, ds] = w
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
def cache_entries(draw):
    """(g, ds, value) that loads: a positive value whose W is an int on a
    valid key, or 0 on an unstable or dimension-breaking one."""
    if draw(st.booleans()):
        g, ds = draw(valid_keys(n_max=6))
        scale = _scale(*canonical_key(g, ds))
        return g, ds, F(draw(st.integers(1, 10 ** 6)), scale)
    g = draw(st.integers(0, 3))
    ds = draw(st.lists(st.integers(0, 6), max_size=6))
    if 2 * g - 2 + len(ds) > 0 and sum(ds) == 3 * g - 3 + len(ds):
        ds.append(0)  # one more tau_0 breaks the dimension rule
    return g, ds, F(0)


#: corrupt lines: each is rejected wherever it stands
CORRUPT_LINES = ["1|1| 1/7", "1|1|-1/24 ", "1|-1,3|0", "1|1|0", "5|0|7", "0|0,0|1", "0|-|3",
                 "0|0,0,0|-1", "1|1|1/0", "-1|1|1/0", "-1|1|1/24", "-1|-1,3|0", "1|2,0,-1|0",
                 "1|-0,1|1/24", "1|1,|1", "1||1", "1|x|1/24", "x|1|1/24", "1|1|x", "1|1|1 / 24",
                 "1|1|0.5", "1|1", "1|1|1|1"]

#: lines that load, most of them not as save_cache writes them
ODD_SPELLINGS = ["1|0,2|1/24", "1|2,00|1/24", "1|2, 0|2/48", "1|2,-0|1/24", "1|2,+0|+1/24",
                 " 1|2,0| 1/24 ", "0|0,0,1,0|1", "0|00,0,0|1", "0|0,0,0|1", "2|-|0", "2|-|-0",
                 "1|2,0,0|0/5", "0|20,0,0|0", "0|2_0,0,0|0", "1|\u0662,0|1/24", "0|0,0,0|\u0661"]


@st.composite
def cache_files(draw):
    """The text of a cache file: canonical lines mixed with other spellings of
    the same entries (unsorted indices, zeros in the middle, "00", "+0" and
    "-0" tokens, unreduced or signed values, surrounding whitespace, blank
    lines), repeated keys and corrupt lines."""
    lines = []
    for g, ds, value in draw(st.lists(cache_entries(), max_size=8)):
        ds = sorted(ds, reverse=True)
        if draw(st.integers(0, 3)) == 0:
            ds = draw(st.permutations(ds))
        tokens = [draw(st.sampled_from(["{}"] * 6 + ["0{}", "+{}", " {}"] + ["-{}"] * (d == 0)))
                  .format(d) for d in ds]
        k = draw(st.sampled_from([1, 1, 1, 2, 3]))
        text = f"{value.numerator * k}/{value.denominator * k}" if k > 1 else format_rational(value)
        text = draw(st.sampled_from(["", "", "", "+", " "])) + text
        pad = draw(st.sampled_from(["", "", "", " ", "\t"]))
        lines.append(f"{pad}{g}|{','.join(tokens) or '-'}|{text}{pad}")
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", lines[-1]])))
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(CORRUPT_LINES)))
    return "".join(line + "\n" for line in draw(st.permutations(lines)))


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
    def test_multiplication_laws(self, abc):
        a, b, c = abc
        one = Series([1] + [0] * a.order)
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
        unit = Series((c0,) + a.coeffs[1:])
        assert unit * unit.reciprocal() == Series([1] + [0] * a.order)


class TestReversion:
    @PROPERTY
    @given(revertible_series())
    def test_round_trip_against_lagrange(self, a):
        b = newton_revert(a)
        identity = Series([0, 1] + [0] * (a.order - 1))
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
    @pytest.mark.parametrize("line", ODD_SPELLINGS + CORRUPT_LINES)
    def test_line_loads_like_the_fraction_loader(self, tmp_path, line):
        path = tmp_path / "c.txt"
        path.write_text(f"2|4|1/1152\n\n{line}\n", encoding="utf-8")
        outcome = _load_outcome(load_cache, str(path))
        assert outcome == _load_outcome(_ref_load_cache, str(path))
        assert isinstance(outcome, dict) == (line in ODD_SPELLINGS)

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
