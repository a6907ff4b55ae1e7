import builtins
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction
from functools import partial
from math import factorial

import pytest

from oracles import dilaton_step, dvv_step, engine_tau, ref_tau, string_step
from wpvol import taucalc
from wpvol.genexp import volume_series
from wpvol.kappavol import volume
from wpvol.taucalc import (
    CacheFormatError,
    InconsistentMemoError,
    MemoStore,
    TauCalculator,
    canonical_key,
    format_rational,
    load_cache,
    save_cache,
)

F = Fraction


def genus0_closed_form(ds):
    """Independent genus-0 oracle: <tau_{d1}...tau_{dn}>_0 = (n-3)!/prod d_i!
    when sum d_i = n - 3 (multinomial count of boundary reductions)."""
    n = len(ds)
    if n < 3 or sum(ds) != n - 3:
        return F(0)
    denom = 1
    for d in ds:
        denom *= factorial(d)
    return F(factorial(n - 3), denom)


@pytest.fixture
def small_odd(monkeypatch):
    """A fresh (2d+1)!! table in place of the shared one, so no (2d+1)!! an
    earlier test computed can hide a scaled value; it refuses d >= 100."""
    real = taucalc._OddDoubleFactorials.__missing__

    def small_only(odd, d):
        assert d < 100, f"a rejected key was scaled by (2*{d}+1)!!"
        return real(odd, d)

    monkeypatch.setattr(taucalc._OddDoubleFactorials, "__missing__", small_only)
    monkeypatch.setattr(taucalc, "_ODD", taucalc._OddDoubleFactorials())
    return taucalc._ODD


class TestTauKey:
    def test_canonical_sorting(self):
        assert canonical_key(2, [1, 3, 2]) == (2, (3, 2, 1))
        assert canonical_key(0, []) == (0, ())

    def test_validation(self):
        with pytest.raises(ValueError):
            canonical_key(-1, [0])
        with pytest.raises(ValueError):
            canonical_key(0, [-2])

    def test_render(self):
        assert taucalc._render(*canonical_key(1, [1])) == "1|1"
        assert taucalc._render(*canonical_key(2, [2, 3])) == "2|3,2"


class TestBaseAndGates:
    def test_sphere(self, calc):
        assert engine_tau(calc, 0, [0, 0, 0]) == 1

    def test_torus(self, calc):
        assert engine_tau(calc, 1, [1]) == F(1, 24)

    def test_dimension_gate(self, calc):
        assert engine_tau(calc, 0, [0, 0, 1]) == 0
        assert engine_tau(calc, 2, [1, 1, 1]) == 0

    def test_unstable(self, calc):
        assert engine_tau(calc, 0, [0, 0]) == 0
        assert engine_tau(calc, 0, []) == 0
        assert engine_tau(calc, 1, []) == 0


class TestOneGate:
    """tau_batch tests stability and the dimension rule on the key it is
    given, and no step tests them again: every key a reduction builds from
    a key that passes is stable (2g-2+n > 0) and obeys sum(ds) = 3g-3+n."""

    @pytest.fixture
    def stepped(self, monkeypatch):
        keys = []
        step = TauCalculator._step

        def recorded(calc, key):
            keys.append(key)
            return step(calc, key)

        monkeypatch.setattr(TauCalculator, "_step", recorded)
        return keys

    @staticmethod
    def assert_rule_abiding(keys, calc):
        for g, ds in keys:
            assert 2 * g - 2 + len(ds) > 0, (g, ds)
            assert sum(ds) == 3 * g - 3 + len(ds), (g, ds)
        # each step on a cold memo stores the one key it was given
        assert len(keys) == len(set(keys)) == len(calc.store.entries)

    @pytest.mark.parametrize("g, n", [(0, 22), (1, 12), (2, 15), (3, 10), (4, 6), (5, 2),
                                      (6, 0), (8, 0)])
    def test_volume_steps_only_rule_abiding_keys(self, stepped, g, n):
        calc = TauCalculator()
        volume(g, n, calc)
        assert stepped
        self.assert_rule_abiding(stepped, calc)

    @pytest.mark.parametrize("g", range(5))
    def test_volume_series_steps_only_rule_abiding_keys(self, stepped, g):
        calc = TauCalculator()
        volume_series(g, 12, calc)
        assert stepped
        self.assert_rule_abiding(stepped, calc)

    @pytest.mark.parametrize("g, ds", [(3, (20000, 2)), (2, (2, 2, 0)), (1, ()), (0, (0, 0))])
    def test_rule_breaking_key_is_zero_before_the_memo(self, stepped, small_odd, g, ds):
        # the first two break the dimension rule; (1, ()) obeys it but is
        # unstable, and (0, (0, 0)) is unstable
        calc = TauCalculator()
        assert calc.tau_batch(g, [(d, ds.count(d)) for d in set(ds) if d], zeros=ds.count(0)) \
            == (0, 1)
        assert calc.store.entries == {} and stepped == [] and not small_odd


class TestReductions:
    def test_dilaton_example(self, calc):
        # one tau_1 against the 3-pointed sphere: factor 2g - 2 + n = 1
        assert engine_tau(calc, 0, [1, 0, 0, 0]) == 1

    def test_double_string(self, calc):
        assert engine_tau(calc, 0, [2, 0, 0, 0, 0]) == 1

    def test_genus0_against_closed_form(self, calc):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(3, 10)
            ds = [0] * n
            for _ in range(n - 3):
                ds[rng.randrange(n)] += 1
            assert engine_tau(calc, 0, ds) == genus0_closed_form(ds)

    def test_one_point_closed_form(self, calc):
        # <tau_{3g-2}>_g = 1/(24^g g!): a lone pivot leaves DVV only its
        # genus-lowering and splitting terms
        for g in range(1, 7):
            assert engine_tau(calc, g, [3 * g - 2]) == F(1, 24**g * factorial(g)), g

    def test_genus1_tau1_power_closed_form(self, calc):
        # <tau_1^n>_1 = (n-1)!/24 (dilaton down to <tau_1>_1)
        for n in range(1, 9):
            assert engine_tau(calc, 1, [1] * n) == F(factorial(n - 1), 24), n

    def test_genus1_values(self, calc):
        assert engine_tau(calc, 1, [2, 0]) == F(1, 24)
        assert engine_tau(calc, 1, [1, 1]) == F(1, 24)
        assert engine_tau(calc, 1, [3, 0, 0]) == F(1, 24)
        assert engine_tau(calc, 1, [2, 1, 0]) == F(1, 12)
        assert engine_tau(calc, 1, [1, 1, 1]) == F(1, 12)

    def test_genus2_goldens(self, calc):
        # one-point value hand-checked through the recursion once, then frozen
        assert engine_tau(calc, 2, [4]) == F(1, 1152)
        assert engine_tau(calc, 2, [3, 2]) == F(29, 5760)
        assert engine_tau(calc, 2, [2, 2, 2]) == F(7, 240)
        assert engine_tau(calc, 2, [5, 0]) == F(1, 1152)

    def test_reducers_validate(self, calc):
        with pytest.raises(ValueError):
            string_step(partial(engine_tau, calc), 0, [1, 1, 1])
        with pytest.raises(ValueError):
            dilaton_step(partial(engine_tau, calc), 0, [2, 0, 0])
        with pytest.raises(ValueError):
            dvv_step(partial(engine_tau, calc), 1, [2, 0], 1)
        with pytest.raises(ValueError):
            dvv_step(partial(engine_tau, calc), 1, [2, 0], 3)


class TestDVVNormalization:
    def test_pinning_equation(self, calc):
        # the recursion applied to <tau_2 tau_0>_1 forces 15 t = 3 t + 1/2
        t = engine_tau(calc, 1, [1])
        assert 15 * engine_tau(calc, 1, [2, 0]) == 3 * t + F(1, 2)
        assert dvv_step(partial(engine_tau, calc), 1, [2, 0], 2) == F(1, 24)

    def test_dvv_agrees_with_string_route(self, calc):
        # keys whose engine path is pure string reduction
        tau = partial(engine_tau, calc)
        for g, ds in [(1, (2, 0)), (1, (3, 0, 0)), (0, (2, 0, 0, 0, 0))]:
            for pivot in sorted({d for d in ds if d >= 2}):
                assert dvv_step(tau, g, ds, pivot) == tau(g, ds)

    def test_dvv_pivot_invariance_randomized(self, calc):
        rng = random.Random(202)
        checked = 0
        while checked < 40:
            g = rng.randint(0, 2)
            n = rng.randint(1, 5)
            dim = 3 * g - 3 + n
            if dim < 0 or 2 * g - 2 + n <= 0:
                continue
            ds = [0] * n
            for _ in range(dim):
                ds[rng.randrange(n)] += 1
            pivots = sorted({d for d in ds if d >= 2})
            if not pivots:
                continue
            reference = engine_tau(calc, g, ds)
            for pivot in pivots:
                assert dvv_step(partial(engine_tau, calc), g, ds, pivot) == reference
            checked += 1


class TestOraclesSeeMutants:
    # the one-step oracles read the engine only for the children, so a wrong
    # coefficient in the step that the engine runs on the key shows up
    @staticmethod
    def agreements(keys, step):
        tau = partial(engine_tau, TauCalculator())
        return [(tau(g, ds) == ref_tau(g, ds), tau(g, ds) == step(tau, g, ds)) for g, ds in keys]

    def test_off_by_one_dilaton_euler_factor(self, monkeypatch):
        # DVV on a smallest index 1 is the dilaton equation, 3(2g-3+n) W(g, ds[:-1])
        keys = [(2, (4, 1)), (1, (1, 1, 1, 1, 1)), (3, (7, 1, 1)), (2, (3, 2, 1, 1))]
        assert self.agreements(keys, dilaton_step) == [(True, True)] * 4
        dvv = TauCalculator._dvv

        def off_by_one(self, g, ds):
            w = yield from dvv(self, g, ds)
            if ds[-1] == 1:
                w = w // (2 * g - 3 + len(ds)) * (2 * g - 2 + len(ds))
            return w

        monkeypatch.setattr(TauCalculator, "_dvv", off_by_one)
        assert self.agreements(keys, dilaton_step) == [(False, False)] * 4

    def test_dvv_merge_weight_off_by_one(self, monkeypatch):
        # the first merge term weighted (2d+1)m + 1 instead of (2d+1)m
        keys = [(2, (3, 2)), (2, (2, 2, 2)), (3, (4, 4)), (3, (3, 3, 2, 2))]

        def at_smallest(tau, g, ds):
            return dvv_step(tau, g, ds, ds[-1])

        assert self.agreements(keys, at_smallest) == [(True, True)] * 4
        dvv = TauCalculator._dvv

        def off_by_one(self, g, ds):
            total = yield from dvv(self, g, ds)
            k, rest = ds[-1], ds[:-1]
            if rest:
                total += self.store.entries[g, taucalc._insert(rest[1:], k + rest[0] - 1)]
            return total

        monkeypatch.setattr(TauCalculator, "_dvv", off_by_one)
        assert self.agreements(keys, at_smallest) == [(False, False)] * 4


def _partitions(total, parts, largest):
    """Descending tuples of `parts` entries in [0, largest] summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, largest), -1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


class TestGenus0ClosedForm:
    def test_equals_one_dvv_step_at_every_pivot(self):
        # every genus-0 key with n <= 10: the closed form the engine stores
        # against one DVV step, whose children come from the closed form too
        calc = TauCalculator()
        checked = 0
        for n in range(3, 11):
            for ds in _partitions(n - 3, n, n - 3):
                value = engine_tau(calc, 0, ds)
                assert value == genus0_closed_form(ds), ds
                for pivot in sorted({d for d in ds if d >= 2}):
                    assert dvv_step(partial(engine_tau, calc), 0, ds, pivot) == value, (ds, pivot)
                    checked += 1
        assert checked == 45  # (key, pivot) pairs

    def test_no_intermediate_keys(self):
        calc = TauCalculator()
        assert engine_tau(calc, 0, [5, 3] + [0] * 9) == F(factorial(8),
                                                          factorial(5) * factorial(3))
        # W = C(8, 5) * 11!! * 7!!, and nothing else is stored
        assert calc.store.entries == {(0, (5, 3) + (0,) * 9): 56 * 10395 * 105}


class TestExactHalving:
    def test_poisoned_entry_raises_instead_of_rounding(self):
        # W(1, (1,)) = 2; with 3 the single split <tau_1>_1 <tau_1>_1 of
        # <tau_4>_2 adds 9 to a sum that is otherwise a multiple of 16
        calc = TauCalculator(MemoStore({(1, (1,)): 3}))
        with pytest.raises(InconsistentMemoError, match=r"2\|4"):
            engine_tau(calc, 2, [4])

    def test_two_adic_scale(self):
        # 4g - v2(W) is the 2-adic exponent of the denominator of <tau_ds>_g;
        # its maximum per genus is 3g + v2(g!), attained by
        # <tau_{3g-2}>_g = 1/(24^g g!), so it stays below the scale 4g
        calc = TauCalculator()
        for g, n_max in [(1, 10), (2, 8), (3, 6), (4, 4), (5, 2), (6, 0)]:
            for n in range(n_max + 1):
                volume(g, n, calc)
        worst = {}
        for (g, ds), w in calc.store.entries.items():
            if g >= 1:
                v2 = (w & -w).bit_length() - 1
                worst[g] = max(worst.get(g, 0), 4 * g - v2)
        assert worst == {g: 3 * g + (factorial(g) & -factorial(g)).bit_length() - 1
                         for g in range(1, 7)}
        assert [worst[g] for g in range(1, 7)] == [3, 7, 10, 15, 18, 22]


class TestInvariance:
    def test_permutation_invariance(self, calc):
        rng = random.Random(303)
        ds = [3, 1, 0, 0, 2, 0]
        g = 1  # sum = 6 = 3g - 3 + 6
        reference = engine_tau(calc, g, ds)
        for _ in range(5):
            rng.shuffle(ds)
            assert engine_tau(calc, g, ds) == reference

    def test_string_vs_dilaton_order(self, calc):
        # keys holding both a tau_0 and a tau_1: reducing either first agrees
        cases = [(0, (1, 0, 0, 0)), (1, (2, 1, 1, 0)), (2, (4, 2, 1, 0)),
                 (1, (2, 1, 0)), (2, (5, 1, 0))]
        tau = partial(engine_tau, calc)
        for g, ds in cases:
            assert sum(ds) == 3 * g - 3 + len(ds)
            assert string_step(tau, g, ds) == dilaton_step(tau, g, ds)
            assert tau(g, ds) == string_step(tau, g, ds)

    def test_non_negative(self, calc):
        rng = random.Random(404)
        for _ in range(40):
            g = rng.randint(0, 3)
            n = rng.randint(1, 6)
            if 2 * g - 2 + n <= 0 or 3 * g - 3 + n < 0:
                continue
            ds = [0] * n
            for _ in range(3 * g - 3 + n):
                ds[rng.randrange(n)] += 1
            assert engine_tau(calc, g, ds) >= 0


def pair(value):
    return value.numerator, value.denominator


class TestBatch:
    def test_expansion_rules(self, calc):
        assert calc.tau_batch(2, [(2, 3)]) == pair(ref_tau(2, [2, 2, 2]))
        assert calc.tau_batch(2, [(2, 1), (3, 1)]) == pair(ref_tau(2, [3, 2]))
        assert calc.tau_batch(2, [(4, 1)]) == pair(ref_tau(2, [4]))

    def test_pairs_and_zeros(self, calc):
        assert calc.tau_batch(0, [(2, 1)], zeros=4) == pair(ref_tau(0, [2, 0, 0, 0, 0]))


class TestPairBoundary:
    """A correlator leaves the engine as a reduced int pair, which the
    tests' engine_tau turns into a Fraction."""

    def test_every_pair_is_reduced(self, calc):
        for g in range(4):
            for n in range(1, 5):
                for ds in itertools.combinations_with_replacement(range(3 * g + 2), n):
                    p, q = calc.tau_batch(g, [(d, 1) for d in ds])
                    assert q > 0 and math.gcd(p, q) == 1, (g, ds)
                    assert F(p, q) == ref_tau(g, ds), (g, ds)

    @pytest.mark.parametrize("g, ds", [
        (0, []), (0, [0, 0]), (1, []),  # unstable
        (2, [5]), (1, [0, 0]), (3, [40, 40]),  # breaking the dimension rule
    ])
    def test_zero_is_zero_over_one(self, calc, g, ds):
        assert calc.tau_batch(g, [(d, 1) for d in ds]) == (0, 1)
        value = engine_tau(calc, g, ds)
        assert type(value) is Fraction and value == 0

    def test_tau_returns_a_fraction(self, calc):
        for g, ds, expected in [(1, [1], F(1, 24)), (2, [4], F(1, 1152)), (0, [0, 0, 0], F(1))]:
            value = engine_tau(calc, g, ds)
            assert type(value) is Fraction and value == expected


class TestDeterminism:
    def test_cold_equals_warm(self):
        cold = TauCalculator()
        value1 = engine_tau(cold, 2, [3, 2])
        warm = TauCalculator(MemoStore(cold.store.entries))
        assert engine_tau(warm, 2, [3, 2]) == value1
        fresh = TauCalculator()
        assert engine_tau(fresh, 2, [3, 2]) == value1
        assert fresh.store.entries == cold.store.entries


def dvv_merge_and_lowering_children(g, ds):
    """The children of one DVV step on the smallest index k of (g, ds), the
    step the engine takes, that are not split products: each merge of k with
    another index, and each genus-lowering key with a + b = k - 2 added."""
    k, rest = ds[-1], list(ds[:-1])
    merges = [canonical_key(g, rest[:j] + rest[j + 1:] + [k + d - 1]) for j, d in enumerate(rest)]
    return merges + [canonical_key(g - 1, rest + [a, k - 2 - a]) for a in range(k - 1)]


class TestDVVSplitChildMisses:
    # a cold run has every split product child in the memo before it asks, so
    # only a warm memo without them makes the DVV step yield its split children
    @pytest.mark.parametrize("g, ds", [(2, (4,)), (2, (2, 2, 2)), (3, (5, 2, 2))])
    def test_memo_of_merge_and_lowering_children(self, g, ds):
        cold = TauCalculator()
        value = engine_tau(cold, g, ds)
        children = dvv_merge_and_lowering_children(g, ds)
        warm = TauCalculator(MemoStore({key: cold.store.entries[key] for key in children
                                        if key in cold.store.entries}))
        assert engine_tau(warm, g, ds) == value == ref_tau(g, ds)

    def test_cache_of_a_lower_genus_job(self, tmp_path):
        path = str(tmp_path / "w.txt")
        calc = TauCalculator()
        volume(2, 3, calc)
        save_cache(calc.store, path)
        warm = volume(3, 3, TauCalculator(load_cache(path)))
        assert warm == volume(3, 3, TauCalculator())
        assert warm.v * factorial(3) * factorial(9) == F(486507137519, 725760)  # V_{3,3}


def core_entries(entries):
    """The entries save_cache writes: genus >= 1 and every index >= 2."""
    return {(g, ds): w for (g, ds), w in entries.items() if g >= 1 and min(ds, default=2) >= 2}


class TestCacheFile:
    def test_round_trip(self, tmp_path):
        calc = TauCalculator()
        engine_tau(calc, 2, [3, 2])
        engine_tau(calc, 0, [1, 0, 0, 0])
        path = tmp_path / "tau.cache"
        save_cache(calc.store, str(path))
        loaded = load_cache(str(path))
        assert loaded.entries == core_entries(calc.store.entries)
        assert (2, (3, 2)) in loaded.entries and len(loaded.entries) > 1
        # every key the file left out is rederived to the same value
        warm = TauCalculator(loaded)
        for g, ds in calc.store.entries:
            assert engine_tau(warm, g, ds) == engine_tau(calc, g, ds)
        assert warm.store.entries == calc.store.entries
        # saving the loaded store reproduces the file byte for byte
        path2 = tmp_path / "tau2.cache"
        save_cache(load_cache(str(path)), str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_known_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("2|4|1/1152\n", encoding="utf-8")
        store = load_cache(str(path))
        assert store.entries == {(2, (4,)): 210}  # 2^8 * 9!! * 1/1152
        assert engine_tau(TauCalculator(store), 2, [4]) == F(1, 1152)

    @pytest.mark.parametrize("line", ["2|2,3|29/5760", "2|3,2|58/11520", "2|3,2|+29/5760",
                                      "02|3,2|29/5760", "2|3, 2|29/5760", " 2|3,2|29/5760",
                                      "2|3,2|29/5760\t", "٢|3,2|29/5760",
                                      "4|1_0|1/7962624"])
    def test_other_spelling_of_a_true_line_rejected(self, tmp_path, line):
        # each parses to a true core entry, but save_cache writes none of them
        canonical = "4|10|1/7962624" if line.startswith("4") else "2|3,2|29/5760"
        path = tmp_path / "c.txt"
        path.write_text(f"2|4|1/1152\n{line}\n", encoding="utf-8")
        with pytest.raises(CacheFormatError) as info:
            load_cache(str(path))
        assert str(info.value) == f"cache line 2: line is not in its canonical form {canonical!r}"

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("2|4|1/1152\n\n", encoding="utf-8")
        with pytest.raises(CacheFormatError,
                           match=r"^cache line 2: expected 3 '\|'-separated fields, got 1$"):
            load_cache(str(path))

    def test_empty_index_list(self, tmp_path):
        # no core key has one, and "-", which earlier savers wrote for it, is no index
        for text, field in [("2|-|0", "'-'"), ("2||1", "''")]:
            path = tmp_path / "c.txt"
            path.write_text(f"2|4|1/1152\n{text}\n", encoding="utf-8")
            with pytest.raises(CacheFormatError,
                               match=f"^cache line 2: malformed index list {field}$"):
                load_cache(str(path))

    def test_lines_sorted(self, tmp_path):
        # W(2, (4,)) = 2^8 9!! / 1152, W(2, (3, 2)) = 2^8 7!! 5!! 29 / 5760
        store = MemoStore({(2, (4,)): 210, (2, (3, 2)): 2030})
        path = tmp_path / "c.txt"
        save_cache(store, str(path))
        lines = path.read_text().splitlines()
        assert lines == sorted(lines) == ["2|3,2|29/5760", "2|4|1/1152"]
        assert load_cache(str(path)).entries == store.entries

    def test_malformed_rational(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1|1|1/0\n", encoding="utf-8")
        with pytest.raises(CacheFormatError, match="^cache line 1: "):
            load_cache(str(path))

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("2|4|1/1152\nnot a line\n", encoding="utf-8")
        with pytest.raises(CacheFormatError, match="^cache line 2: "):
            load_cache(str(path))

    @pytest.mark.parametrize("line", ["5|0|7", "0|0,0|1", "0|-|3", "2|3,1|1/5", "1|1|1/7"])
    def test_invalid_key_with_value_rejected(self, tmp_path, line):
        # none of these keys is core ("-" is no index list): the unstable and
        # dimension-breaking ones have tau = 0, the others are one step from the core
        path = tmp_path / "c.txt"
        path.write_text("2|4|1/1152\n" + line + "\n", encoding="utf-8")
        with pytest.raises(CacheFormatError, match="^cache line 2: "):
            load_cache(str(path))

    def test_invalid_key_with_zero_value_rejected(self, tmp_path):
        # earlier savers wrote such lines; no correlator the engine stores is 0
        path = tmp_path / "c.txt"
        path.write_text("5|0|0\n0|0,0|0\n", encoding="utf-8")
        with pytest.raises(CacheFormatError, match=r"^cache line 1: key 5\|0 is not a core key"):
            load_cache(str(path))

    def test_zero_value_is_never_scaled(self, tmp_path, small_odd):
        # a dimension-breaking core-shaped key is rejected before its scale
        # is computed: its (2d+1)!! can be as large as the key's index makes it
        path = tmp_path / "c.txt"
        path.write_text("2|4|1/1152\n1|20000,2|0\n", encoding="utf-8")
        with pytest.raises(CacheFormatError, match=r"^cache line 2: key 1\|20000,2 breaks"):
            load_cache(str(path))

    @pytest.mark.parametrize("key, w", [((1, (300, 2)), 0), ((1, (20000, 2)), 0),
                                        ((2, (4,)), -210)])
    def test_save_refuses_a_line_the_loader_rejects(self, tmp_path, small_odd, key, w):
        # a hand-built memo can hold what the engine never stores: a core key
        # off the dimension rule, or a W <= 0; the saver names it, writes
        # nothing and computes no scale (40001!! for the second key)
        path = tmp_path / "c.txt"
        path.write_text("2|4|1/1152\n", encoding="utf-8")
        rendered = re.escape(taucalc._render(*key))
        with pytest.raises(ValueError, match=f"^memo entry {rendered} = {w} breaks"):
            save_cache(MemoStore({(2, (3, 2)): 2030, key: w}), str(path))
        assert path.read_bytes() == b"2|4|1/1152\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]

    def test_save_writes_every_index_as_its_own_text(self, tmp_path):
        # every index of a saved key is written as str(d), a large one too:
        # <tau_298>_100 = 1/(24^100 100!)
        path = tmp_path / "c.txt"
        den = 24 ** 100 * factorial(100)
        w, r = divmod(taucalc._scale(100, (298,)), den)
        assert not r
        save_cache(MemoStore({(100, (298,)): w, (2, (4,)): 210}), str(path))
        assert path.read_text(encoding="utf-8") == f"100|298|1/{den}\n2|4|1/1152\n"
        assert load_cache(str(path)).entries == {(100, (298,)): w, (2, (4,)): 210}

    def test_save_rejects_a_fraction_entry(self, tmp_path):
        path = tmp_path / "c.txt"
        with pytest.raises(TypeError):
            save_cache(MemoStore({(2, (4,)): F(1, 1152)}), str(path))
        assert not path.exists()

    def test_file_with_reduced_genus0_keys_is_rejected(self, tmp_path):
        # written by the recursive engine, which stored every genus-0 key its
        # string and DVV steps reached; the closed form derives each of them
        lines = ["0|0,0,0|1", "0|1,0,0,0|1", "0|1,1,0,0,0|2", "0|1,1,1,0,0,0|6",
                 "0|2,0,0,0,0|1", "0|2,1,0,0,0,0|3", "0|2,1,1,0,0,0,0|12",
                 "0|2,2,0,0,0,0,0|6", "0|2,2,1,0,0,0,0,0|30", "0|2,2,2,0,0,0,0,0,0|90",
                 "0|3,0,0,0,0,0|1", "0|3,1,0,0,0,0,0|4", "0|3,2,0,0,0,0,0,0|10",
                 "0|4,0,0,0,0,0,0|1"]
        path = tmp_path / "c.txt"
        text = "".join(line + "\n" for line in lines)
        path.write_text(text, encoding="utf-8")
        rejected = r"^cache line 1: key 0\|0,0,0 is not a core key"
        with pytest.raises(CacheFormatError, match=rejected):
            load_cache(str(path))
        assert path.read_text(encoding="utf-8") == text
        cold = TauCalculator()
        for line in lines:
            g, ds, value = line.split("|")
            assert engine_tau(cold, int(g), [int(d) for d in ds.split(",")]) == F(value)
        assert len(cold.store.entries) == len(lines)

    def test_save_leaves_no_temporary_file(self, tmp_path):
        save_cache(MemoStore({(2, (4,)): 210}), str(tmp_path / "c.txt"))
        assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def read(self):
                return self.fh.read()

            def write(self, text):
                raise OSError("no space left on device")

        def full_disk_open(file, mode="r", **kwargs):
            return FullDisk(builtins.open(file, mode, **kwargs))

        path = tmp_path / "c.txt"
        path.write_text("1|2,2|1/240\n", encoding="utf-8")
        monkeypatch.setattr(taucalc, "open", full_disk_open, raising=False)
        with pytest.raises(OSError):
            save_cache(MemoStore({(2, (4,)): 210}), str(path))
        assert path.read_text(encoding="utf-8") == "1|2,2|1/240\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]


class ParentPivot(TauCalculator):
    """The engine before dilaton first: the plain string equation while a
    tau_0 remained, and otherwise DVV on the largest index, which is the
    dilaton equation when every index is 1."""

    def _step(self, key):
        w = super()._step(key)
        if type(w) is not int and not key[1][-1]:
            return self._plain_string(*key)
        return w

    def _dvv(self, g, ds):
        """DVV on the largest index k = ds[0], the step the engine took before
        it pivoted on the smallest: every child index is placed by _insert."""
        get = self.store.entries.get
        k, rest = ds[0], ds[1:]
        runs = taucalc._runs(rest)
        total = 0
        for v, start, stop in runs:
            child = (g, taucalc._insert(rest[:start] + rest[start + 1:], k + v - 1))
            w = get(child)
            if w is None:
                w = yield child
            total += (2 * v + 1) * (stop - start) * w
        split_sum = 0
        for a in range(k - 1):
            child = (g - 1, taucalc._insert(taucalc._insert(rest, a), k - 2 - a))
            w = get(child)
            if w is None:
                w = yield child
            split_sum += w << 4
        for shift, part, weight, complement in taucalc._ordered_splits(runs):
            for a in range(-shift % 3, min(k - 2, 3 * g - shift) + 1, 3):
                g1 = (shift + a) // 3
                child = (g1, taucalc._insert(part, a))
                first = get(child)
                if first is None:
                    first = yield child
                child = (g - g1, taucalc._insert(complement, k - 2 - a))
                second = get(child)
                if second is None:
                    second = yield child
                split_sum += first * second * weight
        half, odd = divmod(split_sum, 2)
        assert not odd, (g, ds)
        return total + half

    def _plain_string(self, g, ds):
        """The string equation over W, not fused with the dilaton equation:
        lowering the last copy of each value v > 0 weighs (2v+1) per copy."""
        get = self.store.entries.get
        rest = ds[:-1]
        total = 0
        for v, start, stop in taucalc._runs(rest):
            if not v:
                break  # <tau_{-1} ...> = 0
            child = (g, rest[:stop - 1] + (v - 1,) + rest[stop:])
            w = get(child)
            if w is None:
                w = yield child
            total += (2 * v + 1) * (stop - start) * w
        return total


def full_cache_text(calc):
    """Every memo entry as a cache line, the way save_cache wrote files
    before it kept only the core keys."""
    lines = sorted(f"{g}|{','.join(map(str, ds)) or '-'}|"
                   f"{format_rational(engine_tau(calc, g, ds))}"
                   for g, ds in list(calc.store.entries))
    return "".join(line + "\n" for line in lines)


class TestCoreCache:
    def test_save_writes_no_genus0_tau0_or_tau1_line(self, tmp_path):
        calc = TauCalculator()
        for g, n in [(0, 8), (1, 4), (2, 3), (3, 2)]:
            volume(g, n, calc)
        engine_tau(calc, 2, [1, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        path = tmp_path / "c.txt"
        save_cache(calc.store, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(core_entries(calc.store.entries)) > 10
        for line in lines:
            g, ds, _ = line.split("|")
            assert int(g) >= 1 and min(map(int, ds.split(","))) >= 2, line
        assert load_cache(str(path)).entries == core_entries(calc.store.entries)

    def test_parent_full_file_is_rejected_at_its_first_non_core_line(self, tmp_path):
        # the file the cache-reuse benchmark pre-warmed before core-only saves;
        # its 121 core lines alone load and rederive every other line
        jobs = [(0, 25), (5, 1), (2, 16)]
        parent = ParentPivot()
        for g, n in jobs:
            volume(g, n, parent)
        text = full_cache_text(parent)
        lines = text.splitlines()
        assert len(lines) == 9845
        path = tmp_path / "full.txt"
        path.write_text(text, encoding="utf-8")
        key = re.escape(lines[0].rsplit("|", 1)[0])
        with pytest.raises(CacheFormatError, match=f"^cache line 1: key {key} is not a core key"):
            load_cache(str(path))
        core = [line for line in lines if line.split("|")[0] != "0"
                and min(map(int, line.split("|")[1].split(","))) >= 2]
        assert len(core) == 121
        path.write_text("".join(line + "\n" for line in core), encoding="utf-8")
        warm = TauCalculator(load_cache(str(path)))
        for g, n in jobs:
            assert volume(g, n, warm) == volume(g, n, TauCalculator())
        for line in lines:
            g, ds, value = line.split("|")
            assert engine_tau(warm, int(g), [int(d) for d in ds.split(",")]) == F(value), line

    @pytest.mark.parametrize("g, keys, core", [(6, 801, 297), (8, 4062, 1474)])
    def test_memo_sizes_under_dilaton_first(self, g, keys, core):
        calc = TauCalculator()
        volume(g, 0, calc)
        assert len(calc.store.entries) == keys
        assert len(core_entries(calc.store.entries)) == core

    def test_insert_calls_of_cold_volume_8(self, monkeypatch):
        # DVV on the smallest index appends each genus-lowering and split
        # child index, so only its merge loop inserts: 137,471 calls when
        # DVV reduced the largest index
        calls = []
        insert = taucalc._insert

        def counted(ds, v):
            calls.append(v)
            return insert(ds, v)

        monkeypatch.setattr(taucalc, "_insert", counted)
        volume(8, 0, TauCalculator())
        assert len(calls) == 5325

    def test_split_lists_of_cold_volume_8(self, monkeypatch):
        # DVV builds the ordered splits of the other indices only when k >= 2,
        # once per core key; 1,828 lists when the dilaton step (k = 1) built them too
        calls = []
        splits = taucalc._ordered_splits
        monkeypatch.setattr(taucalc, "_ordered_splits", lambda runs: calls.append(runs) or
                            splits(runs))
        calc = TauCalculator()
        volume(8, 0, calc)
        assert len(calls) == len(core_entries(calc.store.entries)) == 1474
        assert len(calc.store.entries) == 4062

    def test_large_index_line_loads_in_small_memory(self, tmp_path):
        # a 14-byte line; tabulating every (2d+1)!! up to d = 11998 took 128 MB
        path = tmp_path / "c.txt"
        path.write_text("4000|11998|1\n", encoding="utf-8")
        tracemalloc.start()
        try:
            store = load_cache(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert engine_tau(TauCalculator(store), 4000, [11998]) == 1


class TestFusedStringDilaton:
    @pytest.mark.parametrize("g, n, keys, core", [(2, 15, 1598, 3), (3, 10, 921, 14)])
    def test_memo_sizes(self, g, n, keys, core):
        # before the fused step every lowered tau_2 stored a key with a new
        # tau_1: 6,113 and 3,139 keys, the same 3 and 14 core keys
        calc = TauCalculator()
        volume(g, n, calc)
        assert len(calc.store.entries) == keys
        assert len(core_entries(calc.store.entries)) == core

    def test_agrees_with_both_reductions_and_the_parent_engine_randomized(self):
        rng = random.Random(505)
        parent = ParentPivot()
        checked = 0
        while checked < 60:
            g = rng.randint(0, 4)
            n = rng.randint(2, 8)
            dim = 3 * g - 3 + n
            if dim < 0 or 2 * g - 2 + n <= 0:
                continue
            ds = [0] * n
            for _ in range(dim):
                ds[rng.randrange(n)] += 1
            if 0 not in ds or 1 not in ds:
                continue
            calc = TauCalculator()
            value = engine_tau(calc, g, ds)
            tau = partial(engine_tau, calc)
            assert value == string_step(tau, g, ds) == dilaton_step(tau, g, ds), (g, ds)
            assert value == engine_tau(parent, g, ds), (g, ds)
            checked += 1
