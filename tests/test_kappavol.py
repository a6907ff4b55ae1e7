import json
from fractions import Fraction

import pytest

from oracles import kappa_volume, kappa_volume_by_index_shift, ref_tau
from wpvol.cli import EXIT_OK, main
from wpvol.genexp import volume_series
from wpvol.kappavol import (
    VolumeRecord,
    brackets,
    enumerate_multiindices,
    volume,
)
from wpvol.qseries import factorial
from wpvol.taucalc import TauCalculator
from wpvol.verify import induction_sides

F = Fraction

#: the unstable (g, n) pairs, whose volumes are 0 by convention
UNSTABLE = [(0, 0), (0, 1), (0, 2), (1, 0)]


def count_partitions(n):
    """Direct partition counter, independent of the enumerator."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


class TestEnumeration:
    def test_weight_zero(self):
        assert list(enumerate_multiindices(0)) == [{}]

    def test_weight_two(self):
        got = list(enumerate_multiindices(2))
        assert got == [{2: 2}, {3: 1}]

    def test_weight_three(self):
        got = list(enumerate_multiindices(3))
        assert got == [{2: 3}, {2: 1, 3: 1}, {4: 1}]

    def test_counts_match_partition_numbers(self):
        for weight in range(0, 14):
            got = sum(1 for _ in enumerate_multiindices(weight))
            assert got == count_partitions(weight)

    def test_every_weight_correct(self):
        for l in enumerate_multiindices(9):
            assert sum((i - 1) * m for i, m in l.items()) == 9
            assert list(l) == sorted(l) and min(l) >= 2
            assert all(m >= 1 for m in l.values())

    def test_deterministic_order(self):
        a = list(enumerate_multiindices(6))
        b = list(enumerate_multiindices(6))
        assert a == b

    def test_validation(self):
        # no multi-index has a negative weight, so an unstable volume is the empty sum
        assert list(enumerate_multiindices(-1)) == []


class TestMultiIndex:
    """A multi-index is a plain {i: l_i} dict; induction_sides checks its shape."""

    def test_validation(self, calc):
        # weights match the dimension (0 at (0, 3), 1 at (0, 4)); the entries do not
        with pytest.raises(ValueError, match="start at i = 2"):
            induction_sides(0, 3, {1: 1}, calc)
        with pytest.raises(ValueError, match=">= 0"):
            induction_sides(0, 4, {2: -1, 3: 1}, calc)


class TestBrackets:
    def test_unstable_torus_yields_nothing(self, calc):
        assert list(brackets(1, 0, calc)) == []

    @pytest.mark.parametrize("g, n", [(2, 3), (0, 8), (4, 0)])
    def test_one_entry_per_nonzero_bracket(self, calc, g, n):
        expected = []
        for l in enumerate_multiindices(3 * g - 3 + n):
            ds = [0] * n + [i for i, m in l.items() for _ in range(m)]
            denom = 1
            for m in l.values():
                denom *= factorial(m)
            if ref_tau(g, ds):
                expected.append((l, ref_tau(g, ds) / denom))
        got = [(l, F(p, q)) for l, p, q in brackets(g, n, calc)]
        assert got == expected and expected


class TestVolume:
    def test_conventions(self, calc):
        for g, n in UNSTABLE:
            rec = volume(g, n, calc)
            assert kappa_volume(rec) == 0 and rec.v == 0
            assert (rec.p, rec.q) == volume_series(g, n, calc)[n]

    def test_torus_without_points_stores_nothing(self):
        calc = TauCalculator()
        assert kappa_volume(volume(1, 0, calc)) == 0
        assert calc.store.entries == {}

    def test_sphere_three_points(self, calc):
        rec = volume(0, 3, calc)
        assert kappa_volume(rec) == 1
        assert rec.v == F(1, 6)
        assert rec.dim == 0

    def test_small_genus0(self, calc):
        assert kappa_volume(volume(0, 4, calc)) == 1
        assert kappa_volume(volume(0, 5, calc)) == 5
        assert kappa_volume(volume(0, 6, calc)) == 61
        assert kappa_volume(volume(0, 7, calc)) == 1379

    def test_torus(self, calc):
        assert kappa_volume(volume(1, 1, calc)) == F(1, 24)
        assert kappa_volume(volume(1, 2, calc)) == F(1, 8)

    def test_genus2_closed_surface(self, calc):
        rec = volume(2, 0, calc)
        assert kappa_volume(rec) == F(43, 2880)
        assert rec.v == F(43, 17280)
        assert rec.dim == 3

    def test_normalization_identity(self, calc, capsys):
        # the V column, worked out in int pairs, is v n! dim!
        for g, n in [(0, 5), (1, 3), (2, 2), (3, 1)]:
            rec = volume(g, n, calc)
            printed = json.loads(volume_out(capsys, "--genus", str(g), "--n", str(n),
                                            "--format", "json"))
            assert F(printed["V"]) == rec.v * factorial(n) * factorial(rec.dim)

    def test_positive_for_stable(self, calc):
        for g in range(4):
            for n in range(8):
                if (g, n) in UNSTABLE:
                    continue
                assert kappa_volume(volume(g, n, calc)) > 0, (g, n)

    @pytest.mark.parametrize("g, n, v", [
        (0, 0, F(0)), (0, 2, F(0)), (0, 3, F(1, 6)), (1, 0, F(0)), (1, 1, F(1, 24)),
        (2, 15, F(814869566448235417029918856379191, 6889141019797862712606720000000)),
        (4, 6, F(42785297287645040604251, 277667181515243520000)),
        (6, 0, F(2516292682076619940682627, 3298686116401093017600000)),
    ])
    def test_record_holds_the_reduced_pair(self, calc, g, n, v):
        # the values the Fraction-based sum gave before the record held ints
        rec = volume(g, n, calc)
        assert (rec.p, rec.q) == (v.numerator, v.denominator)
        assert type(rec.v) is Fraction and rec.v == v

    def test_validation(self, calc):
        with pytest.raises(ValueError):
            volume(-1, 0, calc)

    def test_table(self, calc):
        table = [VolumeRecord(0, n, p, q) for n, (p, q) in enumerate(volume_series(0, 5, calc))]
        assert [kappa_volume(rec) for rec in table] == [0, 0, 0, 1, 1, 5]


class TestIndexShiftOracle:
    """The kappa-to-tau sum with its weights pushed down to n_s tau_0's
    before any bracket is read, against `volume`."""

    @pytest.mark.parametrize("g, n, calls", [(0, 22, 1), (1, 12, 1), (2, 15, 3), (3, 10, 11),
                                             (4, 6, 30), (5, 2, 77)])
    def test_equals_volume_from_p_of_dim_brackets(self, g, n, calls):
        n_s = max(0, 3 - 2 * g)
        assert count_partitions(3 * g - 3 + n_s) == calls
        seen = []
        calc = TauCalculator()
        batch = calc.tau_batch
        calc.tau_batch = lambda genus, pairs: seen.append(pairs) or batch(genus, pairs)
        assert kappa_volume_by_index_shift(g, n, calc) == volume(g, n, TauCalculator()).v
        assert 1 <= len(seen) <= calls
        assert all(sum(m for i, m in pairs if i == 0) == n_s for pairs in seen)


def volume_out(capsys, *argv):
    """The stdout of a successful `wpvol volume` run, which renders the records."""
    assert main(["volume", *argv]) == EXIT_OK
    return capsys.readouterr().out


def volume_json(capsys, g, n, digits):
    return json.loads(volume_out(capsys, "--genus", str(g), "--n", str(n), "--format", "json",
                                 "--digits", str(digits)))


class TestDisplay:
    """v * pi^(2 dim), as `volume --digits` prints it."""

    def test_sphere(self, capsys):
        rec = volume_json(capsys, 0, 3, 12)
        assert (rec["v"], rec["pi_power"]) == ("1/6", 0)
        assert rec["wp_volume"].startswith("0.16666666666")

    def test_torus(self, capsys):
        rec = volume_json(capsys, 1, 1, 12)
        assert (rec["v"], rec["pi_power"]) == ("1/24", 2)

    def test_genus2(self, capsys):
        rec = volume_json(capsys, 2, 0, 10)
        assert (rec["v"], rec["pi_power"]) == ("43/17280", 6)
        # 43/17280 * pi^6 = 2.3921...
        assert rec["wp_volume"].startswith("2.392")

    def test_zero(self, capsys):
        rec = volume_json(capsys, 1, 0, 10)
        assert (rec["v"], rec["pi_power"], rec["wp_volume"]) == ("0", 0, "0")

    def test_repeatable(self, capsys):
        assert volume_json(capsys, 2, 1, 15) == volume_json(capsys, 2, 1, 15)


class TestRecordOutput:
    def test_json(self, capsys):
        assert json.loads(volume_out(capsys, "--genus", "2", "--n", "0", "--format", "json")) == {
            "g": 2, "n": 0, "dim": 3, "V": "43/2880", "v": "43/17280", "pi_power": 6,
        }

    def test_csv(self, capsys):
        assert volume_out(capsys, "--genus", "0", "--n", "5", "--format", "csv") == \
            "g,n,dim,V,v\n0,5,2,5,1/48\n"
