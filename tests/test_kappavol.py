from fractions import Fraction

import pytest

from wpvol.genexp import induction_sides, volume_table
from wpvol.kappavol import (
    VolumeRecord,
    enumerate_multiindices,
    volume,
)
from wpvol.qseries import factorial
from wpvol.taucalc import TauCalculator

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
        with pytest.raises(ValueError):
            list(enumerate_multiindices(-1))


class TestMultiIndex:
    """A multi-index is a plain {i: l_i} dict; induction_sides checks its shape."""

    def test_validation(self, calc):
        # weights match the dimension (0 at (0, 3), 1 at (0, 4)); the entries do not
        with pytest.raises(ValueError, match="start at i = 2"):
            induction_sides(0, 3, {1: 1}, calc)
        with pytest.raises(ValueError, match=">= 0"):
            induction_sides(0, 4, {2: -1, 3: 1}, calc)


class TestVolume:
    def test_conventions(self, calc):
        for g, n in UNSTABLE:
            rec = volume(g, n, calc)
            assert rec.V == 0 and rec.v == 0
            assert rec == volume_table(g, n, calc)[n]

    def test_torus_without_points_stores_nothing(self):
        calc = TauCalculator()
        assert volume(1, 0, calc).V == 0
        assert calc.store.entries == {}

    def test_sphere_three_points(self, calc):
        rec = volume(0, 3, calc)
        assert rec.V == 1
        assert rec.v == F(1, 6)
        assert rec.dim == 0

    def test_small_genus0(self, calc):
        assert volume(0, 4, calc).V == 1
        assert volume(0, 5, calc).V == 5
        assert volume(0, 6, calc).V == 61
        assert volume(0, 7, calc).V == 1379

    def test_torus(self, calc):
        assert volume(1, 1, calc).V == F(1, 24)
        assert volume(1, 2, calc).V == F(1, 8)

    def test_genus2_closed_surface(self, calc):
        rec = volume(2, 0, calc)
        assert rec.V == F(43, 2880)
        assert rec.v == F(43, 17280)
        assert rec.dim == 3

    def test_normalization_identity(self, calc):
        for g, n in [(0, 5), (1, 3), (2, 2), (3, 1)]:
            rec = volume(g, n, calc)
            assert rec.v * factorial(n) * factorial(rec.dim) == rec.V

    def test_positive_for_stable(self, calc):
        for g in range(4):
            for n in range(8):
                if (g, n) in UNSTABLE:
                    continue
                assert volume(g, n, calc).V > 0, (g, n)

    def test_validation(self, calc):
        with pytest.raises(ValueError):
            volume(-1, 0, calc)

    def test_table(self, calc):
        table = volume_table(0, 5, calc)
        assert [rec.V for rec in table] == [0, 0, 0, 1, 1, 5]


class TestDisplay:
    def test_sphere(self, calc):
        rec = volume(0, 3, calc)
        assert (rec.v, rec.pi_power) == (F(1, 6), 0)
        assert rec.wp_volume(12).startswith("0.16666666666")

    def test_torus(self, calc):
        rec = volume(1, 1, calc)
        assert (rec.v, rec.pi_power) == (F(1, 24), 2)

    def test_genus2(self, calc):
        rec = volume(2, 0, calc)
        assert (rec.v, rec.pi_power) == (F(43, 17280), 6)
        # 43/17280 * pi^6 = 2.3921...
        assert rec.wp_volume(10).startswith("2.392")

    def test_zero(self, calc):
        rec = volume(1, 0, calc)
        assert (rec.v, rec.pi_power, rec.wp_volume(10)) == (F(0), 0, "0")

    def test_repeatable(self, calc):
        assert volume(2, 1, calc).wp_volume(15) == volume(2, 1, calc).wp_volume(15)


class TestRecordOutput:
    def test_json(self, calc):
        rec = volume(2, 0, calc)
        assert rec.to_json_dict() == {
            "g": 2, "n": 0, "dim": 3, "V": "43/2880", "v": "43/17280", "pi_power": 6,
        }

    def test_csv(self, calc):
        assert volume(0, 5, calc).csv_row() == "0,5,2,5,1/48"
