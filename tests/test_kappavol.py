from fractions import Fraction

import pytest

from wpvol.genexp import volume_table
from wpvol.kappavol import (
    CONVENTIONAL_ZEROS,
    MultiIndex,
    VolumeRecord,
    enumerate_multiindices,
    volume,
    wp_volume_display,
)
from wpvol.qseries import factorial

F = Fraction


def count_partitions(n, max_part):
    """Direct partition counter, independent of the enumerator."""
    if n == 0:
        return 1
    table = [1] + [0] * n
    for part in range(1, max_part + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


class TestMultiIndex:
    def test_weights(self):
        l = MultiIndex.from_dict({2: 3, 4: 1})
        assert l.weight == 3 + 3
        assert l.size == 4
        assert l.max_index == 4
        assert l.get(3) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiIndex(((1, 1),))
        with pytest.raises(ValueError):
            MultiIndex(((2, 0),))
        with pytest.raises(ValueError):
            MultiIndex(((3, 1), (2, 1)))

    def test_from_dict_drops_zero_entries(self):
        assert MultiIndex.from_dict({2: 0, 3: 1}).entries == ((3, 1),)

    def test_decrement(self):
        l = MultiIndex.from_dict({2: 2, 3: 1})
        assert l.decrement(2) == MultiIndex.from_dict({2: 1, 3: 1})
        assert l.decrement(3) == MultiIndex.from_dict({2: 2})
        with pytest.raises(ValueError):
            l.decrement(5)

    def test_shift_down(self):
        l = MultiIndex.from_dict({4: 1})
        assert l.shift_down(4) == MultiIndex.from_dict({3: 1})
        l2 = MultiIndex.from_dict({2: 1, 3: 2})
        assert l2.shift_down(3) == MultiIndex.from_dict({2: 2, 3: 1})
        with pytest.raises(ValueError):
            l2.shift_down(2)

    def test_json(self):
        assert MultiIndex.from_dict({4: 1, 2: 3}).to_json_dict() == {"2": 3, "4": 1}


class TestEnumeration:
    def test_weight_zero(self):
        assert list(enumerate_multiindices(0, 5)) == [MultiIndex(())]

    def test_weight_two(self):
        got = list(enumerate_multiindices(2, 4))
        assert got == [MultiIndex.from_dict({2: 2}), MultiIndex.from_dict({3: 1})]

    def test_weight_three(self):
        got = set(enumerate_multiindices(3, 5))
        assert got == {
            MultiIndex.from_dict({2: 3}),
            MultiIndex.from_dict({2: 1, 3: 1}),
            MultiIndex.from_dict({4: 1}),
        }

    def test_max_index_bound(self):
        got = list(enumerate_multiindices(3, 3))
        assert MultiIndex.from_dict({4: 1}) not in got
        assert len(got) == 2

    def test_counts_match_partition_numbers(self):
        for weight in range(0, 14):
            for max_i in (2, 3, 5, weight + 1, weight + 5):
                if max_i < 2:
                    continue
                got = sum(1 for _ in enumerate_multiindices(weight, max_i))
                assert got == count_partitions(weight, max_i - 1)

    def test_every_weight_correct(self):
        for l in enumerate_multiindices(9, 10):
            assert l.weight == 9

    def test_deterministic_order(self):
        a = list(enumerate_multiindices(6, 7))
        b = list(enumerate_multiindices(6, 7))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_multiindices(-1, 4))
        with pytest.raises(ValueError):
            list(enumerate_multiindices(3, 1))


class TestVolume:
    def test_conventions(self, calc):
        for g, n in CONVENTIONAL_ZEROS:
            rec = volume(g, n, calc)
            assert rec.V == 0 and rec.v == 0

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
                if (g, n) in CONVENTIONAL_ZEROS or 3 * g - 3 + n < 0:
                    continue
                assert volume(g, n, calc).V > 0, (g, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            volume(-1, 0)

    def test_table(self, calc):
        table = volume_table(0, 5, calc)
        assert [rec.V for rec in table] == [0, 0, 0, 1, 1, 5]


class TestDisplay:
    def test_sphere(self, calc):
        v, power, text = wp_volume_display(0, 3, 12, calc)
        assert (v, power) == (F(1, 6), 0)
        assert text.startswith("0.16666666666")

    def test_torus(self, calc):
        v, power, _ = wp_volume_display(1, 1, 10, calc)
        assert (v, power) == (F(1, 24), 2)

    def test_genus2(self, calc):
        v, power, text = wp_volume_display(2, 0, 10, calc)
        assert (v, power) == (F(43, 17280), 6)
        # 43/17280 * pi^6 = 2.3921...
        assert text.startswith("2.392")

    def test_zero(self, calc):
        assert wp_volume_display(1, 0, 10, calc) == (F(0), 0, "0")

    def test_repeatable(self, calc):
        assert wp_volume_display(2, 1, 15, calc) == wp_volume_display(2, 1, 15, calc)


class TestRecordOutput:
    def test_json(self, calc):
        rec = volume(2, 0, calc)
        assert rec.to_json_dict() == {
            "g": 2, "n": 0, "dim": 3, "V": "43/2880", "v": "43/17280", "pi_power": 6,
        }

    def test_csv(self, calc):
        assert volume(0, 5, calc).csv_row() == "0,5,2,5,1/48"
