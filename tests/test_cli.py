import gc
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import engine_tau
from wpvol import cli, kappavol
from wpvol.cli import (
    EXIT_INTERRUPTED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from wpvol.digits import wp_volume
from wpvol.genexp import volume_series
from wpvol.taucalc import TauCalculator


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTau:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--genus", "1", "--ds", "1")
        assert code == EXIT_OK
        assert out == "1/24\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--genus", "0", "--ds", "0,1,0,0",
                               "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == {"g": 0, "ds": [1, 0, 0, 0], "value": "1"}

    def test_empty_indices(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--genus", "2", "--ds", "-")
        assert code == EXIT_OK
        assert out == "0\n"

    def test_bad_indices(self, capsys):
        code, _, err = run_cli(capsys, "tau", "--genus", "0", "--ds", "1,x")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_negative_index(self, capsys):
        code, out, err = run_cli(capsys, "tau", "--genus", "0", "--ds", "1,-1,3")
        assert (code, out, err) == (EXIT_USAGE, "", "error: tau indices must be >= 0\n")

    def test_value_longer_than_the_int_str_limit(self, capsys, tmp_path):
        # <tau_1^1600 tau_0^3>_0 = 1600!/1!^1600, 4434 digits; Python caps
        # int/str conversion at 4300 digits by default
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = str(math.factorial(1600))
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(expected) == 4434
        ds = ",".join(["1"] * 1600 + ["0"] * 3)
        path = tmp_path / "long.cache"
        for _ in range(2):  # a genus-0 key is not saved, so both runs derive it
            code, out, err = run_cli(capsys, "tau", "--genus", "0", "--ds", ds,
                                     "--cache", str(path))
            assert (code, out, err) == (EXIT_OK, expected + "\n", "")
            assert sys.get_int_max_str_digits() == limit
        assert path.read_text(encoding="utf-8") == ""
        # the core line <tau_3298>_1100 = 1/(24^1100 1100!), a 4388-digit
        # denominator, loads, is saved back in full beside the new core lines
        # of <tau_3 tau_2>_2, and prints; the pure hit then leaves the file alone
        sys.set_int_max_str_digits(0)
        try:
            line = f"1100|3298|1/{24 ** 1100 * math.factorial(1100)}\n"
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(line) == 4388 + len("1100|3298|1/\n")
        cold = tmp_path / "cold.cache"
        assert run_cli(capsys, "tau", "--genus", "2", "--ds", "3,2", "--cache", str(cold)) == \
            (EXIT_OK, "29/5760\n", "")
        genus2 = cold.read_text(encoding="utf-8")
        assert genus2.startswith("2|") and "2|3,2|29/5760\n" in genus2
        path.write_text(line, encoding="utf-8")
        for argv, value in ((["2", "--ds", "3,2"], "29/5760\n"),
                            (["1100", "--ds", "3298"], line.split("|")[2])):
            code, out, err = run_cli(capsys, "tau", "--genus", *argv, "--cache", str(path))
            assert (code, out, err) == (EXIT_OK, value, "")
            assert sys.get_int_max_str_digits() == limit
            assert path.read_text(encoding="utf-8") == line + genus2

    def test_600_point_key_evaluates(self, capsys):
        # a valid 600-point genus-0 key (value 1), once deeper than the recursion limit
        ds = ",".join(["597"] + ["0"] * 599)
        code, out, err = run_cli(capsys, "tau", "--genus", "0", "--ds", ds)
        assert (code, out, err) == (EXIT_OK, "1\n", "")

    def test_2000_point_genus0_key(self, capsys):
        ds = ",".join(["1997"] + ["0"] * 1999)
        code, out, err = run_cli(capsys, "tau", "--genus", "0", "--ds", ds)
        assert (code, out, err) == (EXIT_OK, "1\n", "")

    def test_1999_deep_string_chain(self, capsys):
        # <tau_2000 tau_0^1999>_1: each string step lowers tau_2000 by one,
        # down to <tau_1>_1
        ds = ",".join(["2000"] + ["0"] * 1999)
        code, out, err = run_cli(capsys, "tau", "--genus", "1", "--ds", ds)
        assert (code, out, err) == (EXIT_OK, "1/24\n", "")

    def test_too_deep_key_is_a_usage_error(self, capsys, monkeypatch):
        # no key is too deep for the worklist engine any more, so a raiser
        # stands in for one: a RecursionError still exits 2 with one error line
        def too_deep(args, calc):
            raise RecursionError

        monkeypatch.setattr(cli, "_cmd_tau", too_deep)
        code, out, err = run_cli(capsys, "tau", "--genus", "1", "--ds", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_out_of_memory_is_a_usage_error(self, capsys, monkeypatch):
        def exhausted(args, calc):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_tau", exhausted)
        code, _, err = run_cli(capsys, "tau", "--genus", "1", "--ds", "1")
        assert code == EXIT_USAGE
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestVolume:
    def test_plain_single(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "--genus", "0", "--n", "3")
        assert code == EXIT_OK
        assert out == "g=0 n=3 dim=0 V=1 v=1/6\n"

    def test_json_single(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "--genus", "2", "--n", "0",
                               "--format", "json")
        assert json.loads(out) == {
            "g": 2, "n": 0, "dim": 3, "V": "43/2880", "v": "43/17280", "pi_power": 6,
        }

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "--genus", "0", "--table", "5",
                               "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "g,n,dim,V,v"
        assert lines[4] == "0,3,0,1,1/6"
        assert lines[6] == "0,5,2,5,1/48"

    def test_digits(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "--genus", "1", "--n", "1",
                               "--format", "json", "--digits", "8")
        data = json.loads(out)
        assert data["wp_volume"].startswith("0.4112335")  # pi^2/24

    def test_digits_with_csv_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "volume", "--genus", "1", "--n", "1",
                                 "--digits", "10", "--format", "csv")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: --digits has no column in --format csv\n"

    def test_digits_table_renders_from_records(self, capsys, monkeypatch):
        expected = [json.loads(run_cli(capsys, "volume", "--genus", "2", "--n", str(n), "--format",
                                       "json", "--digits", "12")[1])["wp_volume"]
                    for n in range(5)]
        calls = []
        real_volume = kappavol.volume
        monkeypatch.setattr(kappavol, "volume", lambda *a: calls.append(a) or real_volume(*a))
        code, out, _ = run_cli(capsys, "volume", "--genus", "2", "--table", "4",
                               "--format", "json", "--digits", "12")
        assert code == EXIT_OK
        assert [row["wp_volume"] for row in json.loads(out)] == expected
        assert calls == []  # the table comes from the series, rendered per record

    @pytest.mark.parametrize("argv, out", [
        (["--genus", "0", "--n", "40", "--digits", "12"],
         "g=0 n=40 dim=37 V=888489430635893265682284586971369625459582546719812666342983137053792"
         "810591312793894169471180 v=153187832868257459600393894305408556113721128744795287300514"
         "3339747918638950539299817533571/19362166382727709211944767217375623819931171715955368503"
         "425754506366812160000000000000000 wp_volume=4.86811583866e+38 (v*pi^74)\n"),
        (["--genus", "0", "--n", "4", "--digits", "1"],
         "g=0 n=4 dim=1 V=1 v=1/24 wp_volume=0.4 (v*pi^2)\n"),
        (["--genus", "1", "--table", "2", "--digits", "3", "--format", "json"],
         '[{"g": 1, "n": 0, "dim": 0, "V": "0", "v": "0", "pi_power": 0, "wp_volume": "0"}, '
         '{"g": 1, "n": 1, "dim": 1, "V": "1/24", "v": "1/24", "pi_power": 2, "wp_volume": '
         '"0.411"}, {"g": 1, "n": 2, "dim": 2, "V": "1/8", "v": "1/32", "pi_power": 4, '
         '"wp_volume": "3.04"}]\n'),
    ], ids=["40-points", "one-digit", "json-table"])
    def test_digits_bytes(self, capsys, argv, out):
        # no benchmark job runs --digits, so its bytes are pinned here
        assert run_cli(capsys, "volume", *argv) == (EXIT_OK, out, "")

    def test_requires_a_mode(self, capsys):
        code, _, err = run_cli(capsys, "volume", "--genus", "0")
        assert code == EXIT_USAGE

    def test_n_and_table_together_are_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "volume", "--genus", "0", "--n", "3",
                                 "--table", "4", "--format", "csv")
        assert (code, out) == (EXIT_USAGE, "")
        assert "not allowed with argument" in err

    def test_negative_genus(self, capsys):
        code, _, err = run_cli(capsys, "volume", "--genus", "-1", "--n", "3")
        assert code == EXIT_USAGE


def nstr_oracle(p, q, power, digits):
    """The digits as mpmath prints them, evaluated at `digits + 10` decimal places."""
    with mpmath.workdps(digits + 10):
        return mpmath.nstr(mpmath.mpf(p) / mpmath.mpf(q) * mpmath.pi ** power, digits)


def decimal_tie(p, q, digits):
    """Whether p/q lies halfway between two numbers of `digits` significant digits."""
    x = F(p, q)
    while x >= 10 ** digits:
        x /= 10
    while x < 10 ** (digits - 1):
        x *= 10
    return x - math.floor(x) == F(1, 2)


def with_exponent(e):
    """(p, q) = 10^e / 9, so v * pi^2 = 1.096... * 10^e."""
    return (10 ** e, 9) if e >= 0 else (1, 9 * 10 ** -e)


class TestDigits:
    """`digits.wp_volume` rounds integer enclosures of v * pi^power; mpmath is its oracle."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(st.integers(1, 10 ** 40), st.integers(1, 10 ** 40), st.integers(0, 150),
           st.integers(1, 45))
    def test_equals_mpmath(self, p, q, power, digits):
        # mpmath rounds a binary p/q, which may fall below an exact decimal tie
        # at power 0; the renderer rounds the exact tie up (test_exact_tie_rounds_up)
        assume(power or not decimal_tie(p, q, digits))
        assert wp_volume(p, q, power, digits) == nstr_oracle(p, q, power, digits)

    @pytest.mark.parametrize("digits", [1, 3, 14, 15, 16, 30, 45])
    def test_format_boundaries(self, digits):
        # fixed notation iff min(-(D // 3), -5) < e < D, strict at both ends
        min_fixed = min(-(digits // 3), -5)
        for e, fixed in ((min_fixed, False), (min_fixed + 1, True), (digits - 1, True),
                         (digits, False)):
            text = wp_volume(*with_exponent(e), 2, digits)
            assert text == nstr_oracle(*with_exponent(e), 2, digits)
            assert ("e" not in text) == fixed, text

    @pytest.mark.parametrize("p, q, text, mpmath_text", [
        (3, 20, "0.2", "0.1"),  # 0.15: a binary 3/20 lies below the tie
        (1, 8, "0.13", "0.13"),  # 0.125 is dyadic, so mpmath holds it exactly
    ])
    def test_exact_tie_rounds_up(self, p, q, text, mpmath_text):
        digits = len(text) - 2
        assert wp_volume(p, q, 0, digits) == text
        assert nstr_oracle(p, q, 0, digits) == mpmath_text

    def test_zero_volume(self):
        assert wp_volume(0, 1, 4, 10) == "0"

    def test_volume_grid_equals_mpmath(self):
        # every v_{g,n} for g <= 2 with n <= 30 and g = 3..5 with n <= 12, at D = 1..40
        calc, compared = TauCalculator(), 0
        for g, n_max in ((0, 30), (1, 30), (2, 30), (3, 12), (4, 12), (5, 12)):
            for n, (p, q) in enumerate(volume_series(g, n_max, calc)):
                for digits in range(1, 41) if p else ():
                    power = 2 * (3 * g - 3 + n)
                    assert wp_volume(p, q, power, digits) == \
                        nstr_oracle(p, q, power, digits), (g, n, digits)
                    compared += 1
        assert compared == 5120

    def test_near_tie_doubles_the_precision(self, monkeypatch):
        # v pi^2 lies within 1e-39 of the tie 0.25, above it for p = up and below for
        # up - 1; mpmath at 11 places prints 0.2 for both
        with mpmath.workdps(80):
            up = int(mpmath.ceil(mpmath.mpf(10) ** 40 / 4 / mpmath.pi ** 2))
        passes = []
        from wpvol import digits
        arctan_inv = digits._arctan_inv
        monkeypatch.setattr(digits, "_arctan_inv", lambda x, bits: passes.append(bits) or
                            arctan_inv(x, bits))
        assert wp_volume(up, 10 ** 40, 2, 1) == "0.3"
        assert wp_volume(up - 1, 10 ** 40, 2, 1) == "0.2"
        assert nstr_oracle(up, 10 ** 40, 2, 1) == "0.2"
        assert len(set(passes)) > 1  # the first precision could not decide

    def test_large_digits(self):
        # V_{2,0} pi^4 at 1,000 digits, far above the property's 45
        assert wp_volume(43, 2880, 4, 1000) == nstr_oracle(43, 2880, 4, 1000)

    def test_digits_beyond_the_str_limit_of_the_enclosures(self):
        # at D = 4,100 the rounded enclosure products exceed Python's default limit of
        # 4,300 digits for int-to-str conversion; the renderer neither converts them
        # nor lifts the limit, so it runs in process with the default in force
        default = 4300
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the oracle converts long ints
        try:
            expected = nstr_oracle(43, 2880, 4, 4100)
            sys.set_int_max_str_digits(default)
            assert wp_volume(43, 2880, 4, 4100) == expected
            assert sys.get_int_max_str_digits() == default
        finally:
            sys.set_int_max_str_digits(previous)


class TestSeries:
    def test_phi0_json(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--phi", "0", "--order", "5")
        data = json.loads(out)
        assert data["order"] == 5
        assert data["coeffs"] == ["0", "0", "0", "1/6", "1/24", "1/48"]

    def test_phi2_plain(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--phi", "2", "--order", "2",
                               "--format", "plain")
        lines = out.splitlines()
        assert lines[0] == "x^0: 43/17280"

    def test_phi1_plain_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--phi", "1", "--order", "6",
                               "--format", "plain")
        assert code == EXIT_OK
        assert out == ("x^0: 0\nx^1: 1/24\nx^2: 1/32\nx^3: 7/216\nx^4: 529/13824\n"
                       "x^5: 16751/345600\nx^6: 99767/1555200\n")
        code, out, _ = run_cli(capsys, "series", "--phi", "1", "--order", "3")
        assert out == '{"order": 3, "coeffs": ["0", "1/24", "1/32", "7/216"]}\n'

    def test_low_order_phi0(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--phi", "0", "--order", "1")
        assert json.loads(out)["coeffs"] == ["0", "0"]

    def test_low_order_phi2_bytes(self, capsys):
        # below order 3 too, the series is built at the order asked for
        code, out, _ = run_cli(capsys, "series", "--phi", "2", "--order", "2")
        assert code == EXIT_OK
        assert out == '{"order": 2, "coeffs": ["43/17280", "29/3072", "787/30720"]}\n'

    def test_order_zero_bytes(self, capsys):
        assert run_cli(capsys, "series", "--phi", "2", "--order", "0") == \
            (EXIT_OK, '{"order": 0, "coeffs": ["43/17280"]}\n', "")

    @pytest.mark.parametrize("phi, order", [("-1", "3"), ("2", "-1")])
    def test_negative_genus_or_order_rejected(self, capsys, phi, order):
        code, out, err = run_cli(capsys, "series", "--phi", phi, "--order", order)
        assert (code, out) == (EXIT_USAGE, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestVerify:
    def test_all_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                               "--genus", "2", "--order", "4")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["pass"] is True

    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma",
                               "--genus", "2", "--order", "4")
        assert code == EXIT_OK
        checks = {json.loads(line)["check"] for line in out.splitlines()}
        assert checks == {"f_functional_equation", "f_value_at_zero"}

    def test_unknown_suite(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "bogus",
                             "--genus", "2", "--order", "4")
        assert code == EXIT_USAGE

    def test_negative_genus_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "all",
                                 "--genus", "-1", "--order", "4")
        assert (code, out, err) == (EXIT_USAGE, "", "error: --genus must be >= 0\n")

    @pytest.mark.parametrize("suite, g, order", [("derivative", 0, 2), ("induction", 0, 3),
                                                 ("induction", 1, 1), ("induction", 2, 0)])
    def test_empty_suite_is_a_usage_error(self, capsys, suite, g, order):
        # a suite with no check in its window would otherwise pass vacuously
        code, out, err = run_cli(capsys, "verify", "--suite", suite,
                                 "--genus", str(g), "--order", str(order))
        assert (code, out) == (EXIT_USAGE, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: suite ")

    @pytest.mark.parametrize("g", [0, 1])
    @pytest.mark.parametrize("suite", ["lemma", "theorem1", "derivative", "induction"])
    def test_every_suite_passes_below_genus2(self, capsys, suite, g):
        # the derivative window starts at the smallest stable n, the induction
        # window one later, where the fused step's child is stable
        code, out, _ = run_cli(capsys, "verify", "--suite", suite,
                               "--genus", str(g), "--order", "10")
        reports = [json.loads(line) for line in out.splitlines()]
        assert code == EXIT_OK and reports and all(r["pass"] for r in reports)
        n_s = 3 - 2 * g
        ns = {"lemma": [], "theorem1": list(range(11)), "derivative": list(range(n_s, n_s + 5)),
              "induction": list(range(n_s + 1, n_s + 5))}[suite]
        assert sorted({r["n"] for r in reports if "n" in r}) == ns
        if suite == "lemma":  # f_2 up to the highest f_i the derivative window reads
            assert [r["i"] for r in reports if r["check"] == "f_functional_equation"] == \
                list(range(2, 3 * g + n_s + 3))

    def test_induction_suite_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "induction",
                               "--genus", "2", "--order", "1")
        assert code == EXIT_OK
        line = ('{{"check": "index_shift_identity", "g": 2, "n": 1, "l": {}, '
                '"pass": true, "first_mismatch": null}}\n')
        assert out == "".join(line.format(l) for l in (
            '{"2": 4}', '{"2": 2, "3": 1}', '{"2": 1, "4": 1}', '{"3": 2}', '{"5": 1}'))

    def test_unequal_induction_sides_fail_with_no_power(self, capsys, monkeypatch):
        # the index shift compares two correlators, not two series: no power to name
        from wpvol import verify
        monkeypatch.setattr(verify, "induction_sides", lambda *args: ((1, 2), (1, 3)))
        code, out, _ = run_cli(capsys, "verify", "--suite", "induction",
                               "--genus", "2", "--order", "1")
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines()[0] == (
            '{"check": "index_shift_identity", "g": 2, "n": 1, "l": {"2": 4}, "pass": false, '
            '"first_mismatch": {"power": null, "lhs": "1/2", "rhs": "1/3"}}')

    def test_poisoned_cache_fails_theorem1(self, capsys, tmp_path):
        # the true <tau_4>_2 is 1/1152; the series side reads the cache, the
        # kappa-to-tau side its own memo, so the two routes disagree
        path = tmp_path / "poisoned.cache"
        path.write_text("2|4|1/576\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--suite", "theorem1",
                               "--genus", "2", "--order", "3", "--cache", str(path))
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines()[0] == (
            '{"check": "genus_series_vs_volume", "g": 2, "n": 0, "pass": false, '
            '"first_mismatch": {"power": 0, "lhs": "7/1920", "rhs": "43/17280"}}')
        assert path.read_text(encoding="utf-8") == "2|4|1/576\n"

    def test_off_by_one_fused_dilaton_weight_fails_three_suites(self, capsys, monkeypatch):
        # every lowered tau_2 weighted 5 * 3(2g-2+n), n the indices beside the
        # tau_0, instead of 5 * 3(2g-3+n); induction_sides reads both sides
        # through the engine, so there only its own coefficients can tell
        dvv = TauCalculator._dvv

        def off_by_one(self, g, ds):
            total = yield from dvv(self, g, ds)
            rest = ds[:-1]
            if not ds[-1] and 2 in rest and (g, len(rest)) != (1, 1):
                i = rest.index(2)
                total += 15 * rest.count(2) * self.store.entries[g, rest[:i] + rest[i + 1:]]
            return total

        monkeypatch.setattr(TauCalculator, "_dvv", off_by_one)
        for suite, failed, total in [("induction", 26, 38), ("theorem1", 4, 5),
                                     ("derivative", 4, 5)]:
            code, out, _ = run_cli(capsys, "verify", "--suite", suite,
                                   "--genus", "2", "--order", "4")
            reports = [json.loads(line) for line in out.splitlines()]
            assert code == EXIT_VERIFY_FAILED, suite
            assert (sum(not r["pass"] for r in reports), len(reports)) == (failed, total), suite

    def test_poisoned_cache_fails_derivative(self, capsys, tmp_path):
        # phi_g is built on the cache, the tau_0^n closed forms on a fresh
        # memo, so at n = 0 the same sum disagrees across the two memos
        path = tmp_path / "poisoned.cache"
        path.write_text("2|4|1/576\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--suite", "derivative",
                               "--genus", "2", "--order", "3", "--cache", str(path))
        assert code == EXIT_VERIFY_FAILED
        first = json.loads(out.splitlines()[0])
        assert (first["check"], first["n"], first["pass"]) == ("derivative_formula", 0, False)
        assert first["first_mismatch"] == {"power": 0, "lhs": "7/1920", "rhs": "43/17280"}
        assert path.read_text(encoding="utf-8") == "2|4|1/576\n"

    def test_all_builds_phi_g_once(self, capsys, monkeypatch):
        from wpvol import verify
        calls = []
        real_build = verify.build_phi_g
        monkeypatch.setattr(verify, "build_phi_g",
                            lambda *a: calls.append(a[0]) or real_build(*a))
        code, _, _ = run_cli(capsys, "verify", "--suite", "all", "--genus", "2", "--order", "6")
        assert (code, calls) == (EXIT_OK, [2])

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "theorem1",
                              "--genus", "2", "--order", "3")
        _, second, _ = run_cli(capsys, "verify", "--suite", "theorem1",
                               "--genus", "2", "--order", "3")
        assert first == second


class TestAsympt:
    def test_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "asympt", "--genus", "0", "--n-max", "16",
                               "--n-min", "10")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["g"] == 0
        assert data["n_range"] == [10, 16]
        assert set(data) == {"g", "C_est", "exponent_est", "predicted_C",
                             "rel_dev", "n_range"}

    def test_default_window(self, capsys):
        code, out, _ = run_cli(capsys, "asympt", "--genus", "0", "--n-max", "14")
        assert json.loads(out)["n_range"] == [7, 14]

    def test_too_small_window(self, capsys):
        code, _, err = run_cli(capsys, "asympt", "--genus", "0", "--n-max", "9",
                               "--n-min", "7")
        assert code == EXIT_USAGE
        code, out, err = run_cli(capsys, "asympt", "--genus", "0", "--n-max", "20",
                                 "--n-min", "-5")
        assert (code, out, err) == (EXIT_USAGE, "", "error: --n-min must be >= 1\n")

    def test_window_from_zero(self, capsys):
        # the fit's basis holds ln n, so the window starts at n = 1 at every genus
        code, out, err = run_cli(capsys, "asympt", "--genus", "2", "--n-max", "10",
                                 "--n-min", "0")
        assert (code, out, err) == (EXIT_USAGE, "", "error: --n-min must be >= 1\n")

    def test_non_positive_window(self, capsys):
        # v_{0,1} = v_{0,2} = 0: the fit takes the logarithm of each volume
        code, out, err = run_cli(capsys, "asympt", "--genus", "0", "--n-max", "8",
                                 "--n-min", "1")
        assert (code, out, err) == (EXIT_USAGE, "",
                                    "error: growth fit needs positive normalized volumes\n")


class TestCache:
    def test_failed_save_exits_3_after_the_record(self, capsys, tmp_path):
        argv = ("volume", "--genus", "2", "--n", "3")
        _, cold, _ = run_cli(capsys, *argv)
        path = tmp_path / "missing" / "c.txt"
        code, out, err = run_cli(capsys, *argv, "--cache", str(path))
        # the message names the pid-suffixed temporary file, so only its prefix is pinned
        assert (code, out) == (EXIT_IO, cold)
        assert err.startswith("error: saving cache failed:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "tau.cache"
        code, out1, _ = run_cli(capsys, "tau", "--genus", "2", "--ds", "4",
                                "--cache", str(path))
        assert code == EXIT_OK
        assert path.exists()
        text = path.read_text()
        assert "2|4|1/1152" in text
        code, out2, _ = run_cli(capsys, "tau", "--genus", "2", "--ds", "4",
                                "--cache", str(path))
        assert out1 == out2 == "1/1152\n"

    def test_malformed_cache(self, capsys, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("1|1|1/0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "tau", "--genus", "1", "--ds", "1",
                               "--cache", str(path))
        assert code == EXIT_IO
        assert "line 1" in err

    def test_cache_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.cache"
        data = b"2|4|1/1152\n\xff\xfe|1|1\n"
        path.write_bytes(data)
        inode = os.stat(path).st_ino
        code, out, err = run_cli(capsys, "tau", "--genus", "2", "--ds", "4",
                                 "--cache", str(path))
        assert (code, out, err) == (EXIT_IO, "", "error: cache line 2: not UTF-8 text\n")
        assert path.read_bytes() == data and os.stat(path).st_ino == inode

    def test_dimension_breaking_cache_line(self, capsys, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("2|4|1/1152\n3|4,3|1/7\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "volume", "--genus", "2", "--n", "0",
                                 "--cache", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert err == "error: cache line 2: key 3|4,3 breaks the dimension rule " \
                      "sum(ds) = 3g-3+n = 8\n"
        assert path.read_text(encoding="utf-8") == "2|4|1/1152\n3|4,3|1/7\n"

    def test_pure_hit_run_leaves_the_file_alone(self, capsys, tmp_path):
        path = tmp_path / "unsorted.cache"
        text = "2|4|1/1152\n2|3,2|29/5760\n"  # valid, but not in the order a save writes
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "tau", "--genus", "2", "--ds", "4",
                               "--cache", str(path))
        assert (code, out) == (EXIT_OK, "1/1152\n")
        assert path.read_text(encoding="utf-8") == text

    def test_run_that_adds_entries_saves(self, capsys, tmp_path):
        path = tmp_path / "grow.cache"
        path.write_text("2|4|1/1152\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "tau", "--genus", "2", "--ds", "3,2",
                             "--cache", str(path))
        assert code == EXIT_OK
        assert path.read_text(encoding="utf-8") == "2|3,2|29/5760\n2|4|1/1152\n"

    def test_failed_verify_leaves_the_file_alone(self, capsys, tmp_path):
        # the series side derives new core keys from the wrong 2|4 value;
        # saving them would spread it to later runs that read the cache
        path = tmp_path / "poisoned.cache"
        path.write_bytes(b"2|4|1/576\n")
        code, _, _ = run_cli(capsys, "verify", "--suite", "theorem1",
                             "--genus", "2", "--order", "3", "--cache", str(path))
        assert code == EXIT_VERIFY_FAILED
        assert path.read_bytes() == b"2|4|1/576\n"

    @pytest.mark.parametrize("argv", [
        ["volume", "--genus", "1", "--n", "1"],
        ["tau", "--genus", "1", "--ds", "1"],
        ["verify", "--suite", "theorem1", "--genus", "1", "--order", "3"],
    ], ids=["volume", "tau", "verify"])
    def test_non_core_line_exits_3_before_the_command_runs(self, capsys, tmp_path, argv):
        # a wrong <tau_1>_1 that earlier loaders trusted: volume printed V=1/12,
        # and no genus-1 verify can see it, as genus 1 has no core key
        path = tmp_path / "poisoned.cache"
        path.write_bytes(b"1|1|1/12\n")
        code, out, err = run_cli(capsys, *argv, "--cache", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert err == "error: cache line 1: key 1|1 is not a core key " \
                      "(genus >= 1, every index >= 2)\n"
        assert path.read_bytes() == b"1|1|1/12\n"

    def test_other_spelling_of_a_core_line_exits_3(self, capsys, tmp_path):
        # int() reads "1_0" as 10, so earlier loaders took this line for <tau_10>_4
        path = tmp_path / "spelled.cache"
        path.write_bytes(b"4|1_0|1/7962624\n")
        code, out, err = run_cli(capsys, "tau", "--genus", "4", "--ds", "10",
                                 "--cache", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert err == "error: cache line 1: line is not in its canonical form " \
                      "'4|10|1/7962624'\n"
        assert path.read_bytes() == b"4|1_0|1/7962624\n"

    def test_first_run_creates_the_file_even_when_empty(self, capsys, tmp_path):
        path = tmp_path / "new.cache"
        code, out, _ = run_cli(capsys, "tau", "--genus", "0", "--ds", "0,0",
                               "--cache", str(path))
        assert (code, out) == (EXIT_OK, "0\n")
        assert path.read_text(encoding="utf-8") == ""

    def test_interrupt_exits_130_and_keeps_the_cache(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "kept.cache"
        text = "2|4|1/1152\n"
        path.write_text(text, encoding="utf-8")

        def interrupted(args, calc):
            engine_tau(calc, 2, [3, 2])  # the memo grows before the interrupt
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_tau", interrupted)
        code, out, err = run_cli(capsys, "tau", "--genus", "2", "--ds", "3,2",
                                 "--cache", str(path))
        assert (code, out, err) == (EXIT_INTERRUPTED, "", "error: interrupted\n")
        assert path.read_text(encoding="utf-8") == text

    def test_interrupt_during_the_save_exits_130(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "kept.cache"
        path.write_text("2|4|1/1152\n", encoding="utf-8")

        def interrupted(store, target):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "save_cache", interrupted)
        code, out, err = run_cli(capsys, "tau", "--genus", "2", "--ds", "3,2",
                                 "--cache", str(path))
        assert (code, out, err) == (EXIT_INTERRUPTED, "29/5760\n", "error: interrupted\n")
        assert path.read_text(encoding="utf-8") == "2|4|1/1152\n"

    def test_value_that_is_no_correlator(self, capsys, tmp_path):
        # 2^8 * 7!! * 5!! * 1/11 is not an integer, so no correlator has this value
        path = tmp_path / "bad.cache"
        path.write_text("2|4|1/1152\n2|3,2|1/11\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "volume", "--genus", "2", "--n", "1",
                                 "--cache", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert "line 2" in err
        assert path.read_text(encoding="utf-8") == "2|4|1/1152\n2|3,2|1/11\n"

    @pytest.mark.parametrize("text, argv, line", [
        ("2|4|-1/1152\n", ["volume", "--genus", "2", "--n", "0"], 1),
        ("2|4|0\n", ["tau", "--genus", "2", "--ds", "4"], 1),
        ("0|0,0,0|-1\n", ["tau", "--genus", "0", "--ds", "0,0,0"], 1),
        ("2|4|1/1152\n2|4|1/576\n", ["tau", "--genus", "2", "--ds", "4"], 2),
    ], ids=["negative", "zero", "negative-genus0", "repeated-key"])
    def test_value_no_correlator_has(self, capsys, tmp_path, text, argv, line):
        # every core correlator is positive, save_cache writes each key once,
        # and a genus-0 line is no core line whatever its value
        path = tmp_path / "bad.cache"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, "--cache", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert f"line {line}:" in err
        assert path.read_text(encoding="utf-8") == text

    def test_value_that_breaks_the_recursion(self, capsys, tmp_path):
        # W(2, (4,)) = 211 (the true W is 210) passes the load check, but the
        # DVV split sum of <tau_10>_4 holds its square once, so it is odd,
        # through the tau command and the kappa route's pairs
        path = tmp_path / "bad.cache"
        path.write_text("2|4|211/241920\n", encoding="utf-8")
        for argv in (["tau", "--genus", "4", "--ds", "10"],
                     ["volume", "--genus", "4", "--n", "0"]):
            code, out, err = run_cli(capsys, *argv, "--cache", str(path))
            assert (code, out) == (EXIT_IO, ""), argv
            assert err.startswith("error:") and len(err.splitlines()) == 1
            assert "4|10" in err
            assert path.read_text(encoding="utf-8") == "2|4|211/241920\n"

    def test_poisoned_core_entry_fails_verify(self, capsys, tmp_path):
        # the true <tau_4>_2 is 1/1152; the series side reads the cache, the
        # kappa-to-tau side its own memo, so the two routes disagree
        path = tmp_path / "poisoned.cache"
        path.write_bytes(b"2|4|1/576\n")
        code, out, _ = run_cli(capsys, "verify", "--suite", "theorem1",
                               "--genus", "2", "--order", "3", "--cache", str(path))
        assert code == EXIT_VERIFY_FAILED
        first = json.loads(out.splitlines()[0])
        assert (first["n"], first["pass"]) == (0, False)
        assert first["first_mismatch"] == {"power": 0, "lhs": "7/1920", "rhs": "43/17280"}
        assert path.read_bytes() == b"2|4|1/576\n"

    def test_warm_run_that_adds_no_core_entry_leaves_the_file_alone(self, capsys, tmp_path):
        # the warm run rederives every non-core key, but the file already
        # holds the core it would write, so it is not replaced
        path = tmp_path / "core.cache"
        argv = ["volume", "--genus", "2", "--n", "6", "--cache", str(path)]
        _, cold, _ = run_cli(capsys, *argv)
        before = path.stat()
        text = path.read_text(encoding="utf-8")
        assert text and all(line.split("|")[0] != "0" and
                            min(map(int, line.split("|")[1].split(","))) >= 2
                            for line in text.splitlines())
        code, warm, _ = run_cli(capsys, *argv)
        assert (code, warm) == (EXIT_OK, cold)
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert path.read_text(encoding="utf-8") == text

    def test_genus0_table_saves_onto_an_existing_cache_unchanged(self, capsys, monkeypatch,
                                                                 tmp_path):
        # the genus-0 series reads <tau_0^3>_0 into the memo, so the run saves,
        # but a save keeps core keys only, which the file already holds
        path = tmp_path / "core.cache"
        run_cli(capsys, "volume", "--genus", "2", "--n", "4", "--cache", str(path))
        before, data = path.stat(), path.read_bytes()
        saves = []
        save = cli.save_cache
        monkeypatch.setattr(cli, "save_cache", lambda *args: saves.append(save(*args)))
        code, out, _ = run_cli(capsys, "volume", "--genus", "0", "--table", "8",
                               "--cache", str(path))
        assert (code, len(saves)) == (EXIT_OK, 1)
        assert out.splitlines()[-1] == "g=0 n=8 dim=5 V=49946 v=24973/2419200"
        after = path.stat()
        assert path.read_bytes() == data
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_cache_warm_and_cold_agree(self, capsys, tmp_path):
        path = tmp_path / "warm.cache"
        _, cold, _ = run_cli(capsys, "volume", "--genus", "2", "--n", "2",
                             "--cache", str(path))
        _, warm, _ = run_cli(capsys, "volume", "--genus", "2", "--n", "2",
                             "--cache", str(path))
        assert cold == warm


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_missing_required(self, capsys):
        assert main(["tau", "--genus", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, name", [
        ([], "command"),
        (["bogus"], "bogus"),
        (["tau", "--genus", "1", "--ds", "1", "--bogus"], "--bogus"),
        (["tau", "--genus", "1", "--ds"], "--ds"),
        (["tau", "--ds", "--genus", "1"], "--ds"),
        (["tau", "--genus", "x", "--ds", "1"], "--genus"),
        (["verify", "--suite", "bogus", "--genus", "2", "--order", "2"], "--suite"),
        (["verify", "--suite", "all", "--genus", "2"], "--order"),
        (["volume", "--genus", "0", "--n", "3", "--table", "4"], "--table"),
        (["volume", "--genus", "0"], "--n"),
        (["asympt", "--genus", "0", "--n", "12"], "--n"),
        # a value may start with '-': this one reaches the parser's least-value check
        (["asympt", "--genus", "0", "--n-max", "12", "--n-min", "-5"],
         "error: --n-min must be >= 1"),
        # every option starts with '--', which alone is no prefix of one
        (["tau", "--genus", "1", "--ds", "1", "--"], "error: unrecognized arguments: --"),
    ], ids=["no-command", "unknown-command", "unknown-option", "missing-value",
            "option-as-value", "bad-int", "bad-choice", "missing-required", "n-and-table",
            "neither-n-nor-table", "ambiguous-prefix", "negative-value", "double-dash"])
    def test_usage_error_names_the_argument(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert "error:" in err.splitlines()[-1] and name in err.splitlines()[-1]

    @pytest.mark.parametrize("argv", [
        ["tau", "--genus=1", "--ds=1"],
        ["tau", "--gen", "1", "--ds", "1"],  # a unique prefix
        ["tau", "--genus", "1", "--ds", "1", "--format", "json", "--format", "plain"],
    ], ids=["equals", "prefix", "repeated"])
    def test_option_spellings(self, capsys, argv):
        assert run_cli(capsys, *argv) == (EXIT_OK, "1/24\n", "")

    @pytest.mark.parametrize("argv, names", [
        (["-h"], ["tau", "volume", "series", "verify", "asympt"]),
        (["--help"], ["tau", "volume", "series", "verify", "asympt"]),
        (["tau", "-h"], ["--genus", "--ds", "--format", "--cache"]),
        (["volume", "--help"], ["--genus", "--n", "--table", "--format", "--digits", "--cache"]),
        (["series", "-h"], ["--phi", "--order", "--format", "--cache"]),
        (["verify", "--help"], ["--suite", "--genus", "--order", "--cache"]),
        (["asympt", "-h"], ["--genus", "--n-max", "--n-min", "--cache"]),
    ], ids=["top-h", "top-help", "tau", "volume", "series", "verify", "asympt"])
    def test_help_lists_every_option(self, capsys, argv, names):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert set(names) <= set(re.findall(r"[\w-]+", out))

    #: (command, int option, its least value, the other options of the run, and whether
    #: that run is valid at the least value)
    BOUNDS = [
        ("tau", "--genus", 0, ["--ds", "0,0,0"], True),
        ("volume", "--genus", 0, ["--n", "3"], True),
        ("volume", "--n", 0, ["--genus", "2"], True),
        ("volume", "--table", 0, ["--genus", "2"], True),
        ("volume", "--digits", 1, ["--genus", "0", "--n", "4"], True),
        ("series", "--phi", 0, ["--order", "3"], True),
        ("series", "--order", 0, ["--phi", "2"], True),
        ("verify", "--genus", 0, ["--suite", "theorem1", "--order", "3"], True),
        ("verify", "--order", 0, ["--suite", "theorem1", "--genus", "2"], True),
        ("asympt", "--genus", 0, ["--n-max", "16", "--n-min", "10"], True),
        ("asympt", "--n-max", 1, ["--genus", "2"], False),  # a fit needs 6 points
        ("asympt", "--n-min", 1, ["--genus", "2", "--n-max", "6"], True),
    ]

    def test_bounds_cover_every_int_option(self):
        assert sorted((command, name, least) for command, name, least, *_ in self.BOUNDS) == \
            sorted((command, name, kind) for command, (_, options, _) in cli.COMMANDS.items()
                   for name, (kind, *_) in options.items() if isinstance(kind, int))

    @pytest.mark.parametrize("command, name, least, others, valid", BOUNDS,
                             ids=[f"{c}-{n[2:]}" for c, n, *_ in BOUNDS])
    def test_int_option_below_its_least_value(self, capsys, command, name, least, others,
                                              valid):
        assert run_cli(capsys, command, *others, name, str(least - 1)) == \
            (EXIT_USAGE, "", f"error: {name} must be >= {least}\n")
        if valid:
            code, out, err = run_cli(capsys, command, *others, name, str(least))
            assert (code, err) == (EXIT_OK, "") and out

    def test_repeated_option_is_checked_at_its_last_value(self, capsys):
        argv = ["volume", "--genus", "2", "--n", "1"]
        assert run_cli(capsys, *argv, "--digits", "0", "--digits", "5") == \
            (EXIT_OK, "g=2 n=1 dim=4 V=29/128 v=29/3072 wp_volume=89.573 (v*pi^8)\n", "")
        assert run_cli(capsys, *argv, "--digits", "5", "--digits", "0") == \
            (EXIT_USAGE, "", "error: --digits must be >= 1\n")

    def test_exact_name_wins_over_a_prefix(self, monkeypatch):
        # no command has an option that prefixes another one yet, so add one
        opt = (0, False, None, "")  # an int option whose least value is 0
        monkeypatch.setitem(cli.COMMANDS, "probe", ("", {"--n": opt, "--n-max": opt}, ()))
        args = cli.parse_args(["probe", "--n", "1", "--n-m", "2"])
        assert (args.n, args.n_max) == (1, 2)

    def test_console_script_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["wpvol", "tau", "--genus", "1", "--ds", "1"])
        assert main() == EXIT_OK
        assert capsys.readouterr().out == "1/24\n"


#: the text a command prints in a JSON string: rationals, decimals, names and keys,
#: none of which JSON escapes
JSON_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                  blacklist_characters='"\\'))
#: every value shape a command prints as JSON
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20)


class TestJsonRenderer:
    """`cli._json` writes the bytes `json.dumps` would, without loading `json`."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(JSON_VALUES)
    def test_equals_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value)

    @pytest.mark.parametrize("argv", [
        ["tau", "--genus", "2", "--ds", "1,4", "--format", "json"],
        ["volume", "--genus", "2", "--n", "3", "--format", "json", "--digits", "5"],
        ["volume", "--genus", "1", "--table", "3", "--format", "json", "--digits", "3"],
        ["series", "--phi", "2", "--order", "4"],
        # the l dict of each index shift, and a null first mismatch
        ["verify", "--suite", "all", "--genus", "2", "--order", "3"],
        ["asympt", "--genus", "0", "--n-max", "12"],
    ], ids=["tau", "volume-n", "volume-table", "series", "verify", "asympt"])
    def test_each_command_prints_json_dumps_bytes(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK and out
        assert out == "".join(json.dumps(json.loads(line)) + "\n" for line in out.splitlines())

    def test_failed_report_prints_json_dumps_bytes(self, capsys, tmp_path):
        # a first_mismatch dict, and one with a null power
        path = tmp_path / "poisoned.cache"
        path.write_text("2|4|1/576\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--genus", "2", "--order", "3",
                               "--cache", str(path))
        assert code == EXIT_VERIFY_FAILED and '"first_mismatch": {"power": 0' in out
        assert out == "".join(json.dumps(json.loads(line)) + "\n" for line in out.splitlines())
        mismatch = {"power": None, "lhs": "1/2", "rhs": "-1/3"}
        report = {"check": "index_shift_identity", "g": 2, "n": 1, "l": {"2": 4}, "pass": False,
                  "first_mismatch": mismatch}
        assert cli._json(report) == json.dumps(report)

    @pytest.mark.parametrize("value", [
        1.5, (1, 2), F(1, 2), {1: "a"}, {"a": (1,)}, [1, {2}], b"x", {None: 1},
    ], ids=["float", "tuple", "fraction", "int-key", "nested-tuple", "set", "bytes", "none-key"])
    def test_a_type_no_command_prints_raises(self, value):
        with pytest.raises(TypeError):
            cli._json(value)

    @pytest.mark.parametrize("text", ['"', "\\", "\n", "\x7f", "é"])
    def test_a_string_json_would_escape_raises(self, text):
        with pytest.raises(ValueError):
            cli._json({"v": "a" + text})
        with pytest.raises(ValueError):
            cli._json({text: 1})


SRC = os.path.dirname(os.path.dirname(cli.__file__))


def cli_env(**extra):
    """The environment of a fresh interpreter that imports this checkout's wpvol."""
    return dict(os.environ, PYTHONPATH=SRC, **extra)


#: run one command in a fresh interpreter (pytest itself loads `inspect`), take
#: the modules loaded when it returns, then print its exit code, the wpvol
#: modules among them, and which of the standard library's heavier modules it
#: loaded: argparse and its gettext and locale, json, dataclasses, inspect, and
#: fractions with the decimal it imports; and whether it loaded mpmath, the
#: one third-party module the product once used
IMPORT_PROBE = """
import os, sys
from wpvol import cli
sys.stdout = open(os.devnull, "w")
rc = cli.main(sys.argv[1:])
loaded = set(sys.modules)
sys.stdout = sys.__stdout__
import json
watched = ("argparse", "dataclasses", "decimal", "fractions", "gettext", "inspect", "json",
           "locale", "mpmath")
print(json.dumps([rc, sorted(m for m in loaded if m.split(".")[0] == "wpvol"),
                  [m for m in watched if m in loaded]]))
"""

CORE = ["wpvol", "wpvol.cli", "wpvol.taucalc"]
KAPPA = sorted(CORE + ["wpvol.kappavol"])
SERIES = sorted(KAPPA + ["wpvol.qseries", "wpvol.genexp"])


class TestImports:
    # `cli` writes its JSON itself, so no command loads `json`
    @pytest.mark.parametrize("argv, modules, watched", [
        # tau renders the engine's int pair, so it never builds a Fraction either
        (["tau", "--genus", "1", "--ds", "1"], CORE, []),
        (["tau", "--genus", "1", "--ds", "1", "--format", "json"], CORE, []),
        # volume --n carries its values as int pairs, so it never builds a Fraction
        (["volume", "--genus", "2", "--n", "3", "--format", "json"], KAPPA, []),
        (["volume", "--genus", "2", "--n", "3"], KAPPA, []),
        (["volume", "--genus", "2", "--n", "3", "--format", "csv"], KAPPA, []),
        (["volume", "--genus", "2", "--n", "3", "--cache", "{cache}"], KAPPA, []),
        # the series hold int pairs too, so no command builds a Fraction
        (["volume", "--genus", "2", "--table", "3"], SERIES, []),
        # --digits rounds integer enclosures of pi in its own module, and loads no
        # third-party module
        (["volume", "--genus", "2", "--n", "3", "--digits", "10"],
         sorted(KAPPA + ["wpvol.digits"]), []),
        (["volume", "--genus", "2", "--table", "3", "--digits", "10", "--format", "json"],
         sorted(SERIES + ["wpvol.digits"]), []),
        (["series", "--phi", "2", "--order", "3"], SERIES, []),
        # only verify loads the suites
        (["verify", "--suite", "all", "--genus", "2", "--order", "2"],
         sorted(SERIES + ["wpvol.verify"]), []),
        # only the growth fit's logarithms are decimals
        (["asympt", "--genus", "0", "--n-max", "12"], sorted(SERIES + ["wpvol.asympt"]),
         ["decimal"]),
        # the peak jobs of the genus-series benchmark
        (["verify", "--suite", "lemma", "--genus", "4", "--order", "9"],
         sorted(SERIES + ["wpvol.verify"]), []),
        (["series", "--phi", "4", "--order", "12", "--format", "plain"], SERIES, []),
    ], ids=["tau", "tau-json", "volume-n", "volume-plain", "volume-csv", "volume-cache",
            "volume-table", "volume-digits", "volume-table-digits-json", "series", "verify",
            "asympt", "verify-lemma-peak", "series-peak"])
    def test_each_command_loads_only_what_it_runs(self, argv, modules, watched, tmp_path):
        cache = tmp_path / "c.txt"
        argv = [arg.format(cache=cache) for arg in argv]
        for _ in range(2 if "--cache" in argv else 1):  # cold, then loading what it saved
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], env=cli_env(),
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == [EXIT_OK, modules, watched]
        assert cache.exists() == ("--cache" in argv)


#: run the program as `python -m wpvol.cli` does, with an atexit hook that
#: prints on stderr how many objects the collector holds frozen at exit
FREEZE_PROBE = """
import atexit, gc, runpy, sys
assert gc.get_freeze_count() == 0
atexit.register(lambda: print("frozen", gc.get_freeze_count(), file=sys.stderr))
runpy.run_module("wpvol.cli", run_name="__main__", alter_sys=True)
"""


class TestProcessExit:
    @pytest.mark.parametrize("argv, code, out", [
        (["tau", "--genus", "1", "--ds", "1"], EXIT_OK, "1/24\n"),
        (["tau", "--genus", "x", "--ds", "1"], EXIT_USAGE, ""),
    ])
    def test_program_entry_freezes_the_heap(self, argv, code, out):
        proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE, *argv], env=cli_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (code, out)
        label, count = proc.stderr.splitlines()[-1].split()
        assert label == "frozen" and int(count) > 0

    def test_main_in_process_never_freezes(self, capsys):
        before = gc.get_freeze_count()
        assert main(["volume", "--genus", "2", "--n", "3"]) == EXIT_OK
        assert main(["tau", "--genus", "x", "--ds", "1"]) == EXIT_USAGE
        assert gc.get_freeze_count() == before

    def test_console_script_is_the_program_entry(self):
        with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as fh:
            assert 'wpvol = "wpvol.cli:run"\n' in fh.readlines()

    def test_no_runtime_dependency(self):
        # the product runs on the standard library; mpmath is a test-only oracle
        with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as fh:
            lines = fh.readlines()
        assert "dependencies = []\n" in lines
        assert 'test = ["pytest>=7", "hypothesis>=6", "mpmath>=1.3"]\n' in lines

    @staticmethod
    def run_without_reader(argv, unbuffered, stderr_too=False):
        """Run the program with a stdout pipe whose read end is already closed."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run([sys.executable, "-m", "wpvol.cli", *argv], stdout=write_end,
                                  stderr=write_end if stderr_too else subprocess.PIPE, text=True,
                                  timeout=60, env=cli_env(PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write_end)

    # unbuffered, the first write fails; buffered, the flush in main or before the save does
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["tau", "--genus", "1", "--ds", "1"], ["--help"]],
                             ids=["tau", "help"])
    def test_stdout_without_a_reader_exits_3(self, argv, unbuffered):
        proc = self.run_without_reader(argv, unbuffered)
        assert proc.returncode == EXIT_IO
        assert proc.stderr == "error: stdout was closed before the output was written\n"

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_stderr_to_the_same_closed_pipe_exits_3(self, unbuffered):
        proc = self.run_without_reader(["tau", "--genus", "1", "--ds", "1"], unbuffered,
                                       stderr_too=True)
        assert proc.returncode == EXIT_IO

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_stdout_without_a_reader_keeps_the_cache(self, capsys, tmp_path, unbuffered):
        path = tmp_path / "c.txt"
        assert main(["tau", "--genus", "2", "--ds", "4", "--cache", str(path)]) == EXIT_OK
        before = path.read_bytes()
        job = ["volume", "--genus", "2", "--n", "3", "--cache", str(path)]
        proc = self.run_without_reader(job, unbuffered)
        assert proc.returncode == EXIT_IO
        assert proc.stderr == "error: stdout was closed before the output was written\n"
        assert path.read_bytes() == before
        assert main(job) == EXIT_OK and path.read_bytes() != before  # a run with a reader saves

    def test_reader_that_closes_early_gets_exit_3(self):
        proc = subprocess.Popen([sys.executable, "-m", "wpvol.cli", "series", "--phi", "0",
                                 "--order", "300", "--format", "plain"], env=cli_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(20)  # the output is far larger than a pipe holds
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_IO
        assert head == b"x^0: 0\nx^1: 0\nx^2: 0"
        assert err == "error: stdout was closed before the output was written\n"
