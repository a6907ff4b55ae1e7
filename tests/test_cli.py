import json
import math
import os
import re
import subprocess
import sys

import pytest

from wpvol import cli, kappavol
from wpvol.cli import (
    EXIT_INTERRUPTED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from wpvol.kappavol import volume
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
        # a core line with a 4434-digit value (not the true 1/1152, but one
        # the loader accepts) loads, is saved back in full and prints
        path.write_text(f"1|1|1/24\n2|4|{expected}\n", encoding="utf-8")
        for argv in (["1", "--ds", "2,0"], ["2", "--ds", "4"]):
            code, out, err = run_cli(capsys, "tau", "--genus", *argv, "--cache", str(path))
            assert code == EXIT_OK and err == ""
            assert sys.get_int_max_str_digits() == limit
            assert path.read_text(encoding="utf-8") == f"2|4|{expected}\n"
        assert out == expected + "\n"

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

    def test_digits_table_renders_from_records(self, capsys, monkeypatch, calc):
        expected = [volume(2, n, calc).wp_volume(12) for n in range(5)]
        calls = []
        real_volume = kappavol.volume
        monkeypatch.setattr(kappavol, "volume", lambda *a: calls.append(a) or real_volume(*a))
        code, out, _ = run_cli(capsys, "volume", "--genus", "2", "--table", "4",
                               "--format", "json", "--digits", "12")
        assert code == EXIT_OK
        assert [row["wp_volume"] for row in json.loads(out)] == expected
        assert calls == []  # the table comes from the series, rendered per record

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

    def test_phi1_rejected(self, capsys):
        code, _, err = run_cli(capsys, "series", "--phi", "1", "--order", "5")
        assert code == EXIT_USAGE
        assert "genus 1" in err

    def test_low_order_phi0(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--phi", "0", "--order", "1")
        assert json.loads(out)["coeffs"] == ["0", "0"]

    def test_low_order_phi2_bytes(self, capsys):
        # below order 3 the series is built at order 3 and cut back
        code, out, _ = run_cli(capsys, "series", "--phi", "2", "--order", "2")
        assert code == EXIT_OK
        assert out == '{"order": 2, "coeffs": ["43/17280", "29/3072", "787/30720"]}\n'


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

    def test_genus1_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "all",
                             "--genus", "1", "--order", "4")
        assert code == EXIT_USAGE

    def test_induction_suite_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "induction",
                               "--genus", "2", "--order", "1")
        assert code == EXIT_OK
        line = ('{{"check": "index_shift_identity", "g": 2, "n": 1, "l": {}, '
                '"pass": true, "first_mismatch": null}}\n')
        assert out == "".join(line.format(l) for l in (
            '{"2": 4}', '{"2": 2, "3": 1}', '{"2": 1, "4": 1}', '{"3": 2}', '{"5": 1}'))

    def test_poisoned_cache_fails_theorem1(self, capsys, tmp_path):
        # the true <tau_1>_1 is 1/24; the series side reads the cache, the
        # kappa-to-tau side its own memo, so the two routes disagree
        path = tmp_path / "poisoned.cache"
        path.write_text("1|1|1/12\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--suite", "theorem1",
                               "--genus", "2", "--order", "3", "--cache", str(path))
        assert code == EXIT_VERIFY_FAILED
        first = json.loads(out.splitlines()[0])
        assert (first["n"], first["pass"]) == (0, False)
        assert first["first_mismatch"] == {"power": 0, "lhs": "17/3360", "rhs": "43/17280"}

    def test_off_by_one_fused_dilaton_weight_fails_three_suites(self, capsys, monkeypatch):
        # every lowered tau_2 weighted 5 * 3(2g-2+n), n the indices beside the
        # tau_0, instead of 5 * 3(2g-3+n); induction_sides reads both sides
        # through the engine, so there only its own coefficients can tell
        fused = TauCalculator._string

        def off_by_one(self, g, ds):
            total = yield from fused(self, g, ds)
            rest = ds[:-1]
            if 2 in rest and (g, len(rest)) != (1, 1):
                i = rest.index(2)
                total += 15 * rest.count(2) * self.store.entries[g, rest[:i] + rest[i + 1:]]
            return total

        monkeypatch.setattr(TauCalculator, "_string", off_by_one)
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
        path.write_text("1|1|1/12\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--suite", "derivative",
                               "--genus", "2", "--order", "3", "--cache", str(path))
        assert code == EXIT_VERIFY_FAILED
        first = json.loads(out.splitlines()[0])
        assert (first["check"], first["n"], first["pass"]) == ("derivative_formula", 0, False)
        assert first["first_mismatch"] == {"power": 0, "lhs": "17/3360", "rhs": "43/17280"}
        assert path.read_text(encoding="utf-8") == "1|1|1/12\n"

    def test_all_builds_phi_g_once(self, capsys, monkeypatch):
        from wpvol import genexp
        calls = []
        real_build = genexp.build_phi_g
        monkeypatch.setattr(genexp, "build_phi_g",
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
        assert (code, out, err) == (EXIT_USAGE, "", "error: --n-min must be >= 0\n")


class TestCache:
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
        data = b"1|1|1/24\n\xff\xfe|1|1\n"
        path.write_bytes(data)
        inode = os.stat(path).st_ino
        code, out, err = run_cli(capsys, "tau", "--genus", "1", "--ds", "1",
                                 "--cache", str(path))
        assert (code, out, err) == (EXIT_IO, "", "error: cache line 2: not UTF-8 text\n")
        assert path.read_bytes() == data and os.stat(path).st_ino == inode

    def test_dimension_breaking_cache_line(self, capsys, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("1|1|1/24\n5|0|7\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "volume", "--genus", "1", "--n", "1",
                                 "--cache", str(path))
        assert code == EXIT_IO
        assert out == ""
        assert "line 2" in err
        assert path.read_text(encoding="utf-8") == "1|1|1/24\n5|0|7\n"

    def test_pure_hit_run_leaves_the_file_alone(self, capsys, tmp_path):
        path = tmp_path / "unsorted.cache"
        text = "1|1|1/24\n0|0,0,0|1\n"  # valid, but not in the order a save writes
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "tau", "--genus", "1", "--ds", "1",
                               "--cache", str(path))
        assert (code, out) == (EXIT_OK, "1/24\n")
        assert path.read_text(encoding="utf-8") == text

    def test_run_that_adds_entries_saves(self, capsys, tmp_path):
        path = tmp_path / "grow.cache"
        path.write_text("2|4|1/1152\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "tau", "--genus", "2", "--ds", "3,2",
                             "--cache", str(path))
        assert code == EXIT_OK
        assert path.read_text(encoding="utf-8") == "2|3,2|29/5760\n2|4|1/1152\n"

    def test_failed_verify_leaves_the_file_alone(self, capsys, tmp_path):
        # the series side derives new keys from the wrong 1|1 value; saving
        # them would spread it to later runs that read the cache
        path = tmp_path / "poisoned.cache"
        path.write_bytes(b"1|1|1/12\n")
        code, _, _ = run_cli(capsys, "verify", "--suite", "theorem1",
                             "--genus", "2", "--order", "3", "--cache", str(path))
        assert code == EXIT_VERIFY_FAILED
        assert path.read_bytes() == b"1|1|1/12\n"

    def test_first_run_creates_the_file_even_when_empty(self, capsys, tmp_path):
        path = tmp_path / "new.cache"
        code, out, _ = run_cli(capsys, "tau", "--genus", "0", "--ds", "0,0",
                               "--cache", str(path))
        assert (code, out) == (EXIT_OK, "0\n")
        assert path.read_text(encoding="utf-8") == ""

    def test_interrupt_exits_130_and_keeps_the_cache(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "kept.cache"
        text = "1|1|1/24\n"
        path.write_text(text, encoding="utf-8")

        def interrupted(args, calc):
            calc.tau(1, [2, 0])  # the memo grows before the interrupt
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_tau", interrupted)
        code, out, err = run_cli(capsys, "tau", "--genus", "1", "--ds", "2,0",
                                 "--cache", str(path))
        assert (code, out, err) == (EXIT_INTERRUPTED, "", "error: interrupted\n")
        assert path.read_text(encoding="utf-8") == text

    def test_interrupt_during_the_save_exits_130(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "kept.cache"
        path.write_text("1|1|1/24\n", encoding="utf-8")

        def interrupted(store, target):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "save_cache", interrupted)
        code, out, err = run_cli(capsys, "tau", "--genus", "1", "--ds", "2,0",
                                 "--cache", str(path))
        assert (code, out, err) == (EXIT_INTERRUPTED, "1/24\n", "error: interrupted\n")
        assert path.read_text(encoding="utf-8") == "1|1|1/24\n"

    def test_value_that_is_no_correlator(self, capsys, tmp_path):
        # 2^4 * 3!! * 1/7 = 48/7 is not an integer, so no correlator has this value
        path = tmp_path / "bad.cache"
        path.write_text("0|0,0,0|1\n1|1|1/7\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "volume", "--genus", "1", "--n", "1",
                                 "--cache", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert "line 2" in err
        assert path.read_text(encoding="utf-8") == "0|0,0,0|1\n1|1|1/7\n"

    @pytest.mark.parametrize("text, argv, line", [
        ("1|1|-1/24\n", ["volume", "--genus", "1", "--n", "1"], 1),
        ("1|1|0\n", ["tau", "--genus", "1", "--ds", "1"], 1),
        ("0|0,0,0|-1\n", ["tau", "--genus", "0", "--ds", "0,0,0"], 1),
        ("1|1|1/24\n1|1|1/12\n", ["tau", "--genus", "1", "--ds", "1"], 2),
    ], ids=["negative", "zero", "negative-genus0", "repeated-key"])
    def test_value_no_correlator_has(self, capsys, tmp_path, text, argv, line):
        # every stable key that obeys the dimension rule has a positive
        # correlator, and save_cache writes each key once
        path = tmp_path / "bad.cache"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, "--cache", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert f"line {line}:" in err
        assert path.read_text(encoding="utf-8") == text

    def test_value_that_breaks_the_recursion(self, capsys, tmp_path):
        # W(1, (1,)) = 3 passes the load check, but makes the DVV split sum
        # of <tau_4>_2 odd
        path = tmp_path / "bad.cache"
        path.write_text("1|1|1/16\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "tau", "--genus", "2", "--ds", "4",
                                 "--cache", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "2|4" in err
        assert path.read_text(encoding="utf-8") == "1|1|1/16\n"

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
        assert first["first_mismatch"] == {"power": 0, "lhs": "29/8640", "rhs": "43/17280"}
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
        # a value may start with '-': this one reaches the handler's own check
        (["asympt", "--genus", "0", "--n-max", "12", "--n-min", "-5"],
         "error: --n-min must be >= 0"),
    ], ids=["no-command", "unknown-command", "unknown-option", "missing-value",
            "option-as-value", "bad-int", "bad-choice", "missing-required", "n-and-table",
            "neither-n-nor-table", "ambiguous-prefix", "negative-value"])
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

    def test_exact_name_wins_over_a_prefix(self, monkeypatch):
        # no command has an option that prefixes another one yet, so add one
        opt = (int, False, None, "")
        monkeypatch.setitem(cli.COMMANDS, "probe", ("", {"--n": opt, "--n-max": opt}, ()))
        args = cli.parse_args(["probe", "--n", "1", "--n-m", "2"])
        assert (args.n, args.n_max) == (1, 2)

    def test_console_script_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["wpvol", "tau", "--genus", "1", "--ds", "1"])
        assert main() == EXIT_OK
        assert capsys.readouterr().out == "1/24\n"


#: run one command in a fresh interpreter (pytest itself loads `inspect`), take
#: the modules loaded when it returns, then print its exit code, the wpvol
#: modules among them, and which of the standard library's heavier modules it
#: loaded: argparse and its gettext and locale, json, dataclasses, inspect
IMPORT_PROBE = """
import os, sys
from wpvol import cli
sys.stdout = open(os.devnull, "w")
rc = cli.main(sys.argv[1:])
loaded = set(sys.modules)
sys.stdout = sys.__stdout__
import json
stdlib = ("argparse", "dataclasses", "gettext", "inspect", "json", "locale")
print(json.dumps([rc, sorted(m for m in loaded if m.split(".")[0] == "wpvol"),
                  [m for m in stdlib if m in loaded]]))
"""

CORE = ["wpvol", "wpvol.cli", "wpvol.taucalc"]
SERIES = sorted(CORE + ["wpvol.kappavol", "wpvol.qseries", "wpvol.genexp"])


class TestImports:
    @pytest.mark.parametrize("argv, modules, stdlib", [
        (["tau", "--genus", "1", "--ds", "1"], CORE, []),
        (["tau", "--genus", "1", "--ds", "1", "--format", "json"], CORE, ["json"]),
        (["volume", "--genus", "2", "--n", "3", "--format", "json"],
         sorted(CORE + ["wpvol.kappavol"]), ["json"]),
        (["volume", "--genus", "2", "--n", "3", "--format", "csv"],
         sorted(CORE + ["wpvol.kappavol"]), []),
        (["volume", "--genus", "2", "--table", "3"], SERIES, []),
        (["series", "--phi", "2", "--order", "3"], SERIES, ["json"]),
        (["verify", "--suite", "all", "--genus", "2", "--order", "2"], SERIES, ["json"]),
        (["asympt", "--genus", "0", "--n-max", "12"], sorted(SERIES + ["wpvol.asympt"]),
         ["json"]),
    ], ids=["tau", "tau-json", "volume-n", "volume-csv", "volume-table", "series", "verify",
            "asympt"])
    def test_each_command_loads_only_what_it_runs(self, argv, modules, stdlib):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [EXIT_OK, modules, stdlib]
