"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact rational equality except the growth-law fits, whose
tolerances are fixed below, and the stated wall-clock budgets.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from oracles import compose, dilaton_step, dvv_step, string_step
from wpvol.asympt import fit_growth, predicted_growth_constant
from wpvol.cli import main
from wpvol.genexp import (
    GenusExpansionContext,
    build_f_lemma,
    build_phi_g,
    build_y,
    check_derivative_formula,
    induction_sides,
)
from wpvol.kappavol import enumerate_multiindices, volume
from wpvol.qseries import Series, bessel_x_of_y, factorial

F = Fraction


def report(label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    assert passed, f"{label} failed {suffix}"


def test_criterion_1_base_values(calc):
    ok = volume(0, 3, calc).V == 1
    for g, n in [(0, 0), (0, 1), (0, 2), (1, 0)]:
        ok = ok and volume(g, n, calc).V == 0
    report("criterion 1 (base volume conventions)", ok)


def test_criterion_2_reversion_suite(calc):
    t0 = time.time()
    x_of_y = bessel_x_of_y(40)
    y = build_y(40)
    round_trip = compose(x_of_y, y) == Series([0, 1] + [0] * 39)
    # x^2, x^3 coefficients forced by the volumes, themselves computed through
    # the independent correlator route
    v04 = volume(0, 4, calc).V
    v05 = volume(0, 5, calc).V
    coeffs = (
        y[2] == F(1, 2)
        and y[3] == F(5, 12)
        and v04 == 1
        and v05 == 5
        and y[2] == F(v04, 2)  # V_{0,4} / (2! 1!)
        and y[3] == F(v05, 12)  # V_{0,5} / (3! 2!)
    )
    elapsed = time.time() - t0
    report(
        "criterion 2 (reversion round-trip and pinned coefficients)",
        round_trip and coeffs and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_3_lemma_suite():
    t0 = time.time()
    ctx = GenusExpansionContext(order=20, i_max=10)
    equal = all(ctx.f(i) == build_f_lemma(i, ctx) for i in range(2, 9))
    constants = all(
        ctx.f(i)[0] == F((-1) ** i, factorial(i - 1)) for i in range(2, 11)
    )
    elapsed = time.time() - t0
    report(
        "criterion 3 (functional equations for f_2..f_8 to order 20)",
        equal and constants and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_4_master_crosscheck(calc):
    t0 = time.time()
    mismatches = []
    ctx2 = GenusExpansionContext(order=10, i_max=4)
    phi2 = build_phi_g(2, ctx2, calc)
    for n in range(11):
        if phi2[n] != volume(2, n, calc).v:
            mismatches.append((2, n))
    ctx3 = GenusExpansionContext(order=5, i_max=7)
    phi3 = build_phi_g(3, ctx3, calc)
    for n in range(6):
        if phi3[n] != volume(3, n, calc).v:
            mismatches.append((3, n))
    elapsed = time.time() - t0
    report(
        "criterion 4 (genus-series vs volume route, g=2 n<=10 and g=3 n<=5)",
        not mismatches and elapsed < 300.0,
        f"{elapsed:.2f}s, mismatches={mismatches}",
    )


def test_criterion_5_proof_identities(calc):
    ctx = GenusExpansionContext(order=6, i_max=10)
    derivative_ok = all(
        check_derivative_formula(2, n, build_phi_g(2, ctx, calc), ctx, calc).passed
        for n in range(5)
    )
    induction_ok = True
    checked = 0
    for g in (2, 3):
        for n in range(1, 5):
            weight = 3 * g - 3 + n
            for l in enumerate_multiindices(weight):
                lhs, rhs = induction_sides(g, n, l, calc)
                induction_ok = induction_ok and lhs == rhs
                checked += 1
    report(
        "criterion 5 (derivative formula n<=4; index-shift identity g=2,3 n<=4)",
        derivative_ok and induction_ok,
        f"{checked} multi-indices",
    )


def test_criterion_6_correlator_consistency(calc):
    rng = random.Random(20260810)
    keys = []
    while len(keys) < 200:
        g = rng.randint(0, 3)
        n = rng.randint(1, 8)
        dim = 3 * g - 3 + n
        if dim < 0 or 2 * g - 2 + n <= 0:
            continue
        ds = [0] * n
        for _ in range(dim):
            ds[rng.randrange(n)] += 1
        keys.append((g, ds))

    ok = True
    both_reductions = 0
    for g, ds in keys:
        value = calc.tau(g, ds)
        ok = ok and value >= 0
        shuffled = ds[:]
        rng.shuffle(shuffled)
        ok = ok and calc.tau(g, shuffled) == value
        bumped = ds[:]
        bumped[rng.randrange(len(bumped))] += 1
        ok = ok and calc.tau(g, bumped) == 0
        if 0 in ds and 1 in ds:
            both_reductions += 1
            ok = ok and string_step(calc.tau, g, ds) == dilaton_step(calc.tau, g, ds)

    pinning = 15 * calc.tau(1, [2, 0]) == 3 * calc.tau(1, [1]) + F(1, 2)
    pinning = pinning and dvv_step(calc.tau, 1, [2, 0], 2) == calc.tau(1, [2, 0])
    report(
        "criterion 6 (200 randomized keys + DVV pinning equation)",
        ok and pinning and both_reductions >= 20,
        f"string-vs-dilaton cases: {both_reductions}",
    )


def test_criterion_7_asymptotics(calc):
    t0 = time.time()
    predicted = predicted_growth_constant()
    c0, exp0 = fit_growth(0, 15, 30, calc)
    exp0_ok = abs(exp0 - Decimal("-3.5")) <= Decimal("0.5")
    c0_ok = abs(c0 - predicted) / predicted <= Decimal("0.02")
    c2, exp2 = fit_growth(2, 10, 20, calc)
    exp2_ok = abs(exp2 - Decimal("1.5")) <= Decimal("0.5")
    c2_ok = abs(c2 - c0) / c0 <= Decimal("0.10")
    elapsed = time.time() - t0
    report(
        "criterion 7 (growth exponents and constant vs Bessel prediction)",
        exp0_ok and c0_ok and exp2_ok and c2_ok,
        f"{elapsed:.1f}s, exp0={exp0:.4f}, exp2={exp2:.4f}, "
        f"C0={c0:.6f}, C2={c2:.6f}, predicted={predicted:.6f}",
    )


def test_criterion_8_determinism(capsys, tmp_path):
    argv = ["verify", "--suite", "all", "--genus", "2", "--order", "8"]

    def run(extra=()):
        code = main(argv + list(extra))
        out = capsys.readouterr().out
        return code, out.encode("utf-8")

    code1, first = run()
    code2, second = run()
    cache = tmp_path / "tau.cache"
    code3, cold = run(["--cache", str(cache)])
    cache_after_cold = cache.read_bytes()
    code4, warm = run(["--cache", str(cache)])
    cache_after_warm = cache.read_bytes()

    ok = (
        code1 == code2 == code3 == code4 == 0
        and first == second == cold == warm
        and cache_after_cold == cache_after_warm
    )
    report(
        "criterion 8 (byte-identical verify output, cold and warm cache)",
        ok,
        f"{len(first.splitlines())} report lines",
    )
