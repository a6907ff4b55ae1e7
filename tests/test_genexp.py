import json
import math
from fractions import Fraction

import pytest

from oracles import (add, compose, kappa_volume, mul_lists, newton_revert, ref_phi0, ref_phi1,
                     scale, series)
from wpvol.asympt import fit_growth
from wpvol.cli import EXIT_OK, EXIT_VERIFY_FAILED, main
from wpvol.genexp import (CheckReport, GenusExpansionContext, build_phi_g, build_y, closed_form,
                          volume_series)
from wpvol.kappavol import enumerate_multiindices, volume
from wpvol.qseries import Series, bessel_x_of_y, factorial, revert_lagrange
from wpvol.taucalc import TauCalculator
from wpvol.verify import build_f_lemma, check_derivative_formula, induction_sides, verify_reports

F = Fraction


def _power(s, e):
    """s^e, e >= 1, as e - 1 plain products."""
    out = s
    for _ in range(e - 1):
        out = out * s
    return out


def _ref_closed_form(g, n, ctx, calc):
    """The closed form summed term by term, each term carrying its own
    (y')^(2(g-1)+n+||l||) * prod f_i^{l_i}/l_i!."""
    total = series([0] * (ctx.order + 1))
    for l in enumerate_multiindices(3 * g - 3 + n):
        bracket = F(*calc.tau_batch(g, ((0, n), *l.items())))
        if not bracket:
            continue
        term = _power(ctx.h_power("y'", 1), 2 * (g - 1) + n + sum(l.values()))
        denom = 1
        for i, mult in l.items():
            term = term * _power(ctx.f(i), mult)
            denom *= factorial(mult)
        total = add(total, scale(term, bracket / denom))
    return total


def _kappa_pairs(g, n_max, calc):
    """[(p, q) of v_{g,n} for n = 0..n_max], from the kappa-to-tau route."""
    return [(rec.p, rec.q) for rec in (volume(g, n, calc) for n in range(n_max + 1))]


def _ode_holds(y):
    """y * y'' == x * (y')^3 through order N - 2, by plain truncated products."""
    n, y1 = y.order, y.derivative()
    lhs = mul_lists(list(y.coeffs), list(y1.derivative().coeffs), n - 2)
    d = list(y1.coeffs)
    cube = mul_lists(mul_lists(d, d, n - 1), d, n - 1)
    return lhs == [0] + cube[: n - 2]


@pytest.fixture(scope="module")
def ctx():
    return GenusExpansionContext(order=12, i_max=8)


class TestY:
    def test_low_order(self):
        assert build_y(3) == series([0, 1, F(1, 2), F(5, 12)])

    def test_linear_coefficient(self):
        y = build_y(8)
        assert y.coeffs[0] == 0
        assert y.coeffs[1] == 1

    def test_next_coefficient_matches_volumes(self, calc):
        # [x^4] y = V_{0,6} / (4! 3!)
        assert build_y(4).coeffs[4] == F(kappa_volume(volume(0, 6, calc)), 144)

    def test_genus0_integrality(self):
        # y_n n! (n-1)! = V_{0,n+2} is an integer (Kaufmann-Manin-Zagier);
        # checked on the coefficients alone, with no series arithmetic
        y = build_y(62)
        volumes = [y.coeffs[n] * factorial(n) * factorial(n - 1) for n in range(1, 63)]
        assert all(v.denominator == 1 for v in volumes)
        assert volumes[:7] == [1, 1, 5, 61, 1379, 49946, 2648967]

    def test_order_validation(self):
        for order in (0, -1):
            with pytest.raises(ValueError, match="order must be >= 1"):
                build_y(order)

    @pytest.mark.parametrize("order", [*range(1, 41), 64])
    def test_equals_lagrange_reversion(self, order):
        assert build_y(order) == revert_lagrange(bessel_x_of_y(order))

    @pytest.mark.parametrize("order", [1, 2, 3, 17, 40, 62])
    def test_equals_newton_reversion(self, order):
        assert build_y(order) == newton_revert(bessel_x_of_y(order))

    @pytest.mark.parametrize("order", [2, 3, 40, 64])
    def test_solves_the_bessel_ode(self, order):
        y = build_y(order)
        assert y.order == order
        assert _ode_holds(y)

    @pytest.mark.parametrize("n, k", [(1, 0), (3, 1), (3, 2), (5, 3), (8, 4), (20, 19)])
    def test_one_weight_off_by_one_is_caught(self, monkeypatch, n, k):
        # C(n, k) one too large in the recurrence: its exactness check fires,
        # or both the Lagrange reversion and the ODE reject the result
        comb = math.comb
        with monkeypatch.context() as patched:
            patched.setattr(math, "comb", lambda a, b: comb(a, b) + (a == n and b == k))
            try:
                y = build_y(32)
            except ArithmeticError:
                return
        assert y != revert_lagrange(bessel_x_of_y(32))
        assert not _ode_holds(y)

    def test_inverse_function_identity(self):
        # differentiate x(y(x)) = x: x'(y) o y  *  y' = 1
        order = 10
        y = build_y(order)
        lhs = compose(bessel_x_of_y(order).derivative(), y) * y.derivative()
        assert lhs == series([1] + [0] * (order - 1))


class TestPhi0:
    def test_coefficients(self, calc):
        phi0 = build_phi_g(0, GenusExpansionContext(6, 1), calc)
        assert phi0.coeffs[:5] == (0, 0, 0, F(1, 6), F(1, 24))

    def test_second_derivative_is_y(self, calc):
        phi0 = build_phi_g(0, GenusExpansionContext(9, 1), calc)
        assert phi0.derivative().derivative() == build_y(7)

    def test_matches_volume_route(self, calc):
        assert volume_series(0, 10, calc) == _kappa_pairs(0, 10, calc)

    def test_order_validation(self):
        # phi_0 is built to ctx.order, and a context starts at order 0
        with pytest.raises(ValueError):
            GenusExpansionContext(-1, 1)

    @pytest.mark.parametrize("order", [1, 3, 12, 40, 64])
    def test_matches_reference(self, calc, order):
        ref = ref_phi0(order)
        assert build_phi_g(0, GenusExpansionContext(order, 1), calc) == ref
        assert volume_series(0, order, calc) == list(ref.pairs)


class TestPhi1:
    def test_low_coefficients(self, calc):
        # v_{1,0} = 0 by convention, v_{1,1} = <tau_1>_1 = 1/24
        ctx = GenusExpansionContext(3, 2)
        assert build_phi_g(1, ctx, calc).coeffs[:2] == (0, F(1, 24))

    def test_order_validation(self):
        # phi_1 is built to ctx.order, and a context starts at order 0
        with pytest.raises(ValueError):
            GenusExpansionContext(-1, 2)

    @pytest.mark.parametrize("order", [1, 3, 12, 40])
    def test_matches_reference(self, calc, order):
        ref = ref_phi1(order)
        assert build_phi_g(1, GenusExpansionContext(order, 2), calc) == ref
        assert volume_series(1, order, calc) == list(ref.pairs)


class TestVolumeSeries:
    @pytest.mark.parametrize("g, n_max", [(0, 24), (1, 12), (2, 12), (3, 8), (4, 6),
                                          (0, 0), (0, 2), (1, 0), (2, 1)])
    def test_matches_kappa_route(self, calc, g, n_max):
        assert volume_series(g, n_max, calc) == _kappa_pairs(g, n_max, calc)

    @pytest.mark.parametrize("g, n_max", [(0, 9), (1, 6), (2, 5), (3, 2)])
    def test_table_records_match_volume(self, capsys, g, n_max):
        # `volume --table` reads its records off this series, `volume --n` sums
        # the kappa-to-tau brackets: every row agrees in every format, zero
        # records for the conventional zeros and negative dimensions too
        def run(*argv):
            assert main(["volume", "--genus", str(g), *argv]) == EXIT_OK
            return capsys.readouterr().out

        for fmt in ("plain", "json", "csv"):
            table = run("--table", str(n_max), "--format", fmt)
            singles = [run("--n", str(n), "--format", fmt) for n in range(n_max + 1)]
            if fmt == "json":
                assert json.loads(table) == [json.loads(single) for single in singles]
            elif fmt == "csv":
                header, *rows = table.splitlines()
                assert [s.splitlines() for s in singles] == [[header, row] for row in rows]
            else:
                assert table == "".join(singles)

    def test_validation(self, calc):
        with pytest.raises(ValueError):
            volume_series(-1, 3, calc)
        with pytest.raises(ValueError):
            volume_series(0, -1, calc)


class TestFChain:
    def test_values_at_zero(self, ctx):
        assert ctx.f(1).coeffs[0] == 0
        assert ctx.f(2).coeffs[0] == 1
        assert ctx.f(3).coeffs[0] == F(-1, 2)
        assert ctx.f(4).coeffs[0] == F(1, 6)

    def test_sign_factorial_pattern(self):
        ctx10 = GenusExpansionContext(order=2, i_max=10)
        for i in range(2, 11):
            assert ctx10.f(i).coeffs[0] == F((-1) ** i, factorial(i - 1))

    def test_f2_consistent_with_chain_rule(self, ctx):
        # the chain builds f_2 = f_1'/y'; it equals y''/(y')^3 (to the shared order)
        y_prime = ctx.h_power("y'", 1)
        closed = y_prime.derivative() * _power(y_prime.reciprocal(), 3)
        assert ctx.f(2).truncate(closed.order) == closed

    @pytest.mark.parametrize("order, i_max", [(12, 8), (2, 10)])
    def test_h_is_y_prime_times_f(self, order, i_max):
        # the stored factors h_i = f_{i-1}' of the closed form equal y' f_i
        ctx = GenusExpansionContext(order=order, i_max=i_max)
        for i in range(2, i_max + 1):
            assert ctx.h_power(i, 1) == ctx.h_power("y'", 1) * ctx.f(i), i

    def test_range_validation(self, ctx):
        with pytest.raises(ValueError):
            ctx.f(9)
        with pytest.raises(ValueError):
            ctx.f(0)


class TestOnDemandContext:
    def test_genus0_builds_no_reciprocal(self, capsys, monkeypatch):
        # phi_0''' = y' reads y' alone, so no genus-0 series, table or fit
        # builds 1/y' or any f_i
        def table():  # `volume --table`, whose records come from volume_series
            assert main(["volume", "--genus", "0", "--table", "24"]) == EXIT_OK
            return capsys.readouterr().out

        jobs = (lambda: volume_series(0, 40, TauCalculator()), table,
                lambda: fit_growth(0, 8, 20, TauCalculator()))
        expected = [job() for job in jobs]

        def refuse(self):
            raise AssertionError("a genus-0 job built 1/y'")

        monkeypatch.setattr(Series, "reciprocal", refuse)
        assert [job() for job in jobs] == expected


class TestFunctionalEquation:
    def test_matches_chain_definition(self, ctx):
        for i in range(2, 9):
            assert build_f_lemma(i, ctx) == ctx.f(i), i

    def test_report_helper(self, calc):
        reps = [r for r in verify_reports("lemma", 2, 6, calc)
                if r.check == "f_functional_equation"]
        assert [r.fields["i"] for r in reps] == list(range(2, 9))
        assert all(r.passed and r.mismatch is None for r in reps)

    @pytest.mark.parametrize("order", [0, 1, 12, 30])
    def test_matches_composition_oracle(self, order):
        # the sum over the table's powers of y against Horner's rule on build_y
        ctx = GenusExpansionContext(order=order, i_max=12)
        y = build_y(order + 1).truncate(order)
        for i in range(2, 13):
            outer = series(F((-1) ** (i + k), factorial(i + k - 1) * factorial(k))
                           for k in range(order + 1))
            assert build_f_lemma(i, ctx) == compose(outer, y), i

    def test_truncated_order(self, ctx):
        low = GenusExpansionContext(order=3, i_max=ctx.i_max)
        assert build_f_lemma(2, low) == ctx.f(2).truncate(3)

    def test_i1_rejected(self, ctx):
        with pytest.raises(ValueError):
            build_f_lemma(1, ctx)


class TestPhiG:
    def test_genus2_constant_term(self, ctx, calc):
        phi2 = build_phi_g(2, ctx, calc)
        assert phi2.coeffs[0] == F(43, 17280)
        assert phi2.coeffs[0] == volume(2, 0, calc).v

    def test_genus2_linear_term(self, ctx, calc):
        assert build_phi_g(2, ctx, calc).coeffs[1] == volume(2, 1, calc).v

    def test_genus3_constant_term(self, calc):
        ctx3 = GenusExpansionContext(order=2, i_max=7)
        assert build_phi_g(3, ctx3, calc).coeffs[0] == volume(3, 0, calc).v

    def test_negative_genus_rejected(self, ctx, calc):
        with pytest.raises(ValueError, match="genus must be >= 0"):
            build_phi_g(-1, ctx, calc)

    def test_insufficient_context_rejected(self, calc):
        small = GenusExpansionContext(order=2, i_max=4)
        with pytest.raises(ValueError):
            build_phi_g(3, small, calc)

    def test_master_crosscheck_small(self, calc):
        reports = verify_reports("theorem1", 2, 6, calc)
        assert [(r.check, r.fields["n"]) for r in reports] == [
            ("genus_series_vs_volume", n) for n in range(7)]
        for report in reports:
            assert report.passed, report.mismatch


class TestClosedForm:
    @pytest.mark.parametrize("order", [6, 10])
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_equals_term_by_term_sum(self, g, order):
        # (y')^(2(g-1)+n) factored out of the sum changes no coefficient
        ctx_g = GenusExpansionContext(order=order, i_max=3 * g + 2)
        for n in range(5):
            got = closed_form(g, n, ctx_g, TauCalculator())
            assert got == _ref_closed_form(g, n, ctx_g, TauCalculator()), (g, n)

    def test_fewer_series_products(self, monkeypatch):
        # the term-by-term sum made 519 Series.__mul__ calls here
        calls = []
        mul = Series.__mul__

        def counting_mul(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Series, "__mul__", counting_mul)
        reports = verify_reports("all", 3, 6, TauCalculator())
        assert all(r.passed for r in reports)
        assert len(calls) < 519


class TestDerivativeFormula:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_genus2(self, ctx, calc, n):
        report = check_derivative_formula(2, n, build_phi_g(2, ctx, calc), ctx, calc)
        assert report.passed, report.mismatch

    def test_validation(self, ctx, calc):
        phi2 = build_phi_g(2, ctx, calc)
        with pytest.raises(ValueError):
            check_derivative_formula(2, 7, phi2, ctx, calc)  # needs i_max >= 11
        for g, n in ((1, 0), (0, 0), (0, 2)):  # 2g - 2 + n <= 0: no closed form
            with pytest.raises(ValueError, match="unstable"):
                check_derivative_formula(g, n, phi2, ctx, calc)


class TestInductionIdentity:
    def test_single_multiindices(self, calc):
        for l in ({2: 4}, {5: 1}):
            lhs, rhs = induction_sides(2, 1, l, calc)
            assert lhs == rhs

    def test_enumerated_through_n5(self, calc):
        for g in (2, 3):
            for n in range(1, 6):
                weight = 3 * g - 3 + n
                for l in enumerate_multiindices(weight):
                    lhs, rhs = induction_sides(g, n, l, calc)
                    assert lhs == rhs, (g, n, l)

    def test_no_l2_drops_first_term(self, calc):
        # with l_2 = 0 the right side is the shift sum alone
        l = {3: 2}  # weight 4 = dim of (2, 1)
        lhs, rhs = induction_sides(2, 1, l, calc)
        shift_only = 2 * F(*calc.tau_batch(2, [(2, 1), (3, 1)]))
        assert F(*rhs) == shift_only
        assert lhs == rhs

    def test_zero_multiplicities_change_nothing(self, calc):
        padded = induction_sides(2, 1, {2: 0, 3: 2, 4: 0}, calc)
        assert padded == induction_sides(2, 1, {3: 2}, calc)

    def test_validation(self, calc):
        with pytest.raises(ValueError):
            induction_sides(2, 0, {2: 3}, calc)
        with pytest.raises(ValueError):
            induction_sides(2, 1, {2: 1}, calc)

    @pytest.mark.parametrize("g, n, l", [(1, 1, {2: 1}), (0, 3, {})])
    def test_unstable_child_rejected(self, calc, g, n, l):
        # at (1, 1) the step weighs <tau_1>_1 by the dilaton equation on the
        # unstable <>_1, and no string step reaches the base <tau_0^3>_0
        with pytest.raises(ValueError, match=r"2g - 3 \+ n > 0"):
            induction_sides(g, n, l, calc)


class TestCheckReport:
    # two series are compared through the smaller order
    def test_none_when_equal(self):
        assert CheckReport("demo", series([1, 2]), series([1, 2, 99])).mismatch is None

    def test_reports_power(self):
        rep = CheckReport("demo", series([1, 2, 3]), series([1, 2, 4]))
        assert (rep.passed, rep.mismatch) == (False, (2, (3, 1), (4, 1)))
        assert CheckReport("demo", series([1, 2, 3]).truncate(0), series([1, 0, 4])).passed


class TestReportSerialization:
    def test_pass_line(self, capsys):
        assert main(["verify", "--suite", "derivative", "--genus", "2", "--order", "6"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out.splitlines()[0]) == {
            "check": "derivative_formula", "g": 2, "n": 0,
            "pass": True, "first_mismatch": None,
        }

    def test_mismatch_rendering(self, capsys, monkeypatch):
        from wpvol import verify

        rep = CheckReport("demo", (1, 2), (1, 3), power=5, g=2, n=3)
        monkeypatch.setattr(verify, "verify_reports", lambda *args: [rep])
        code = main(["verify", "--suite", "all", "--genus", "2", "--order", "6"])
        assert code == EXIT_VERIFY_FAILED
        assert capsys.readouterr().out == (
            '{"check": "demo", "g": 2, "n": 3, "pass": false, '
            '"first_mismatch": {"power": 5, "lhs": "1/2", "rhs": "1/3"}}\n')


@pytest.mark.parametrize("suite", ["lemma", "theorem1", "derivative", "induction", "all"])
def test_every_suite_rejects_a_negative_genus(suite, monkeypatch):
    # raised before any context is built
    from wpvol import verify

    monkeypatch.setattr(verify, "GenusExpansionContext", None)
    with pytest.raises(ValueError, match="g must be >= 0"):
        verify_reports(suite, -1, 4, TauCalculator())
