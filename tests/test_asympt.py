import json
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest

from wpvol import asympt
from wpvol.asympt import (
    PRECISION,
    _critical_interval,
    _enclosure_numerators,
    critical_radius,
    fit_growth,
    predicted_growth_constant,
)
from wpvol.cli import EXIT_OK, main
from wpvol.genexp import volume_series

F = Fraction


def j0_bracket(u, tol):
    """Enclosure of J0(2 sqrt(u)) = sum_m (-u)^m / (m!)^2 as two Fractions."""
    assert tol.numerator == 1
    lo, hi, den = _enclosure_numerators(u.numerator, u.denominator, 0, tol.denominator)
    return F(lo, den), F(hi, den)


def x_bracket(u, tol):
    """Enclosure of x(u) = sum_{k>=1} (-1)^(k-1) u^k / ((k-1)! k!) as two Fractions."""
    assert tol.numerator == 1
    lo, hi, den = _enclosure_numerators(u.numerator, u.denominator, 1, tol.denominator)
    return F(lo, den), F(hi, den)


def certified_interval():
    """The certified interval [a, a+1]/2^_WIDTH_BITS around u_c as two Fractions."""
    a, scale = _critical_interval(), 2**asympt._WIDTH_BITS
    return F(a, scale), F(a + 1, scale)


def critical_point():
    """u_c = (j_{0,1}/2)^2 to 50 digits, the midpoint of the certified interval."""
    lo, hi = certified_interval()
    mid = (lo + hi) / 2
    with localcontext(Context(prec=PRECISION)):
        return Decimal(mid.numerator) / Decimal(mid.denominator)


def growth_ratios(g, n_min, n_max, calc):
    """v_{g,n+1}/v_{g,n} * ((n+1)/n)^(-e) for n_min <= n < n_max, with
    e = -1 + 5(g-1)/2 the exponent of the growth law."""
    vs = volume_series(g, n_max, calc)
    out = []
    with localcontext(Context(prec=PRECISION)):
        e = Decimal(-1) + Decimal(5 * (g - 1)) / 2
        for n in range(n_min, n_max):
            ratio = vs[n + 1] / vs[n]
            scale = ((Decimal(n + 1) / Decimal(n)).ln() * e).exp()
            out.append(Decimal(ratio.numerator) / Decimal(ratio.denominator) / scale)
    return out

# first zero of J0, long-known reference digits
J01_REFERENCE = "2.404825557695772768621631879326454"


def reference_j0_bracket(u, tol):
    """The term-by-term Fraction sum the integer enclosure replaced."""
    total = term = F(1)
    m = 0
    while True:
        m += 1
        term *= -u / (m * m)
        total += term
        if m * m > u:
            bound = abs(term) * u / ((m + 1) * (m + 1))
            if bound < tol:
                return total - bound, total + bound


def reference_x_bracket(u, tol):
    total = term = u
    k = 1
    while True:
        k += 1
        term *= -u / (k * (k - 1))
        total += term
        if k * (k - 1) > u:
            bound = abs(term) * u / ((k + 1) * k)
            if bound < tol:
                return total - bound, total + bound


def reference_critical_interval():
    """The Fraction bisection the integer one replaced, step for step."""
    tol = F(1, 10**80)
    lo, hi = F(1), F(2)
    for _ in range(240):
        mid = (lo + hi) / 2
        b_lo, b_hi = reference_j0_bracket(mid, tol)
        if b_lo > 0:
            lo = mid
        elif b_hi < 0:
            hi = mid
        else:
            break
    return lo, hi


BRACKET_POINTS = [F(0), F(1), F(3, 2), F(2), F(50), F(3 * 2**238 + 12345, 2**240)]


class TestBesselZero:
    def test_first_zero_digits(self):
        with localcontext(Context(prec=PRECISION)):
            j01 = 2 * critical_point().sqrt()
        assert str(j01).startswith(J01_REFERENCE)

    def test_critical_point_is_square_of_half_zero(self):
        assert str(critical_point()).startswith("1.445796490736696")

    def test_derivative_vanishes_at_critical_point(self):
        # x'(u_c) = J0(2 sqrt(u_c)) must enclose something tiny
        lo, hi = certified_interval()
        mid = (lo + hi) / 2
        b_lo, b_hi = j0_bracket(mid, F(1, 10**80))
        assert max(abs(b_lo), abs(b_hi)) < F(1, 10**50)

    def test_bracket_is_rigorous(self):
        lo, hi = j0_bracket(F(1), F(1, 10**30))
        assert lo < hi < lo + F(1, 10**29)
        # J0(2) = 0.22389077914123566805...
        assert abs((lo + hi) / 2 - F(22389077914123566805, 10**20)) < F(1, 10**19)

    @pytest.mark.parametrize("tol", [F(1, 10**30), F(1, 10**80)])
    @pytest.mark.parametrize("u", BRACKET_POINTS)
    def test_integer_brackets_equal_fraction_sum(self, u, tol):
        assert j0_bracket(u, tol) == reference_j0_bracket(u, tol)
        assert x_bracket(u, tol) == reference_x_bracket(u, tol)

    def test_interval_equals_fraction_bisection(self):
        assert certified_interval() == reference_critical_interval()

    def test_cold_interval_needs_few_enclosures(self, monkeypatch):
        # the 240-step bisection made 242 enclosure evaluations here
        calls = []
        enclosure = asympt._enclosure_numerators

        def counting(*args):
            calls.append(args)
            return enclosure(*args)

        monkeypatch.setattr(asympt, "_enclosure_numerators", counting)
        assert asympt._critical_interval.__wrapped__() == asympt._critical_interval()
        assert len(calls) <= 40

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_off_by_one_guess_fails_the_certificate(self, monkeypatch, offset):
        a = asympt._critical_interval()
        monkeypatch.setattr(asympt, "_newton_guess", lambda: a + offset)
        with pytest.raises(RuntimeError):
            asympt._critical_interval.__wrapped__()

    def test_x_bracket(self):
        lo, hi = x_bracket(F(1), F(1, 10**30))
        assert lo < hi < lo + F(1, 10**29)
        # x(1) = J1(2) = 0.5767248077568733872...
        assert abs((lo + hi) / 2 - F(5767248077568733872, 10**19)) < F(1, 10**18)


class TestPrediction:
    def test_radius_digits(self):
        assert str(critical_radius()).startswith("0.624229584847753")

    def test_constant_digits(self):
        assert str(predicted_growth_constant()).startswith("1.601974696928046")

    def test_repeatable(self):
        assert predicted_growth_constant() == predicted_growth_constant()


class TestFit:
    def test_genus0_window(self, calc):
        # a deliberately small window; the full-range bounds live in the
        # acceptance suite
        c_est, exponent = fit_growth(0, 12, 22, calc)
        assert abs(exponent - Decimal("-3.5")) < Decimal("0.7")
        rel = abs(c_est - predicted_growth_constant()) / predicted_growth_constant()
        assert rel < Decimal("0.025")

    def test_too_few_points(self, calc):
        with pytest.raises(ValueError):
            fit_growth(0, 10, 12, calc)

    def test_non_positive_rejected(self, calc):
        with pytest.raises(ValueError):
            fit_growth(1, 0, 8, calc)  # v_{1,0} = 0
        with pytest.raises(ValueError, match="n_min must be >= 1"):
            fit_growth(0, -5, 20, calc)

    def test_window_from_zero_rejected(self, calc):
        # ln 0 sits in the basis; at genus >= 2, v_{g,0} > 0 lets it reach the fit
        with pytest.raises(ValueError, match="n_min must be >= 1"):
            fit_growth(2, 0, 10, calc)

    @pytest.mark.parametrize("g, n_min, n_max", [(0, 3, 9), (0, 8, 20), (0, 14, 38),
                                                 (2, 1, 10), (2, 5, 13), (2, 12, 24)])
    def test_matches_lu_solve(self, calc, g, n_min, n_max):
        # the same normal equations solved by mpmath's LU at 50 digits
        ns = range(n_min, n_max + 1)
        values = volume_series(g, n_max, calc)[n_min:]
        c_est, exponent = fit_growth(g, n_min, n_max, calc)
        with mpmath.workdps(PRECISION):
            a = mpmath.matrix([[n, mpmath.log(n), 1] for n in ns])
            y = mpmath.matrix([mpmath.log(mpmath.mpf(v.numerator) / v.denominator)
                               for v in values])
            beta = mpmath.lu_solve(a.T * a, a.T * y)
            for est, ref in ((c_est, mpmath.exp(beta[0])), (exponent, beta[1])):
                assert abs(mpmath.mpf(str(est)) - ref) <= mpmath.mpf("1e-30") * abs(ref)

    def test_deterministic(self, calc):
        assert fit_growth(0, 10, 16, calc) == fit_growth(0, 10, 16, calc)

    def test_json_shape(self, capsys, calc):
        assert main(["asympt", "--genus", "0", "--n-max", "16", "--n-min", "10"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert sorted(d) == ["C_est", "exponent_est", "g", "n_range", "predicted_C", "rel_dev"]
        assert (d["g"], d["n_range"]) == (0, [10, 16])
        # strings carry the fit's exact decimals at 10 significant digits
        assert len(d["predicted_C"].replace(".", "").lstrip("0")) == 10
        c_est, exponent = fit_growth(0, 10, 16, calc)
        digits = Context(prec=10).create_decimal
        assert (d["C_est"], d["exponent_est"]) == (str(digits(c_est)), str(digits(exponent)))


class TestCompare:
    def test_two_genera(self, calc):
        # C does not depend on the genus: fits at g = 0 and g = 2 agree
        (a, _), (b, _) = fit_growth(0, 8, 14, calc), fit_growth(2, 8, 14, calc)
        with localcontext(Context(prec=PRECISION)):
            assert abs(a - b) / b < Decimal("0.2")


class TestRatioDiagnostic:
    def test_settles_toward_constant(self, calc):
        seq = growth_ratios(0, 12, 24, calc)
        diffs = [abs(b - a) for a, b in zip(seq, seq[1:])]
        assert all(later <= earlier for earlier, later in zip(diffs, diffs[1:]))
        # drifting toward the predicted constant, not away from it
        C = predicted_growth_constant()
        assert abs(seq[-1] - C) < abs(seq[0] - C)

    def test_first_positive_window_accepted(self, calc):
        # v_{1,0} = 0, but v_{1,n} > 0 from n = 1 on, so that window has every ratio
        assert all(v > 0 for v in volume_series(1, 8, calc)[1:])
        assert len(growth_ratios(1, 1, 8, calc)) == 7
