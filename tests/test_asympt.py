from decimal import Decimal
from fractions import Fraction

import pytest

from wpvol import asympt
from wpvol.asympt import (
    GrowthFit,
    _j0_of_u_bracket,
    _x_of_u_bracket,
    bessel_j0_first_zero,
    compare_growth_constants,
    critical_point,
    critical_radius,
    fit_growth,
    growth_ratio_diagnostic,
    predicted_exponent,
    predicted_growth_constant,
)

F = Fraction

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
        assert str(bessel_j0_first_zero()).startswith(J01_REFERENCE)

    def test_critical_point_is_square_of_half_zero(self):
        assert str(critical_point()).startswith("1.445796490736696")

    def test_derivative_vanishes_at_critical_point(self):
        # x'(u_c) = J0(2 sqrt(u_c)) must enclose something tiny
        from wpvol.asympt import _critical_interval

        lo, hi = _critical_interval()
        mid = (lo + hi) / 2
        b_lo, b_hi = _j0_of_u_bracket(mid, F(1, 10**80))
        assert max(abs(b_lo), abs(b_hi)) < F(1, 10**50)

    def test_bracket_is_rigorous(self):
        lo, hi = _j0_of_u_bracket(F(1), F(1, 10**30))
        assert lo < hi < lo + F(1, 10**29)
        # J0(2) = 0.22389077914123566805...
        assert abs((lo + hi) / 2 - F(22389077914123566805, 10**20)) < F(1, 10**19)

    @pytest.mark.parametrize("tol", [F(1, 10**30), F(1, 10**80)])
    @pytest.mark.parametrize("u", BRACKET_POINTS)
    def test_integer_brackets_equal_fraction_sum(self, u, tol):
        assert _j0_of_u_bracket(u, tol) == reference_j0_bracket(u, tol)
        assert _x_of_u_bracket(u, tol) == reference_x_bracket(u, tol)

    def test_interval_equals_fraction_bisection(self):
        from wpvol.asympt import _critical_interval

        assert _critical_interval() == reference_critical_interval()

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
        a = int(asympt._critical_interval()[0] * 2**asympt._WIDTH_BITS)
        monkeypatch.setattr(asympt, "_newton_guess", lambda: a + offset)
        with pytest.raises(RuntimeError):
            asympt._critical_interval.__wrapped__()

    def test_x_bracket(self):
        lo, hi = _x_of_u_bracket(F(1), F(1, 10**30))
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

    def test_exponents(self):
        assert predicted_exponent(0) == F(-7, 2)
        assert predicted_exponent(2) == F(3, 2)


class TestFit:
    def test_genus0_window(self, calc):
        # a deliberately small window; the full-range bounds live in the
        # acceptance suite
        fit = fit_growth(0, 12, 22, calc)
        assert abs(fit.exponent_est - Decimal("-3.5")) < Decimal("0.7")
        rel = abs(fit.c_est - predicted_growth_constant()) / predicted_growth_constant()
        assert rel < Decimal("0.025")

    def test_too_few_points(self, calc):
        with pytest.raises(ValueError):
            fit_growth(0, 10, 12, calc)

    def test_non_positive_rejected(self, calc):
        with pytest.raises(ValueError):
            fit_growth(1, 0, 8, calc)  # v_{1,0} = 0

    def test_deterministic(self, calc):
        assert fit_growth(0, 10, 16, calc) == fit_growth(0, 10, 16, calc)

    def test_json_shape(self, calc):
        fit = fit_growth(0, 10, 16, calc)
        d = fit.to_json_dict(predicted_growth_constant())
        assert sorted(d) == ["C_est", "exponent_est", "g", "n_range", "predicted_C", "rel_dev"]
        assert d["n_range"] == [10, 16]
        # strings carry 10 significant digits
        assert len(d["predicted_C"].replace(".", "").lstrip("0")) == 10


class TestCompare:
    def test_single_genus_has_no_pairwise(self, calc):
        report = compare_growth_constants([0], 16, n_min=10, calc=calc)
        assert "pairwise" not in report
        assert len(report["fits"]) == 1

    def test_two_genera(self, calc):
        report = compare_growth_constants([0, 2], 14, n_min=8, calc=calc)
        assert len(report["pairwise"]) == 1
        entry = report["pairwise"][0]
        assert entry["g_a"] == 0 and entry["g_b"] == 2
        assert Decimal(entry["rel_dev"]) < Decimal("0.2")

    def test_default_window(self, calc):
        report = compare_growth_constants([0], 16, calc=calc)
        assert report["fits"][0]["n_range"] == [8, 16]


class TestRatioDiagnostic:
    def test_settles_toward_constant(self, calc):
        seq = growth_ratio_diagnostic(0, 12, 24, calc)
        diffs = [abs(b - a) for a, b in zip(seq, seq[1:])]
        assert all(later <= earlier for earlier, later in zip(diffs, diffs[1:]))
        # drifting toward the predicted constant, not away from it
        C = predicted_growth_constant()
        assert abs(seq[-1] - C) < abs(seq[0] - C)

    @pytest.mark.parametrize("g, n_min, n_max", [(0, 0, 8), (0, 1, 8), (1, 0, 8), (2, 0, 8)])
    def test_zero_volume_or_n_min_zero_rejected(self, calc, g, n_min, n_max):
        with pytest.raises(ValueError):
            growth_ratio_diagnostic(g, n_min, n_max, calc)

    def test_first_positive_window_accepted(self, calc):
        assert len(growth_ratio_diagnostic(1, 1, 8, calc)) == 7
