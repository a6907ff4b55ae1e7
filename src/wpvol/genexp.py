"""Genus-expansion series: y(x), the derivative chain f_i, and phi_g.

y(x) is the compositional inverse of x(y) = -sqrt(y) J0'(2 sqrt(y)); its
double antiderivative is the genus-0 generating series phi_0.  Bessel's
equation y x''(y) + x(y) = 0 becomes y y'' = x (y')^3 for the inverse, and
build_y solves that ODE by an integer recurrence in O(N^2) multiplications
(qseries.revert_lagrange is its independent cross-check).  The chain

    f_1 = 1 - 1/y',   f_i = f_{i-1}'/y'   (i >= 2, so f_2 = y''/(y')^3)

feeds the closed genus-g form (g >= 2)

    phi_g = sum_{|l|=3g-3} <tau_2^{l_2} ... tau_{3g-2}^{l_{3g-2}}>_g
            * (y')^(2(g-1)+||l||) * prod_i f_i^{l_i}/l_i!

whose x^n coefficient must reproduce the normalized volume v_{g,n} computed
through the independent kappa-to-tau route.  The f_i also satisfy functional
equations as series in y, checked here coefficient by coefficient, and the
n-th derivative of phi_g has the same shape with tau_0^n inserted; both
identities are verified exactly.

Genus 1 has no closed form of that shape; its generating series is the
genus-1 free energy phi_1 = (1/24) log y' = (1/24) integral y''/y'
(Itzykson-Zuber).  volume_series reads every v_{g,0..N} of one genus off
phi_0, phi_1 or phi_g, and volume_table turns them into VolumeRecords; the
kappa-to-tau volume() stays the single-(g, n) producer and the independent
verifier in theorem_reports.  verify_reports runs the verification suites:
it builds phi_g once, on the caller's memo, and checks it against one fresh
memo.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Tuple

from .kappavol import VolumeRecord, enumerate_multiindices, volume
from .qseries import Series, first_mismatch
from .taucalc import TauCalculator, factorial, format_rational, rational_sum

__all__ = [
    "GenusExpansionContext",
    "CheckReport",
    "build_y",
    "build_phi0",
    "build_phi1",
    "build_f_lemma",
    "build_phi_g",
    "check_derivative_formula",
    "induction_sides",
    "lemma_report",
    "theorem_reports",
    "verify_reports",
    "volume_series",
    "volume_table",
]


def build_y(order: int) -> Series:
    """y(x) with y(0) = 0, y'(0) = 1, the inverse of the Bessel series x(y).

    Solves y y'' = x (y')^3 in the integers P_k = (k!)^2 [x^k] y', so that
    P_{n-1} = (n-1)! n! y_n = V_{0,n+2}.  With Q_k = (k!)^2 [x^k] (y')^2 and
    T_k = (k!)^2 [x^k] (y')^3, the x^m coefficient of the ODE reads

        (m+1) P_m = m (m+1) T_{m-1}
                    - sum_{i=2..m} C(m+1,i) C(m-1,i-1) P_{i-1} P_{m+1-i},

    where Q_k = sum_i C(k,i)^2 P_i P_{k-i} and
    T_k = sum_i C(k,i)^2 Q_i P_{k-i} use only P_0..P_k.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    p, q = [1], []  # P_0..P_{m-1} and Q_0..Q_{m-2} on entry to step m
    for m in range(1, order):
        row = [math.comb(m - 1, i) for i in range(m)]
        squares = [c * c for c in row]
        rev = p[::-1]  # P_{m-1}, ..., P_0
        q.append(sum(c * a * b for c, a, b in zip(squares, p, rev)))
        t = sum(c * a * b for c, a, b in zip(squares, q, rev))
        s = sum(math.comb(m + 1, i) * c * a * b
                for i, c, a, b in zip(range(2, m + 1), row[1:], p[1:], rev))
        p_m, rem = divmod(m * (m + 1) * t - s, m + 1)
        if rem:
            raise ArithmeticError(f"y(x): P_{m} is not an integer")
        p.append(p_m)
    coeffs, fact = [0], 1
    for n, p_n in enumerate(p, 1):  # y_n = P_{n-1} / ((n-1)! n!)
        coeffs.append(Fraction(p_n, fact * fact * n))
        fact *= n
    return Series(coeffs)


def build_phi0(order: int) -> Series:
    """phi_0, the genus-0 generating series: double antiderivative of y,
    both constants zero (its x^0..x^2 coefficients vanish)."""
    if order < 3:
        raise ValueError("phi_0 needs order >= 3")
    return build_y(order - 2).antiderivative(0).antiderivative(0)


def build_phi1(order: int) -> Series:
    """phi_1 = (1/24) log y' = (1/24) integral y''/y', the genus-1 generating
    series; its constant term is v_{1,0} = 0."""
    if order < 1:
        raise ValueError("phi_1 needs order >= 1")
    y_prime = build_y(order + 1).derivative()
    return (y_prime.derivative() * y_prime.reciprocal() / 24).antiderivative(0)


class GenusExpansionContext:
    """y, y', and the f_i chain, all valid to a common truncation order.

    Every derivative costs one order, so the construction works at order
    order + i_max internally and exposes series truncated to `order`; the
    exposed f_i are then reliable for all i <= i_max.  Immutable once built;
    powers of y' and of h_i = y' f_i = f_{i-1}', the closed form's factors,
    are cached in one table.
    """

    def __init__(self, order: int, i_max: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        if i_max < 2:
            raise ValueError("i_max must be >= 2")
        work = order + i_max
        y = build_y(work)
        y_prime = y.derivative()
        inv_y_prime = y_prime.reciprocal()
        f = {1: 1 - inv_y_prime}
        h = {"y'": y_prime}  # the bases of the power table
        for i in range(2, i_max + 1):
            h[i] = f[i - 1].derivative()
            f[i] = h[i] * inv_y_prime
        self.order = order
        self.i_max = i_max
        self.y = y.truncate(order)
        self.y_prime = y_prime.truncate(order)
        self._f = {i: s.truncate(order) for i, s in f.items()}
        self._powers = {(i, 1): s.truncate(order) for i, s in h.items()}

    def f(self, i: int) -> Series:
        if not 1 <= i <= self.i_max:
            raise ValueError(f"f_{i} not built; context holds i = 1..{self.i_max}")
        return self._f[i]

    def y_prime_power(self, exponent: int) -> Series:
        return self.h_power("y'", exponent)

    def h_power(self, i, exponent: int) -> Series:
        power = self._powers.get((i, exponent))
        if power is None:
            power = self._powers[i, exponent] = self._powers[i, 1] ** exponent
        return power


def build_f_lemma(i: int, ctx: GenusExpansionContext) -> Series:
    """f_i through its functional equation
    f_i = sum_{k>=0} (-1)^(i+k) / (i+k-1)! * y^k / k!, composed with y(x).

    Only asserted for i >= 2: at i = 1 the k = 0 term would contradict
    f_1(0) = 0, and the identity there holds only with the sum started at
    k = 1, so i = 1 is rejected rather than picking a reading.
    Since y has valuation 1, summing k up to the truncation order is exact.
    """
    if i < 2:
        raise ValueError("the functional-equation form is asserted only for i >= 2")
    outer = Series(Fraction((-1) ** (i + k), factorial(i + k - 1) * factorial(k))
                   for k in range(ctx.order + 1))
    return outer.compose(ctx.y)


def _closed_form(g: int, n: int, ctx: GenusExpansionContext, calc: TauCalculator) -> Series:
    """sum_{|l|=3g-3+n} <tau_0^n tau_2^{l_2} ...>_g
    * (y')^(2(g-1)+n+||l||) * prod f_i^{l_i}/l_i!, to ctx.order, summed as
    (y')^(2(g-1)+n) * sum <...>_g prod h_i^{l_i}/l_i! with h_i = y' f_i."""
    if ctx.i_max < 3 * g - 2 + n:
        raise ValueError(f"context needs i_max >= {3 * g - 2 + n} for genus {g}")
    terms = []  # (p, q, coefficients) of each nonzero term; each x^k is summed once
    for l in enumerate_multiindices(3 * g - 3 + n):
        bracket = calc.tau_batch(g, l.items(), zeros=n)
        if not bracket:
            continue
        term, *factors = (ctx.h_power(i, mult) for i, mult in l.items())
        for factor in factors:
            term = term * factor
        denom = bracket.denominator * math.prod(map(factorial, l.values()))
        terms.append((bracket.numerator, denom, term.coeffs))
    total = Series(rational_sum([(p * c[k].numerator, q * c[k].denominator) for p, q, c in terms])
                   for k in range(ctx.order + 1))
    return total * ctx.y_prime_power(2 * (g - 1) + n)


def build_phi_g(g: int, ctx: GenusExpansionContext, calc: TauCalculator) -> Series:
    """The closed genus-g generating series, g >= 2, to ctx.order: the n = 0
    case of the sum in check_derivative_formula."""
    if g < 2:
        raise ValueError("the closed genus form starts at g = 2 (use build_phi0 for g = 0)")
    return _closed_form(g, 0, ctx, calc)


def volume_series(g: int, n_max: int, calc: TauCalculator) -> list:
    """[v_{g,0}, ..., v_{g,n_max}], the coefficients of one generating series:
    phi_0 for g = 0, phi_1 for g = 1 and the closed form phi_g for g >= 2."""
    if g < 0 or n_max < 0:
        raise ValueError("genus and point count must be >= 0")
    order = max(n_max, 3)
    if g == 0:
        phi = build_phi0(order)
    elif g == 1:
        phi = build_phi1(order)
    else:
        phi = build_phi_g(g, GenusExpansionContext(order, 3 * g - 2), calc)
    return list(phi.coeffs[: n_max + 1])


def volume_table(g: int, n_max: int, calc: TauCalculator) -> list:
    """VolumeRecords for n = 0..n_max, read off the genus-g generating series.

    V = v n! d!; the unstable (g, n) have v = 0 and get the same zero
    records as volume().
    """
    records = []
    for n, v in enumerate(volume_series(g, n_max, calc)):
        dim = 3 * g - 3 + n
        big_v = v * factorial(n) * factorial(dim) if v else v
        records.append(VolumeRecord(g, n, dim, big_v, v))
    return records


class CheckReport:
    """Outcome of one exact verification: its check, its fields (g, n, i, l)
    and its first mismatch (power or None, lhs, rhs), None when it passed."""

    def __init__(self, check: str, mismatch: Optional[tuple] = None, **fields):
        self.check = check
        self.passed = mismatch is None
        self.mismatch = mismatch
        self.fields = fields

    def to_json_dict(self) -> dict:
        out = {"check": self.check, **self.fields, "pass": self.passed}
        if self.mismatch is None:
            out["first_mismatch"] = None
        else:
            power, lhs, rhs = self.mismatch
            out["first_mismatch"] = {
                "power": power,
                "lhs": format_rational(lhs),
                "rhs": format_rational(rhs),
            }
        return out


def check_derivative_formula(g: int, n: int, phi: Series, ctx: GenusExpansionContext,
                             calc: TauCalculator) -> CheckReport:
    """Compare the n-th formal derivative of the series `phi` under test
    (phi_g) with the closed form

        sum_{|l|=3g-3+n} <tau_0^n tau_2^{l_2} ...>_g
        * (y')^(2(g-1)+n+||l||) * prod f_i^{l_i}/l_i!

    with its correlators on `calc`, as truncated series (exactly, to the
    order both sides support)."""
    if g < 2:
        raise ValueError("derivative check applies to g >= 2")
    if n < 0 or n > ctx.order:
        raise ValueError("need 0 <= n <= ctx.order")
    rhs = _closed_form(g, n, ctx, calc)
    lhs = phi
    for _ in range(n):
        lhs = lhs.derivative()
    return CheckReport("derivative_formula", g=g, n=n, mismatch=first_mismatch(lhs, rhs))


def induction_sides(g: int, n: int, l: Mapping[int, int],
                    calc: TauCalculator) -> Tuple[Fraction, Fraction]:
    """Both sides of the index-shift identity that removes one tau_0:

        <tau_0^n prod tau_i^{l_i}> = l_2 (2(g-1) + (n-1) + (||l||-1))
            <tau_0^(n-1) prod tau_i^{l_i - d_{i,2}}>
          + sum_{j>=3} l_j <tau_0^(n-1) prod tau_i^{l_i - d_{i,j} + d_{i,j-1}}>

    (string equation followed by dilaton on the freed tau_1), for a
    multi-index l given as an {i: l_i} mapping with i >= 2 and l_i >= 0."""
    if n < 1:
        raise ValueError("the identity removes a tau_0, so n >= 1")
    for i, mult in l.items():
        if i < 2:
            raise ValueError(f"multi-index entries start at i = 2, got {i}")
        if mult < 0:
            raise ValueError(f"multiplicities must be >= 0, got l_{i} = {mult}")
    weight = sum((i - 1) * mult for i, mult in l.items())
    if weight != 3 * g - 3 + n:
        raise ValueError(f"multi-index weight {weight} != dimension {3 * g - 3 + n}")
    lhs = calc.tau_batch(g, l.items(), zeros=n)
    rhs = Fraction(0)
    l2 = l.get(2, 0)
    if l2:
        euler = 2 * (g - 1) + (n - 1) + (sum(l.values()) - 1)
        rhs += l2 * euler * calc.tau_batch(g, {**l, 2: l2 - 1}.items(), zeros=n - 1)
    for j, mult in l.items():
        if j >= 3 and mult:
            shifted = {**l, j: mult - 1, j - 1: l.get(j - 1, 0) + 1}
            rhs += mult * calc.tau_batch(g, shifted.items(), zeros=n - 1)
    return lhs, rhs


def lemma_report(i: int, ctx: GenusExpansionContext) -> CheckReport:
    """Exact coefficient comparison of the derivative-chain f_i with its
    functional-equation form."""
    mm = first_mismatch(ctx.f(i), build_f_lemma(i, ctx))
    return CheckReport("f_functional_equation", i=i, mismatch=mm)


def theorem_reports(g: int, n_max: int, phi: Series, calc: TauCalculator) -> list:
    """Per-coefficient comparison [x^n] phi == v_{g,n} for n = 0..n_max, the
    volumes from the kappa-to-tau sum on `calc`.  Given phi_g from the genus
    expansion and a memo of its own for `calc`, the two routes share no memo
    entry but run the same engine code, so an engine rule wrong on both (a
    wrong dilaton factor) passes; ROADMAP items 6 and 11 add routes that don't.
    """
    if n_max > phi.order:
        raise ValueError(f"series order {phi.order} < n_max {n_max}")
    reports = []
    for n in range(n_max + 1):
        lhs = phi[n]
        rhs = volume(g, n, calc).v
        mm = None if lhs == rhs else (n, lhs, rhs)
        reports.append(CheckReport("genus_series_vs_volume", g=g, n=n, mismatch=mm))
    return reports


def verify_reports(suite: str, g: int, order: int, calc: TauCalculator) -> list:
    """The reports of one verification suite ("lemma", "theorem1",
    "derivative", "induction" or "all"), in that order.

    phi_g is built once, on `calc`, the session memo a cache file may have
    filled.  Everything it is checked against (the kappa-to-tau volumes, the
    tau_0^n closed forms of its derivatives, the index-shift identity) reads
    one fresh memo that no cache reaches, so a wrong cache value cannot pass
    its own check.
    """
    if g < 2:
        raise ValueError("verification suites need --genus >= 2")
    if order < 1:
        raise ValueError("--order must be >= 1")
    lemma_top = 3 * g - 2 + 4
    ctx = GenusExpansionContext(order=order, i_max=max(lemma_top, 10))
    checker = TauCalculator()
    reports = []
    if suite in ("lemma", "all"):
        for i in range(2, lemma_top + 1):
            reports.append(lemma_report(i, ctx))
        for i in range(2, 11):
            expected = Fraction((-1) ** i, factorial(i - 1))
            actual = ctx.f(i)[0]
            mm = None if actual == expected else (0, actual, expected)
            reports.append(CheckReport("f_value_at_zero", i=i, mismatch=mm))
    if suite in ("theorem1", "derivative", "all"):
        phi = build_phi_g(g, ctx, calc)
    if suite in ("theorem1", "all"):
        reports.extend(theorem_reports(g, order, phi, checker))
    if suite in ("derivative", "all"):
        for n in range(0, min(4, order) + 1):
            reports.append(check_derivative_formula(g, n, phi, ctx, checker))
    if suite in ("induction", "all"):
        for n in range(1, min(4, order) + 1):
            for l in enumerate_multiindices(3 * g - 3 + n):
                lhs, rhs = induction_sides(g, n, l, checker)
                mm = None if lhs == rhs else (None, lhs, rhs)
                reports.append(CheckReport("index_shift_identity", g=g, n=n, mismatch=mm,
                                           l={str(i): m for i, m in l.items()}))
    return reports
