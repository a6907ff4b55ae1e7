"""Genus-expansion series: y(x), the derivative chain f_i, and phi_g.

y(x) is the compositional inverse of x(y) = -sqrt(y) J0'(2 sqrt(y)); its
double antiderivative is the genus-0 generating series phi_0.  Bessel's
equation y x''(y) + x(y) = 0 becomes y y'' = x (y')^3 for the inverse, and
build_y solves that ODE by an integer recurrence in O(N^2) multiplications
(qseries.revert_lagrange is its independent cross-check).  The chain

    f_1 = 1 - 1/y',   f_i = f_{i-1}'/y'   (i >= 2, so f_2 = y''/(y')^3)

feeds the closed genus-g form, at n = 0 for g >= 2,

    phi_g = sum_{|l|=3g-3} <tau_2^{l_2} ... tau_{3g-2}^{l_{3g-2}}>_g
            * (y')^(2(g-1)+||l||) * prod_i f_i^{l_i}/l_i!

whose x^n coefficient must reproduce the normalized volume v_{g,n} computed
through the independent kappa-to-tau route.  It reads its brackets from
kappavol.brackets, the loop that route sums too, and its powers of y' and
h_i = y' f_i from one table in GenusExpansionContext, built one product at
a time; the context builds y and y', and one loop grows the chain only as
far as it is read.  The f_i also satisfy functional equations as series in
y, summed over the powers of y from the same table and checked here
coefficient by coefficient; _weighted_sum is the one kernel of that sum, the
closed form's and f_1 = 1 - 1/y', and adds each coefficient with
taucalc.rational_sum.  At every stable (g, n), 2g - 2 + n > 0,
the n-th derivative of phi_g has the same shape with tau_0^n inserted; both
identities are verified exactly.  Below genus 2 the smallest stable n is
positive: phi_0''' = <tau_0^3>_0 y' = y', an empty product of f_i, and
phi_1' = <tau_0 tau_2>_1 y' h_2 = y''/(24 y'), the derivative of the genus-1
free energy (1/24) log y' (Itzykson-Zuber).  So build_phi_g gives every
phi_g as the n-fold antiderivative of that form, and at genus 0 it reads y'
alone.  volume_series reads every v_{g,0..N} of one genus off phi_g, the
records `volume --table` prints; the kappa-to-tau volume() stays the
single-(g, n) producer and the independent verifier in verify_reports,
which runs the suites at every genus from that smallest n: it builds phi_g
once, on the caller's memo, and checks it against one fresh memo.  Each
check is a CheckReport of the two sides it compares; `cli` renders it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Tuple

from .kappavol import brackets, enumerate_multiindices, volume
from .qseries import Series, first_mismatch
from .taucalc import TauCalculator, factorial, rational_sum

__all__ = [
    "GenusExpansionContext",
    "CheckReport",
    "build_y",
    "build_f_lemma",
    "build_phi_g",
    "check_derivative_formula",
    "induction_sides",
    "verify_reports",
    "volume_series",
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


def _weighted_sum(terms, order: int) -> Series:
    """sum p/q * c over the (p, q, coefficients) terms to x^order, each x^k the
    rational_sum of its nonzero terms: ints over their lcm, reduced once."""
    return Series(Fraction(*rational_sum([(p * c[k].numerator, q * c[k].denominator)
                                          for p, q, c in terms if c[k]]))
                  for k in range(order + 1))


class GenusExpansionContext:
    """y, y', and the f_i chain, all valid to a common truncation order.

    Every derivative costs one order, so y is built to order + i_max and each
    series is exposed truncated to `order`; the f_i are then reliable for all
    i <= i_max.  One loop builds the chain on first read, only as far as read:
    f_1 = 1 - 1/y', then f_j = h_j/y', each with h_{j+1} = f_j' beside it.
    The powers of y (base "y"), which the lemma sums, and the closed form's
    factors, the powers of y' (base "y'") and of h_i = y' f_i (base i), come
    from one table that h_power extends one product at a time.
    """

    def __init__(self, order: int, i_max: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        if i_max < 1:
            raise ValueError("i_max must be >= 1")
        y = build_y(order + i_max)
        self.order = order
        self.i_max = i_max
        self._h = {"y": y, "y'": y.derivative()}  # the bases of the power table, untruncated
        self._chain = []  # 1/y' and the f_i, untruncated
        self._powers = {i: [] for i in ["y", "y'", *range(2, i_max + 1)]}  # base -> [b, b^2, ...]

    def _chain_to(self, i: int) -> list:
        """[1/y', f_1, ..., f_i]; each f_j adds h_{j+1} = f_j' to the bases
        below i_max (at order 0, f_{i_max} has no x^1 to differentiate)."""
        chain = self._chain
        if not chain:
            chain.append(self._h["y'"].reciprocal())
        inv = chain[0]
        for j in range(len(chain), i + 1):
            chain.append(self._h[j] * inv if j > 1 else _weighted_sum(
                [(1, 1, (1,) + (0,) * inv.order), (-1, 1, inv.coeffs)], inv.order))
            if j < self.i_max:
                self._h[j + 1] = chain[j].derivative()
        return chain

    def f(self, i: int) -> Series:
        if not 1 <= i <= self.i_max:
            raise ValueError(f"f_{i} not built; context holds i = 1..{self.i_max}")
        return self._chain_to(i)[i].truncate(self.order)

    def h_power(self, i, exponent: int) -> Series:
        """h_i^exponent, or y^exponent for i = "y" and (y')^exponent for
        i = "y'"; each power above the highest one held costs one product."""
        if exponent < 1:
            raise ValueError("the power table starts at exponent 1")
        powers = self._powers[i]
        if not powers:
            if i not in self._h:  # h_i = f_{i-1}'
                self._chain_to(i - 1)
            powers.append(self._h[i].truncate(self.order))
        while len(powers) < exponent:
            powers.append(powers[-1] * powers[0])
        return powers[exponent - 1]


def build_f_lemma(i: int, ctx: GenusExpansionContext) -> Series:
    """f_i through its functional equation
    f_i = sum_{k>=0} (-1)^(i+k) / (i+k-1)! * y^k / k!, a series in y(x)
    summed with the powers y^k from ctx's table.

    Only asserted for i >= 2: at i = 1 the k = 0 term would contradict
    f_1(0) = 0, and the identity there holds only with the sum started at
    k = 1, so i = 1 is rejected rather than picking a reading.
    Since y has valuation 1, y^k = O(x^k): the x^j coefficient sums k = 1..j
    beside the constant k = 0 term, and k stops at the truncation order.
    """
    if i < 2:
        raise ValueError("the functional-equation form is asserted only for i >= 2")
    powers = [ctx.h_power("y", k).coeffs for k in range(1, ctx.order + 1)]
    return _weighted_sum([((-1) ** (i + k), factorial(i + k - 1) * factorial(k), c)
                          for k, c in enumerate([(1,) + (0,) * ctx.order, *powers])], ctx.order)


def _closed_form(g: int, n: int, ctx: GenusExpansionContext, calc: TauCalculator) -> Series:
    """sum_{|l|=3g-3+n} <tau_0^n tau_2^{l_2} ...>_g
    * (y')^(2(g-1)+n+||l||) * prod f_i^{l_i}/l_i!, to ctx.order, summed as
    (y')^(2(g-1)+n) * sum <...>_g prod h_i^{l_i}/l_i! with h_i = y' f_i."""
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"(g, n) = ({g}, {n}) is unstable: 2g - 2 + n <= 0")
    if ctx.i_max < 3 * g - 2 + n:
        raise ValueError(f"context needs i_max >= {3 * g - 2 + n} for genus {g}")
    terms = []  # (p, q, coefficients) of each nonzero term
    for l, p, q in brackets(g, n, calc):
        # the empty product is the unit; another starts at its first factor, one product fewer
        first, *rest = [ctx.h_power(i, m) for i, m in l.items()] or [Series([1] + [0] * ctx.order)]
        terms.append((p, q, math.prod(rest, start=first).coeffs))
    return _weighted_sum(terms, ctx.order) * ctx.h_power("y'", 2 * (g - 1) + n)


def build_phi_g(g: int, ctx: GenusExpansionContext, calc: TauCalculator) -> Series:
    """phi_g to ctx.order: the n-fold antiderivative (constants zero) of the
    sum in check_derivative_formula at the smallest stable n.  That is n = 3
    for g = 0, where phi_0''' = <tau_0^3>_0 y' = y'; n = 1 for g = 1, where
    phi_1' = <tau_0 tau_2>_1 y' h_2 = y''/(24 y'); and n = 0 for g >= 2."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    n = max(0, 3 - 2 * g)  # the smallest n with 2g - 2 + n > 0
    phi = _closed_form(g, n, ctx, calc)
    for _ in range(n):
        phi = phi.antiderivative(0)
    return phi.truncate(ctx.order)


def volume_series(g: int, n_max: int, calc: TauCalculator) -> list:
    """[v_{g,0}, ..., v_{g,n_max}], the coefficients of phi_g, from a context
    holding the 3g - 2 + n factors of build_phi_g's closed form at its n."""
    if g < 0 or n_max < 0:
        raise ValueError("g and n_max must be >= 0")
    ctx = GenusExpansionContext(n_max, 3 * g - 2 + max(0, 3 - 2 * g))
    return list(build_phi_g(g, ctx, calc).coeffs)


class CheckReport:
    """Outcome of one exact comparison of `lhs` with `rhs`: its check, its
    fields (g, n, i, l) and its first mismatch (power, lhs, rhs), None when it
    passed.  Two series are compared coefficient by coefficient; two values
    are compared whole, and a mismatch is reported at `power`."""

    def __init__(self, check: str, lhs, rhs, power: Optional[int] = None, **fields):
        self.check = check
        if isinstance(lhs, Series):
            self.mismatch = first_mismatch(lhs, rhs)
        else:
            self.mismatch = None if lhs == rhs else (power, lhs, rhs)
        self.passed = self.mismatch is None
        self.fields = fields


def check_derivative_formula(g: int, n: int, phi: Series, ctx: GenusExpansionContext,
                             calc: TauCalculator) -> CheckReport:
    """Compare the n-th formal derivative of the series `phi` under test
    (phi_g) with the closed form

        sum_{|l|=3g-3+n} <tau_0^n tau_2^{l_2} ...>_g
        * (y')^(2(g-1)+n+||l||) * prod f_i^{l_i}/l_i!

    with its correlators on `calc`, as truncated series (exactly, to the
    order both sides support), at any genus and any stable n, 2g - 2 + n > 0."""
    if n < 0 or n > ctx.order:
        raise ValueError("need 0 <= n <= ctx.order")
    rhs = _closed_form(g, n, ctx, calc)
    lhs = phi
    for _ in range(n):
        lhs = lhs.derivative()
    return CheckReport("derivative_formula", lhs, rhs, g=g, n=n)


def induction_sides(g: int, n: int, l: Mapping[int, int],
                    calc: TauCalculator) -> Tuple[Fraction, Fraction]:
    """Both sides of the index-shift identity that removes one tau_0:

        <tau_0^n prod tau_i^{l_i}> = l_2 (2(g-1) + (n-1) + (||l||-1))
            <tau_0^(n-1) prod tau_i^{l_i - d_{i,2}}>
          + sum_{j>=3} l_j <tau_0^(n-1) prod tau_i^{l_i - d_{i,j} + d_{i,j-1}}>

    (string equation followed by dilaton on the freed tau_1), for a
    multi-index l given as an {i: l_i} mapping with i >= 2 and l_i >= 0."""
    for i, mult in l.items():
        if i < 2:
            raise ValueError(f"multi-index entries start at i = 2, got {i}")
        if mult < 0:
            raise ValueError(f"multiplicities must be >= 0, got l_{i} = {mult}")
    weight = sum((i - 1) * mult for i, mult in l.items())
    if weight != 3 * g - 3 + n:
        raise ValueError(f"multi-index weight {weight} != dimension {3 * g - 3 + n}")
    if n < 1 or 2 * g - 3 + n <= 0:  # the child of the step must be stable, as in _string
        raise ValueError("the fused string-dilaton step needs n >= 1 and 2g - 3 + n > 0")
    lhs = Fraction(*calc.tau_batch(g, l.items(), zeros=n))
    rhs = Fraction(0)
    l2 = l.get(2, 0)
    if l2:
        euler = 2 * (g - 1) + (n - 1) + (sum(l.values()) - 1)
        rhs += l2 * euler * Fraction(*calc.tau_batch(g, {**l, 2: l2 - 1}.items(), zeros=n - 1))
    for j, mult in l.items():
        if j >= 3 and mult:
            shifted = {**l, j: mult - 1, j - 1: l.get(j - 1, 0) + 1}
            rhs += mult * Fraction(*calc.tau_batch(g, shifted.items(), zeros=n - 1))
    return lhs, rhs


def verify_reports(suite: str, g: int, order: int, calc: TauCalculator) -> list:
    """The reports of one verification suite ("lemma", "theorem1",
    "derivative", "induction" or "all"), in that order, at any genus g >= 0.
    From the smallest stable n_s = max(0, 3 - 2g), derivative checks n_s..n_s + 4
    and induction n_s + 1..n_s + 4, up to `order`; an empty suite is an error.

    phi_g is built once, on `calc`, the session memo a cache file may have
    filled.  Everything it is checked against (the kappa-to-tau volumes, the
    tau_0^n closed forms of its derivatives, the index-shift identity) reads
    one fresh memo that no cache reaches, so a wrong cache value cannot pass
    its own check.  The two routes share no memo entry but run the same
    engine code, so an engine rule wrong on both (a wrong dilaton factor)
    passes; ROADMAP items 4 and 7 add routes that don't.
    """
    if g < 0:
        raise ValueError("g must be >= 0")
    n_s = max(0, 3 - 2 * g)  # the smallest n with 2g - 2 + n > 0
    top = min(n_s + 4, order)
    lemma_top = 3 * g - 2 + n_s + 4  # the highest f_i the derivative window reads
    ctx = GenusExpansionContext(order=order, i_max=max(lemma_top, 10))
    checker = TauCalculator()
    reports = []
    if suite in ("lemma", "all"):
        for i in range(2, lemma_top + 1):
            reports.append(CheckReport("f_functional_equation", ctx.f(i), build_f_lemma(i, ctx),
                                       i=i))
        for i in range(2, 11):
            reports.append(CheckReport("f_value_at_zero", ctx.f(i)[0],
                                       Fraction((-1) ** i, factorial(i - 1)), power=0, i=i))
    if suite in ("theorem1", "derivative", "all"):
        phi = build_phi_g(g, ctx, calc)
    if suite in ("theorem1", "all"):
        for n in range(order + 1):
            reports.append(CheckReport("genus_series_vs_volume", phi[n], volume(g, n, checker).v,
                                       power=n, g=g, n=n))
    if suite in ("derivative", "all"):
        for n in range(n_s, top + 1):
            reports.append(check_derivative_formula(g, n, phi, ctx, checker))
    if suite in ("induction", "all"):
        for n in range(n_s + 1, top + 1):
            for l in enumerate_multiindices(3 * g - 3 + n):
                lhs, rhs = induction_sides(g, n, l, checker)
                reports.append(CheckReport("index_shift_identity", lhs, rhs, g=g, n=n,
                                           l={str(i): m for i, m in l.items()}))
    if not reports:
        raise ValueError(f"suite {suite} has no check at genus {g} and order {order}")
    return reports
