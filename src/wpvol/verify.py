"""The exact verification suites that `verify` runs; only `verify` imports this module.

Each suite compares the genus expansion of `genexp` with a second reading of
the same quantity, coefficient by coefficient in reduced int pairs:

- lemma: each f_i of the chain against its functional equation as a series
  in y(x), summed over the powers of y from the context's table;
- theorem1: the x^n coefficient of phi_g against the kappa-to-tau volume
  v_{g,n} of `kappavol.volume`;
- derivative: the n-th derivative of phi_g against the closed form with n
  tau_0s inserted, at every stable (g, n), 2g - 2 + n > 0;
- induction: the index-shift identity that removes one tau_0 (the string
  equation followed by the dilaton equation on the freed tau_1).

Each check is a `genexp.CheckReport` of the two sides it compares; `cli`
renders it.
"""

from __future__ import annotations

from typing import Mapping, Tuple

from .genexp import CheckReport, GenusExpansionContext, build_phi_g, closed_form, weighted_sum
from .kappavol import enumerate_multiindices, volume
from .qseries import Series
from .taucalc import TauCalculator, factorial, rational_sum, reduced

__all__ = [
    "build_f_lemma",
    "check_derivative_formula",
    "induction_sides",
    "verify_reports",
]


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
    powers = [((1, 1),) + ((0, 1),) * ctx.order,  # y^0, the unit
              *(ctx.h_power("y", k).pairs for k in range(1, ctx.order + 1))]
    return weighted_sum([((-1) ** (i + k), factorial(i + k - 1) * factorial(k), c)
                         for k, c in enumerate(powers)], ctx.order)


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
    rhs = closed_form(g, n, ctx, calc)
    lhs = phi
    for _ in range(n):
        lhs = lhs.derivative()
    return CheckReport("derivative_formula", lhs, rhs, g=g, n=n)


def induction_sides(g: int, n: int, l: Mapping[int, int],
                    calc: TauCalculator) -> Tuple[Tuple[int, int], Tuple[int, int]]:
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
    if n < 1 or 2 * g - 3 + n <= 0:  # a stable child, as for the fused step in TauCalculator._dvv
        raise ValueError("the fused string-dilaton step needs n >= 1 and 2g - 3 + n > 0")
    lhs = calc.tau_batch(g, {0: n, **l}.items())
    terms = []  # the (p, q) of each weighted child
    l2 = l.get(2, 0)
    if l2:
        euler = 2 * (g - 1) + (n - 1) + (sum(l.values()) - 1)
        p, q = calc.tau_batch(g, {0: n - 1, **l, 2: l2 - 1}.items())
        terms.append((l2 * euler * p, q))
    for j, mult in l.items():
        if j >= 3 and mult:
            shifted = {**l, j: mult - 1, j - 1: l.get(j - 1, 0) + 1}
            p, q = calc.tau_batch(g, {0: n - 1, **shifted}.items())
            terms.append((mult * p, q))
    return lhs, rational_sum(terms)


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
    engine code, so an engine rule wrong on both (a wrong dilaton factor of
    DVV at k = 1) passes; ROADMAP items 4 and 7 add routes that don't.
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
            reports.append(CheckReport("f_value_at_zero", ctx.f(i).pairs[0],
                                       reduced((-1) ** i, factorial(i - 1)), power=0, i=i))
    if suite in ("theorem1", "derivative", "all"):
        phi = build_phi_g(g, ctx, calc)
    if suite in ("theorem1", "all"):
        for n in range(order + 1):
            rec = volume(g, n, checker)
            reports.append(CheckReport("genus_series_vs_volume", phi.pairs[n], (rec.p, rec.q),
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
