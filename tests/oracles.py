"""Reference implementations that only the tests call.

Each one is an independent oracle for a producer in `wpvol` (or a helper
the other oracles need); none of them runs in a `wpvol` command.
"""

import math
from fractions import Fraction
from functools import lru_cache

from wpvol.qseries import Series, bessel_x_of_y, parse_rational, revert_lagrange


def series(values) -> Series:
    """The Series with the given int or Fraction coefficients: the one
    route from exact values to the reduced pairs `Series` is built from."""
    return Series((v.numerator, v.denominator) for v in values)


def mul_lists(a: list, b: list, n: int) -> list:
    """Schoolbook Cauchy product of coefficient lists in plain Fraction
    arithmetic, truncated at order n (zeros past either list's end): the
    reference for the `Series` product, which convolves ints over an lcm."""
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += Fraction(ai) * bj
    return out


def _compose_lists(outer: list, inner: list, n: int) -> list:
    """Horner evaluation of outer at inner (inner[0] must vanish), order n.

    The partial result after adding outer[i] is multiplied by inner**i later,
    which has valuation >= i, so it is needed only through order n - i.
    """
    res: list = []
    for i in range(len(outer) - 1, -1, -1):
        res = mul_lists(res, inner, n - i)
        res[0] += outer[i]
    return res


def add(a: Series, b: Series) -> Series:
    """a + b, coefficient by coefficient, truncated at the smaller order: the
    reference sum of two series, which `Series` does not offer."""
    return series(x + y for x, y in zip(a.coeffs, b.coeffs))


def scale(a: Series, c) -> Series:
    """c * a, coefficient by coefficient, for an exact scalar c."""
    return series(c * x for x in a.coeffs)


def compose(outer: Series, inner: Series) -> Series:
    """outer(inner(x)), truncated at the smaller order, by Horner's rule: the
    reference for `verify.build_f_lemma`, which sums the powers of y instead.

    The inner series must vanish at 0, otherwise every outer coefficient
    would contribute to each result coefficient.
    """
    if inner.coeffs[0]:
        raise ValueError("composition needs an inner series with zero constant term")
    n = min(outer.order, inner.order)
    return series(_compose_lists(list(outer.coeffs[: n + 1]), list(inner.coeffs[: n + 1]), n))


def newton_revert(a_series: Series) -> Series:
    """Compositional inverse by Newton iteration.

    Given a(x) with a(0) = 0 and a'(0) != 0, returns b with a(b(x)) = x to
    the order of a.  Each step doubles the number of correct coefficients:
    if b is exact to order p and e = a(b) - x, then b - e*b' is exact to
    order 2p.  The reference for `genexp.build_y`, next to
    `qseries.revert_lagrange`.
    """
    a = list(a_series.coeffs)
    if a_series.order < 1:
        raise ValueError("reversion needs order >= 1")
    if a[0]:
        raise ValueError("reversion needs a zero constant term")
    if not a[1]:
        raise ValueError("reversion needs an invertible linear coefficient")
    n = a_series.order
    b = [Fraction(0), 1 / a[1]]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        cur = b + [Fraction(0)] * (prec + 1 - len(b))
        err = _compose_lists(a[: prec + 1], cur, prec)
        err[1] -= 1
        dcur = [(k + 1) * cur[k + 1] for k in range(prec)]
        corr = mul_lists(err, dcur, prec)
        b = [cur[k] - corr[k] for k in range(prec + 1)]
    return series(b)


def ref_phi0(order: int) -> Series:
    """phi_0, the double antiderivative of y to `order`, with y from the
    Lagrange reversion of the Bessel series: the genus-0 reference for
    `genexp.build_phi_g`, which runs no correlator engine."""
    y = revert_lagrange(bessel_x_of_y(order))
    return y.antiderivative(0).antiderivative(0).truncate(order)


def ref_phi1(order: int) -> Series:
    """phi_1 = (1/24) log y' = (1/24) integral y''/y' to `order`, with y from
    the Lagrange reversion of the Bessel series: the genus-1 reference for
    `genexp.build_phi_g`, which runs no correlator engine."""
    y_prime = revert_lagrange(bessel_x_of_y(order + 1)).derivative()
    return scale((y_prime.derivative() * y_prime.reciprocal()).antiderivative(0), Fraction(1, 24))


@lru_cache(maxsize=None)
def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)... with the conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial of {n} is undefined here")
    return math.prod(range(n, 0, -2))


# -- correlators ----------------------------------------------------------------
# One function per reduction rule, in Fraction arithmetic on labeled points,
# with the double factorials written out.  Each takes `tau(g, ds)` for its
# children: a test passes `partial(engine_tau, calc)` to check one step of
# the engine, and `ref_tau` passes itself.


def engine_tau(calc, g, ds) -> Fraction:
    """<tau_ds>_g from the engine `calc`, a TauCalculator, as a Fraction: its
    one entry, tau_batch, with each index of `ds` given once."""
    return Fraction(*calc.tau_batch(g, ((d, 1) for d in ds)))


def _without(ds, d):
    """`ds` sorted descending, without one copy of `d`; ValueError if absent."""
    rest = sorted(ds, reverse=True)
    rest.remove(d)
    return tuple(rest)


def string_step(tau, g, ds):
    """<tau_0 prod tau_{d_j}>_g = sum_j <... tau_{d_j - 1} ...>_g, the string
    equation (the terms with d_j = 0 drop out); not for <tau_0^3>_0."""
    if 0 not in ds:
        raise ValueError("string equation needs a tau_0 insertion")
    rest = _without(ds, 0)
    return sum((tau(g, rest[:j] + (d - 1,) + rest[j + 1:]) for j, d in enumerate(rest) if d),
               Fraction(0))


def dilaton_step(tau, g, ds):
    """<tau_1 rest>_g = (2g - 2 + |rest|) <rest>_g, the dilaton equation; not
    for <tau_1>_1."""
    if 1 not in ds:
        raise ValueError("dilaton equation needs a tau_1 insertion")
    rest = _without(ds, 1)
    return (2 * g - 2 + len(rest)) * tau(g, rest)


def dvv_step(tau, g, ds, k):
    """One DVV step on a tau_k, k >= 2 any index of the key:

        (2k+1)!! <tau_k prod tau_{d_j}>_g =
            sum_j [(2(k+d_j)-1)!! / (2d_j-1)!!] <tau_{k+d_j-1} rest_j>_g
          + 1/2 sum_{a+b=k-2} (2a+1)!!(2b+1)!! [ <tau_a tau_b rest>_{g-1}
              + sum_{g1+g2=g, I+J=rest} <tau_a I>_{g1} <tau_b J>_{g2} ]

    with (-1)!! = 1 and the splitting sum over every subset of the positions
    of rest and every g1."""
    if k < 2:
        raise ValueError("DVV recursion pivots on an index >= 2")
    if k not in ds:
        raise ValueError(f"pivot {k} not present in {list(ds)}")
    df = double_factorial
    rest = _without(ds, k)
    total = Fraction(0)
    for j, d in enumerate(rest):
        total += Fraction(df(2 * (k + d) - 1), df(2 * d - 1)) * tau(
            g, rest[:j] + (k + d - 1,) + rest[j + 1:])
    for a in range(k - 1):
        b = k - 2 - a
        inner = tau(g - 1, rest + (a, b)) if g else Fraction(0)
        for mask in range(2 ** len(rest)):
            part = tuple(d for j, d in enumerate(rest) if mask >> j & 1)
            complement = tuple(d for j, d in enumerate(rest) if not mask >> j & 1)
            for g1 in range(g + 1):
                inner += tau(g1, part + (a,)) * tau(g - g1, complement + (b,))
        total += Fraction(df(2 * a + 1) * df(2 * b + 1), 2) * inner
    return total / df(2 * k + 1)


def ref_tau(g, ds):
    """<tau_ds>_g from the three rules above and the two base values: the
    string equation while a tau_0 remains, the dilaton equation when every
    index is 1, otherwise DVV on the largest index; 0 for an unstable or
    dimension-breaking key."""
    return _ref_tau(g, tuple(sorted(ds, reverse=True)))


@lru_cache(maxsize=None)
def _ref_tau(g, ds):
    n = len(ds)
    if 2 * g - 2 + n <= 0 or sum(ds) != 3 * g - 3 + n:
        return Fraction(0)
    if (g, ds) == (0, (0, 0, 0)):
        return Fraction(1)
    if (g, ds) == (1, (1,)):
        return Fraction(1, 24)
    if not ds[-1]:
        return string_step(ref_tau, g, ds)
    if ds[0] == 1:
        return dilaton_step(ref_tau, g, ds)
    return dvv_step(ref_tau, g, ds, ds[0])


def kappa_volume(rec) -> Fraction:
    """V = <kappa_1^dim> = v n! dim! of a `kappavol.VolumeRecord`, 0 where v
    is: the Fraction-space reference for the V column `volume` prints, which
    the CLI works out in int pairs."""
    return rec.v * math.factorial(rec.n) * math.factorial(rec.dim) if rec.p else Fraction(0)


def series_from_json_dict(data: dict) -> Series:
    """The Series that the `series` command's JSON {"order": N, "coeffs":
    [...]} describes; ValueError if N does not match the coefficient count."""
    coeffs = [parse_rational(c) for c in data["coeffs"]]
    if data["order"] != len(coeffs) - 1:
        raise ValueError("inconsistent order and coefficient count")
    return series(coeffs)
