"""Growth of the normalized volumes v_{g,n} = V_{g,n}/(n!(3g-3+n)!), for `asympt`.

For large n the volumes behave like C^n * n^(-1 + 5(g-1)/2) with a growth
constant C independent of the genus.  C is predicted by the dominant
singularity of y(x): the radius of convergence is x_c = x(u_c), where u_c is
the smallest positive root of x'(u) = J0(2 sqrt(u)), i.e. u_c = (j_{0,1}/2)^2
with j_{0,1} the first zero of the Bessel function J0.  So C = 1/x_c
(predicted_growth_constant), and fit_growth fits the law to exact volumes.

The root and the radius are computed exactly, in plain integers (no
Fraction): Newton on dyadic rationals guesses u_c to 2^-240, and the guess is
kept only if rigorous enclosures of J0(2 sqrt(u)) (alternating partial sums
and remainder, over a common denominator) have opposite signs at the two
ends of its interval; the radius is one decimal division of an enclosure.
The volumes the fits use are the coefficients of one generating series per
genus (genexp.volume_series, which at genus 0 integrates y' three times and
builds no 1/y').  Everything downstream is carried as 50-digit decimals,
so reruns are bit-identical; `cli` rounds them to 10 digits to print them.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from functools import lru_cache
from typing import Tuple

from .genexp import volume_series
from .taucalc import TauCalculator

__all__ = [
    "PRECISION",
    "critical_radius",
    "predicted_growth_constant",
    "fit_growth",
]

#: digits carried by every decimal
PRECISION = 50

_WIDTH_BITS = 240  # the certified interval around u_c is 2^-240 wide
_NEWTON_BITS, _NEWTON_STEPS = 256, 12  # working precision, iteration cap
_TAIL_DEN = 10**80  # the certificate's enclosures are within 1/_TAIL_DEN


def _enclosure_numerators(p: int, q: int, start: int, tol_den: int) -> Tuple[int, int, int]:
    """(lo, hi, den) with lo/den <= S <= hi/den, where u = p/q >= 0 and

        S = sum_{m>=start} (-1)^(m-start) u^m / (m! (m-start)!);

    start = 0 gives J0(2 sqrt(u)), start = 1 gives x(u).

    Terms strictly decrease in magnitude once m(m-start) > u; from there the
    alternating remainder is bounded by the first omitted term, and the sum
    stops at the first such term below 1/tol_den.  Everything runs in integers
    over the common denominator q^m m! (m-start)!, so no gcd is ever taken.
    """
    num = power = p**start  # power = |term numerator| = p^m
    den = q**start
    sign = 1
    m = start
    while True:
        m += 1
        step = q * m * (m - start)
        num *= step
        den *= step
        power *= p
        sign = -sign
        num += sign * power
        if step > p:  # m(m-start) > u
            nxt = q * (m + 1) * (m + 1 - start)
            tail = power * p  # bound = tail / (den * nxt)
            if tail * tol_den < den * nxt:
                num *= nxt
                return num - tail, num + tail, den * nxt


def _newton_guess() -> int:
    """A guess for floor(u_c 2^_WIDTH_BITS): Newton on J(u) = J0(2 sqrt u) from
    u = 3/2 with dJ/du = -x(u)/u, so u <- u + u J/x, on u = a/2^bits with `bits`
    doubling up to _NEWTON_BITS and J, x read off their enclosure midpoints."""
    a, bits = 3, 1
    for _ in range(_NEWTON_STEPS):
        new_bits = min(2 * bits, _NEWTON_BITS)
        tol_den = 1 << (new_bits + 8)
        j_lo, j_hi, j_den = _enclosure_numerators(a, 1 << bits, 0, tol_den)
        x_lo, x_hi, x_den = _enclosure_numerators(a, 1 << bits, 1, tol_den)
        x_num = (x_lo + x_hi) * j_den  # J/x = (j_lo + j_hi) x_den / x_num
        new_a = (a << (new_bits - bits)) * (x_num + (j_lo + j_hi) * x_den) // x_num
        if bits == _NEWTON_BITS and new_a == a:
            break
        a, bits = new_a, new_bits
    return a >> (_NEWTON_BITS - _WIDTH_BITS)


@lru_cache(maxsize=1)
def _critical_interval() -> int:
    """The a of [a, a+1]/2^_WIDTH_BITS around u_c, the first positive root of
    J0(2 sqrt(u)).

    The Newton guess a stands only if 1 <= a/2^w < 2 and the enclosures certify
    J(a/2^w) > 0 > J((a+1)/2^w); J decreases on [1, 2], so that interval is
    unique, the one a bisection of [1, 2] ends on."""
    a, scale = _newton_guess(), 1 << _WIDTH_BITS
    if not (scale <= a < 2 * scale
            and _enclosure_numerators(a, scale, 0, _TAIL_DEN)[0] > 0
            and _enclosure_numerators(a + 1, scale, 0, _TAIL_DEN)[1] < 0):
        raise RuntimeError("the Newton guess for the Bessel zero failed its certificate")
    return a


@lru_cache(maxsize=1)
def critical_radius() -> Decimal:
    """x_c = x(u_c), the radius of convergence of y(x): x at the midpoint
    (2a+1)/2^241 of the u_c interval, whose enclosure is within
    2^-240 + 1/_TAIL_DEN of x_c since |dx/du| = |J0(2 sqrt u)| <= 1."""
    a = _critical_interval()
    lo, hi, den = _enclosure_numerators(2 * a + 1, 1 << (_WIDTH_BITS + 1), 1, _TAIL_DEN)
    with localcontext(Context(prec=PRECISION)):
        return Decimal(lo + hi) / Decimal(2 * den)


def predicted_growth_constant() -> Decimal:
    """C = 1/x_c, correct to well over 10 digits."""
    with localcontext(Context(prec=PRECISION)):
        return 1 / critical_radius()


def _det3(m) -> Decimal:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _solve3(mat, vec):
    """3x3 linear solve over Decimal by Cramer's rule."""
    det = _det3(mat)
    if not det:
        raise ArithmeticError("singular normal equations")
    return [_det3([[*row[:k], v, *row[k + 1:]] for row, v in zip(mat, vec)]) / det
            for k in range(3)]


def fit_growth(g: int, n_min: int, n_max: int, calc: TauCalculator) -> Tuple[Decimal, Decimal]:
    """(C, e), the least-squares fit of log v_{g,n} = n log C + e log n + const
    to the exact volumes over n in [n_min, n_max].

    Needs at least 6 data points with v_{g,n} > 0; the exact rationals are
    converted to 50-digit decimals only here, at the very last step.
    """
    ns = list(range(n_min, n_max + 1))
    if len(ns) < 6:
        raise ValueError("growth fit needs at least 6 data points")
    if n_min < 1:  # the basis holds ln n
        raise ValueError("n_min must be >= 1")
    values = volume_series(g, n_max, calc)[n_min:]
    if any(v <= 0 for v in values):
        raise ValueError("growth fit needs positive normalized volumes")
    with localcontext(Context(prec=PRECISION)):
        rows = []
        targets = []
        for n, v in zip(ns, values):
            dn = Decimal(n)
            rows.append((dn, dn.ln(), Decimal(1)))
            targets.append((Decimal(v.numerator) / Decimal(v.denominator)).ln())
        ata = [[sum(r[a] * r[b] for r in rows) for b in range(3)] for a in range(3)]
        aty = [sum(r[a] * t for r, t in zip(rows, targets)) for a in range(3)]
        beta = _solve3(ata, aty)
        return beta[0].exp(), beta[1]
