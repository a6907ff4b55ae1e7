"""Growth of the normalized volumes v_{g,n} = V_{g,n}/(n!(3g-3+n)!), for `asympt`.

For large n the volumes behave like C^n * n^(-1 + 5(g-1)/2) with a growth
constant C independent of the genus.  C is predicted by the dominant
singularity of y(x): the radius of convergence is x_c = x(u_c), where u_c is
the smallest positive root of x'(u) = J0(2 sqrt(u)), i.e. u_c = (j_{0,1}/2)^2
with j_{0,1} the first zero of the Bessel function J0.  So C = 1/x_c
(predicted_growth_constant), and fit_growth fits the law to exact volumes.

The root and the radius are computed exactly: Newton on dyadic rationals
guesses u_c to 2^-240, and the guess is kept only if rigorous enclosures of
J0(2 sqrt(u)) (alternating partial sums and remainder, in plain integers over
a common denominator) have opposite signs at the two ends of its interval.
The volumes the fits use are the coefficients of one generating series per
genus (genexp.volume_series).  Everything downstream is carried as 50-digit
decimals and reported at 10, so reruns are bit-identical.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Tuple

from .genexp import volume_series
from .taucalc import TauCalculator

__all__ = [
    "GrowthFit",
    "PRECISION",
    "REPORT_DIGITS",
    "critical_radius",
    "predicted_growth_constant",
    "fit_growth",
]

#: digits carried internally / reported in JSON
PRECISION = 50
REPORT_DIGITS = 10

_REPORT_CTX = Context(prec=REPORT_DIGITS)

_WIDTH_BITS = 240  # the certified interval around u_c is 2^-240 wide
_NEWTON_BITS, _NEWTON_STEPS = 256, 12  # working precision, iteration cap
_TAIL_TOL = Fraction(1, 10**80)


def _fmt(x: Decimal) -> str:
    return str(_REPORT_CTX.create_decimal(x))


def _to_decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def _enclosure_numerators(p: int, q: int, start: int, tol: Fraction) -> Tuple[int, int, int]:
    """(lo, hi, den) with lo/den <= S <= hi/den, where u = p/q >= 0 and

        S = sum_{m>=start} (-1)^(m-start) u^m / (m! (m-start)!);

    start = 0 gives J0(2 sqrt(u)), start = 1 gives x(u).

    Terms strictly decrease in magnitude once m(m-start) > u; from there the
    alternating remainder is bounded by the first omitted term, and the sum
    stops at the first such term below `tol`.  Everything runs in integers
    over the common denominator q^m m! (m-start)!, so no gcd is ever taken.
    """
    tol_num, tol_den = tol.numerator, tol.denominator
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
            if tail * tol_den < tol_num * den * nxt:
                num *= nxt
                return num - tail, num + tail, den * nxt


def _newton_guess() -> int:
    """A guess for floor(u_c 2^_WIDTH_BITS): Newton on J(u) = J0(2 sqrt u) from
    u = 3/2 with dJ/du = -x(u)/u, so u <- u + u J/x, on u = a/2^bits with `bits`
    doubling up to _NEWTON_BITS and J, x read off their enclosure midpoints."""
    a, bits = 3, 1
    for _ in range(_NEWTON_STEPS):
        new_bits = min(2 * bits, _NEWTON_BITS)
        tol = Fraction(1, 1 << (new_bits + 8))
        j_lo, j_hi, j_den = _enclosure_numerators(a, 1 << bits, 0, tol)
        x_lo, x_hi, x_den = _enclosure_numerators(a, 1 << bits, 1, tol)
        x_num = (x_lo + x_hi) * j_den  # J/x = (j_lo + j_hi) x_den / x_num
        new_a = (a << (new_bits - bits)) * (x_num + (j_lo + j_hi) * x_den) // x_num
        if bits == _NEWTON_BITS and new_a == a:
            break
        a, bits = new_a, new_bits
    return a >> (_NEWTON_BITS - _WIDTH_BITS)


@lru_cache(maxsize=1)
def _critical_interval() -> Tuple[Fraction, Fraction]:
    """[a, a+1]/2^_WIDTH_BITS around u_c, the first positive root of J0(2 sqrt(u)).

    The Newton guess a stands only if 1 <= a/2^w < 2 and the enclosures certify
    J(a/2^w) > 0 > J((a+1)/2^w); J decreases on [1, 2], so that interval is
    unique, the one a bisection of [1, 2] ends on."""
    a, scale = _newton_guess(), 1 << _WIDTH_BITS
    if not (scale <= a < 2 * scale
            and _enclosure_numerators(a, scale, 0, _TAIL_TOL)[0] > 0
            and _enclosure_numerators(a + 1, scale, 0, _TAIL_TOL)[1] < 0):
        raise RuntimeError("the Newton guess for the Bessel zero failed its certificate")
    return Fraction(a, scale), Fraction(a + 1, scale)


@lru_cache(maxsize=1)
def critical_radius() -> Decimal:
    """x_c = x(u_c), the radius of convergence of y(x): x at the midpoint of the
    u_c interval, whose enclosure is within 2^-240 + _TAIL_TOL of x_c since
    |dx/du| = |J0(2 sqrt u)| <= 1."""
    u_lo, u_hi = _critical_interval()
    mid = (u_lo + u_hi) / 2
    lo, hi, den = _enclosure_numerators(mid.numerator, mid.denominator, 1, _TAIL_TOL)
    with localcontext(Context(prec=PRECISION)):
        return +_to_decimal(Fraction(lo + hi, 2 * den))


def predicted_growth_constant() -> Decimal:
    """C = 1/x_c, correct to well over 10 digits."""
    with localcontext(Context(prec=PRECISION)):
        return 1 / critical_radius()


class GrowthFit(NamedTuple):
    """Least-squares fit of log v_{g,n} = n log C + e log n + const."""

    g: int
    n_min: int
    n_max: int
    c_est: Decimal
    exponent_est: Decimal
    residual: Decimal

    def to_json_dict(self, predicted: Decimal) -> dict:
        with localcontext(Context(prec=PRECISION)):
            rel_dev = abs(self.c_est - predicted) / predicted
        return {
            "g": self.g,
            "C_est": _fmt(self.c_est),
            "exponent_est": _fmt(self.exponent_est),
            "predicted_C": _fmt(predicted),
            "rel_dev": _fmt(rel_dev),
            "n_range": [self.n_min, self.n_max],
        }


def _solve3(mat, vec):
    """3x3 linear solve over Decimal, partial pivoting."""
    m = [list(row) + [v] for row, v in zip(mat, vec)]
    for col in range(3):
        piv = max(range(col, 3), key=lambda r: abs(m[r][col]))
        if not m[piv][col]:
            raise ArithmeticError("singular normal equations")
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, 3):
            factor = m[r][col] / m[col][col]
            for c in range(col, 4):
                m[r][c] -= factor * m[col][c]
    out = [Decimal(0)] * 3
    for r in (2, 1, 0):
        s = m[r][3]
        for c in range(r + 1, 3):
            s -= m[r][c] * out[c]
        out[r] = s / m[r][r]
    return out


def fit_growth(g: int, n_min: int, n_max: int, calc: TauCalculator) -> GrowthFit:
    """Fit the growth law to the exact volumes over n in [n_min, n_max].

    Needs at least 6 data points with v_{g,n} > 0; the exact rationals are
    converted to 50-digit decimals only here, at the very last step.
    """
    ns = list(range(n_min, n_max + 1))
    if len(ns) < 6:
        raise ValueError("growth fit needs at least 6 data points")
    if n_min < 0:
        raise ValueError("--n-min must be >= 0")
    values = volume_series(g, n_max, calc)[n_min:]
    if any(v <= 0 for v in values):
        raise ValueError("growth fit needs positive normalized volumes")
    with localcontext(Context(prec=PRECISION)):
        rows = []
        targets = []
        for n, v in zip(ns, values):
            dn = Decimal(n)
            rows.append((dn, dn.ln(), Decimal(1)))
            targets.append(_to_decimal(v).ln())
        ata = [[sum(r[a] * r[b] for r in rows) for b in range(3)] for a in range(3)]
        aty = [sum(r[a] * t for r, t in zip(rows, targets)) for a in range(3)]
        beta = _solve3(ata, aty)
        sq = Decimal(0)
        for r, t in zip(rows, targets):
            err = t - sum(r[c] * beta[c] for c in range(3))
            sq += err * err
        residual = (sq / len(rows)).sqrt()
        c_est = beta[0].exp()
    return GrowthFit(g, n_min, n_max, c_est, beta[1], residual)
