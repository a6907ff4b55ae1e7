"""Truncated formal power series over exact rational coefficients.

Each coefficient is a reduced int pair (p, q), q > 0, the shape in which
taucalc's correlators and rational_sum return exact values: every coefficient
is an exact rational in lowest terms, so two series are equal exactly when
their pairs are, and nothing is ever rounded.  A :class:`Series` carries an
explicit truncation order N; coefficients of x^(N+1) and beyond are
*unknown*, not zero, so the product, the one binary operation, truncates to
the smaller operand order and never pads with zeros; beside it a Series
offers calculus, and genexp sums series coefficientwise.

Products (and with them powers and the Lagrange reversion) run over
integer numerators on one common denominator per operand; each result
coefficient is reduced once.  A Series is built one way, `Series(pairs)`,
from reduced pairs; only `coeffs` and `parse_rational`, which return
Fractions, load `fractions`.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

# the scalar helpers and the p/q parser live in taucalc, which every command loads
from .taucalc import factorial, format_rational, parse_pair, rational_sum, reduced

__all__ = [
    "Series",
    "bessel_x_of_y",
    "revert_lagrange",
    "parse_rational",
]


def parse_rational(text: str) -> "Fraction":
    """Parse "p" or "p/q" with taucalc.parse_pair; reject anything else (including q = 0)."""
    from fractions import Fraction  # only a caller that asks for one loads it
    return Fraction(*parse_pair(text))


class Series:
    """A power series in x known exactly through the coefficient of x^order,
    held as the reduced pairs (p, q) of x^0..x^order.

    Immutable; all operations return new instances.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Tuple[int, int]]):
        """The series whose coefficients are the given reduced pairs, q > 0."""
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("a series needs at least its constant coefficient")
        self.pairs = pairs

    @property
    def order(self) -> int:
        return len(self.pairs) - 1

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, built on read."""
        from fractions import Fraction  # only a caller that asks for them loads it
        return tuple(Fraction(p, q) for p, q in self.pairs)

    def truncate(self, order: int) -> "Series":
        """Forget coefficients above `order`; never extends."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order > self.order:
            raise ValueError(f"cannot extend a series of order {self.order} to order {order}")
        return Series(self.pairs[: order + 1])

    def __mul__(self, other) -> "Series":
        """The Cauchy product, truncated at the smaller order.

        Each operand is scaled once to integer numerators over the lcm of its
        denominators, so the convolution runs in plain ints (no gcd per term)
        and each output coefficient is reduced once.
        """
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.pairs[: n + 1], other.pairs[: n + 1]
        da, db = math.lcm(*(q for _, q in a)), math.lcm(*(q for _, q in b))
        na, nb = [p * (da // q) for p, q in a], [p * (db // q) for p, q in b]
        out = [0] * (n + 1)
        for i, ai in enumerate(na):
            if ai:
                for j, bj in enumerate(nb[: n + 1 - i], i):
                    if bj:
                        out[j] += ai * bj
        d = da * db
        return Series(reduced(c, d) for c in out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.pairs == other.pairs

    # -- calculus ------------------------------------------------------------

    def derivative(self) -> "Series":
        """Term-wise d/dx; the result order drops by one."""
        if self.order < 1:
            raise ValueError("derivative of an order-0 series is undefined (no x^1 data)")
        return Series(reduced(k * p, q) for k, (p, q) in enumerate(self.pairs) if k > 0)

    def antiderivative(self, constant: int = 0) -> "Series":
        """Term-wise antiderivative with the given int constant term; order grows by one."""
        out = [(constant, 1)]
        out.extend(reduced(p, q * (k + 1)) for k, (p, q) in enumerate(self.pairs))
        return Series(out)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse to the same order; needs a nonzero constant term.
        Each coefficient is -1/a_0 times one rational_sum over the ones before."""
        a = self.pairs
        p0, q0 = a[0]
        if not p0:
            raise ValueError("reciprocal needs a nonzero constant term")
        ip, iq = (q0, p0) if p0 > 0 else (-q0, -p0)  # 1/a_0, reduced as a_0 is
        out = [(ip, iq)]
        for m in range(1, self.order + 1):
            s, t = rational_sum([(pk * pr, qk * qr) for (pk, qk), (pr, qr)
                                 in zip(a[1: m + 1], out[::-1]) if pk])
            out.append(reduced(-ip * s, iq * t))
        return Series(out)

    def __repr__(self) -> str:
        shown = ", ".join(format_rational(*pair) for pair in self.pairs)
        return f"Series([{shown}])"


def bessel_x_of_y(order: int) -> Series:
    """The series x(y) = -sqrt(y) J0'(2 sqrt(y)) = sum_{k>=1} (-1)^(k-1) y^k / ((k-1)! k!).

    Its compositional inverse y(x) generates the genus-0 volumes.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return Series([(0, 1)] + [((-1) ** (k - 1), factorial(k - 1) * factorial(k))
                              for k in range(1, order + 1)])


def revert_lagrange(series: Series) -> Series:
    """Compositional inverse via Lagrange inversion: b_n = [y^(n-1)] (y/a)^n / n.

    Independent of genexp.build_y's integer ODE recurrence, so each checks
    the other on the Bessel series.
    """
    if series.order < 1:
        raise ValueError("reversion needs order >= 1")
    if series.pairs[0][0]:
        raise ValueError("reversion needs a zero constant term")
    if not series.pairs[1][0]:
        raise ValueError("reversion needs an invertible linear coefficient")
    n = series.order
    unit = Series(series.pairs[1:])  # a(y)/y, constant term a_1 != 0
    u = unit.reciprocal()  # y/a(y), order n-1
    out = [(0, 1), u.pairs[0]]
    power = u
    for m in range(2, n + 1):
        power = power * u
        p, q = power.pairs[m - 1]
        out.append(reduced(p, q * m))
    return Series(out)
