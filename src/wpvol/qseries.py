"""Truncated formal power series over exact rational coefficients.

The scalar type throughout is ``fractions.Fraction``: every coefficient is
an exact rational in lowest terms and nothing is ever rounded.  A
:class:`Series` carries an explicit truncation order N; coefficients of
x^(N+1) and beyond are *unknown*, not zero, so the product, the one binary
operation, truncates to the smaller operand order and never pads with zeros;
beside it a Series offers calculus, and genexp sums series coefficientwise.

Products (and with them powers and the Lagrange reversion) run over
integer numerators on one common denominator per operand; each result
coefficient is reduced once, so it is still a ``Fraction`` in lowest terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Union

# the scalar helpers and the p/q parser live in taucalc, which every command loads
from .taucalc import factorial, format_rational, parse_pair

__all__ = [
    "Series",
    "bessel_x_of_y",
    "revert_lagrange",
    "parse_rational",
    "first_mismatch",
]

_ZERO = Fraction(0)
Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    # floats are rejected everywhere: exactness is the whole point
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with taucalc.parse_pair; reject anything else (including q = 0)."""
    return Fraction(*parse_pair(text))


def _mul_lists(a: list, b: list, n: int) -> list:
    """Cauchy product of coefficient lists, truncated at order n.

    Each operand is scaled once to integer numerators over the lcm of its
    denominators, so the convolution runs in plain ints (no gcd per term)
    and each output coefficient is reduced once.
    """
    a, b = a[: n + 1], b[: n + 1]
    da = math.lcm(*(c.denominator for c in a))
    db = math.lcm(*(c.denominator for c in b))
    na = [c.numerator * (da // c.denominator) for c in a]
    nb = [c.numerator * (db // c.denominator) for c in b]
    out = [0] * (n + 1)
    for i, ai in enumerate(na):
        if ai:
            for j, bj in enumerate(nb[: n + 1 - i], i):
                if bj:
                    out[j] += ai * bj
    d = da * db
    return [Fraction(c, d) for c in out]


class Series:
    """A power series in x known exactly through the coefficient of x^order.

    Immutable; all operations return new instances.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(_as_fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = cs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient of x^{k} is beyond truncation order {self.order}")
        return self._coeffs[k]

    def truncate(self, order: int) -> "Series":
        """Forget coefficients above `order`; never extends."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order > self.order:
            raise ValueError(f"cannot extend a series of order {self.order} to order {order}")
        return Series(self._coeffs[: order + 1])

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(_mul_lists(list(self._coeffs), list(other._coeffs), n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    # -- calculus ------------------------------------------------------------

    def derivative(self) -> "Series":
        """Term-wise d/dx; the result order drops by one."""
        if self.order < 1:
            raise ValueError("derivative of an order-0 series is undefined (no x^1 data)")
        return Series(k * c for k, c in enumerate(self._coeffs) if k > 0)

    def antiderivative(self, constant: Scalar = 0) -> "Series":
        """Term-wise antiderivative with the given constant term; order grows by one."""
        out = [_as_fraction(constant)]
        out.extend(c / (k + 1) for k, c in enumerate(self._coeffs))
        return Series(out)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse to the same order; needs a nonzero constant term."""
        c0 = self._coeffs[0]
        if not c0:
            raise ValueError("reciprocal needs a nonzero constant term")
        inv0 = 1 / c0
        out = [inv0]
        for m in range(1, self.order + 1):
            s = _ZERO
            for k in range(1, m + 1):
                ak = self._coeffs[k]
                if ak:
                    s += ak * out[m - k]
            out.append(-inv0 * s)
        return Series(out)

    def __repr__(self) -> str:
        shown = ", ".join(format_rational(c) for c in self._coeffs)
        return f"Series([{shown}])"


def bessel_x_of_y(order: int) -> Series:
    """The series x(y) = -sqrt(y) J0'(2 sqrt(y)) = sum_{k>=1} (-1)^(k-1) y^k / ((k-1)! k!).

    Its compositional inverse y(x) generates the genus-0 volumes.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [_ZERO]
    coeffs.extend(
        Fraction((-1) ** (k - 1), factorial(k - 1) * factorial(k)) for k in range(1, order + 1)
    )
    return Series(coeffs)


def revert_lagrange(series: Series) -> Series:
    """Compositional inverse via Lagrange inversion: b_n = [y^(n-1)] (y/a)^n / n.

    Independent of genexp.build_y's integer ODE recurrence, so each checks
    the other on the Bessel series.
    """
    if series.order < 1:
        raise ValueError("reversion needs order >= 1")
    if series.coeffs[0]:
        raise ValueError("reversion needs a zero constant term")
    if not series.coeffs[1]:
        raise ValueError("reversion needs an invertible linear coefficient")
    n = series.order
    unit = Series(series.coeffs[1:])  # a(y)/y, constant term a_1 != 0
    u = unit.reciprocal()  # y/a(y), order n-1
    out = [_ZERO, u[0]]
    power = u
    for m in range(2, n + 1):
        power = power * u
        out.append(power[m - 1] / m)
    return Series(out)


def first_mismatch(a: Series, b: Series) -> Optional[tuple]:
    """First (power, a_coeff, b_coeff) where the series differ through
    min(a.order, b.order), or None."""
    for k in range(min(a.order, b.order) + 1):
        if a[k] != b[k]:
            return (k, a[k], b[k])
    return None
