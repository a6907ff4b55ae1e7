"""Weil-Petersson volumes V_{g,n} = <kappa_1^(3g-3+n)> from tau-correlators.

The kappa-to-tau conversion expresses V_{g,n}/(3g-3+n)! as a signed sum over
multi-indices l = (l_2, l_3, ...) of weight |l| = sum (i-1) l_i equal to the
complex dimension d = 3g-3+n:

    V_{g,n}/d! = sum_{|l|=d} <tau_0^n tau_2^{l_2} tau_3^{l_3} ...>_g
                 * (-1)^(g-1+n+||l||) / prod_i l_i! ((i-1)!)^{l_i}

with ||l|| = sum l_i.  The multi-indices of weight d are the partitions of d
(a part p is one l_{p+1}), enumerated in lexicographic order; volume() adds
its terms as integer numerators over their lcm.  It serves `volume --n` and
the kappa-to-tau side of the `verify` checks.  The geometric volume of the
moduli space carries an extra pi^(2d)/(n! d!) on top of V_{g,n}; the
normalized value v_{g,n} = V_{g,n}/(n! d!) is what the generating series
track.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, NamedTuple, Tuple

from .taucalc import TauCalculator, factorial, format_rational, rational_sum

__all__ = [
    "VolumeRecord",
    "enumerate_multiindices",
    "volume",
]


def _ascending_partitions(n: int) -> Iterator[Tuple[int, ...]]:
    """All partitions of n as ascending part tuples, in lexicographic order."""
    if n == 0:
        yield ()
        return
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        yield tuple(a[: k + 1])


def enumerate_multiindices(weight: int) -> Iterator[Dict[int, int]]:
    """Every multi-index with |l| = weight, once each, as an {i: l_i} dict with
    ascending keys i >= 2 and no zero entries.

    One per partition of `weight` (a part p contributes one l_{p+1}); yielded
    in lexicographic order of the ascending part tuples, the order in which
    `verify` prints each l.
    """
    if weight < 0:
        raise ValueError("weight must be >= 0")
    for parts in _ascending_partitions(weight):
        counts: dict = {}
        for p in parts:
            counts[p + 1] = counts.get(p + 1, 0) + 1
        yield counts


class VolumeRecord(NamedTuple):
    """One volume: exact V = <kappa_1^dim>, normalized v = V/(n! dim!)."""

    g: int
    n: int
    dim: int
    V: Fraction
    v: Fraction

    @property
    def pi_power(self) -> int:
        return 2 * self.dim

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "dim": self.dim,
            "V": format_rational(self.V),
            "v": format_rational(self.v),
            "pi_power": self.pi_power,
        }

    def csv_row(self) -> str:
        return f"{self.g},{self.n},{self.dim},{format_rational(self.V)},{format_rational(self.v)}"

    def wp_volume(self, digits: int) -> str:
        """The geometric volume v * pi^(2 dim) to `digits` significant
        digits; the only place floating evaluation happens."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if not self.v:
            return "0"
        import mpmath

        with mpmath.workdps(digits + 10):
            value = (
                mpmath.mpf(self.v.numerator)
                / mpmath.mpf(self.v.denominator)
                * mpmath.pi ** self.pi_power
            )
            return mpmath.nstr(value, digits)


def volume(g: int, n: int, calc: TauCalculator) -> VolumeRecord:
    """V_{g,n} via the kappa-to-tau conversion; 0 for a negative dimension, and
    for the unstable (1, 0) from the engine's <>_1 = 0, which it does not store."""
    if g < 0 or n < 0:
        raise ValueError("genus and point count must be >= 0")
    dim = 3 * g - 3 + n
    if dim < 0:
        return VolumeRecord(g, n, dim, Fraction(0), Fraction(0))
    terms = []  # (signed numerator, denominator) of each nonzero term
    for l in enumerate_multiindices(dim):
        bracket = calc.tau_batch(g, l.items(), zeros=n)
        if not bracket:
            continue
        denom = bracket.denominator
        for i, mult in l.items():
            denom *= factorial(mult) * factorial(i - 1) ** mult
        sign = -1 if (g - 1 + n + sum(l.values())) % 2 else 1
        terms.append((sign * bracket.numerator, denom))
    total = rational_sum(terms)
    v = total / factorial(n)
    return VolumeRecord(g, n, dim, total * factorial(dim), v)

