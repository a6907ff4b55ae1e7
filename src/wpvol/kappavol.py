"""Weil-Petersson volumes V_{g,n} = <kappa_1^(3g-3+n)> from tau-correlators.

The kappa-to-tau conversion expresses V_{g,n}/(3g-3+n)! as a signed sum over
multi-indices l = (l_2, l_3, ...) of weight |l| = sum (i-1) l_i equal to the
complex dimension d = 3g-3+n:

    V_{g,n}/d! = sum_{|l|=d} <tau_0^n tau_2^{l_2} tau_3^{l_3} ...>_g
                 * (-1)^(g-1+n+||l||) / prod_i l_i! ((i-1)!)^{l_i}

with ||l|| = sum l_i.  The multi-indices of weight d are the partitions of d
(a part p is one l_{p+1}), enumerated in lexicographic order.  brackets()
is the one loop over them: it yields each nonzero bracket over prod l_i! as
an int pair, which this sum and genexp's closed form of phi_g both weigh.
volume() adds its terms, n! included, as integer numerators over their lcm
and reduces once; it serves `volume --n` and the kappa-to-tau side of the
`verify` checks.  The geometric volume of the
moduli space carries an extra pi^(2d)/(n! d!) on top of V_{g,n}; the
normalized value v_{g,n} = V_{g,n}/(n! d!) is what the generating series
track.  A VolumeRecord holds g, n and v = p/q as ints and derives d; its v
builds a Fraction only when read.  The CLI renders the ints.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, NamedTuple, Tuple

from .taucalc import TauCalculator, factorial, rational_sum

__all__ = [
    "VolumeRecord",
    "brackets",
    "enumerate_multiindices",
    "volume",
]


def enumerate_multiindices(weight: int) -> Iterator[Dict[int, int]]:
    """Every multi-index with |l| = weight, once each, as an {i: l_i} dict with
    ascending keys i >= 2 and no zero entries.

    One per partition of `weight` (a part p contributes one l_{p+1}); yielded
    in lexicographic order of the ascending part tuples, the order in which
    `verify` prints each l.  No multi-index has a negative weight.
    """
    if weight <= 0:
        if not weight:
            yield {}
        return
    a = [0] * (weight + 1)  # a[:k + 1] is the ascending partition, grown in place
    k = 1
    a[1] = weight
    while k:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        counts: dict = {}
        for p in a[: k + 1]:
            counts[p + 1] = counts.get(p + 1, 0) + 1
        yield counts


class VolumeRecord(NamedTuple):
    """One volume, from its normalized v = V/(n! dim!) = p/q in lowest terms,
    q > 0, with V = <kappa_1^dim>; the dimension is derived here (it may be
    < 0, where p is 0)."""

    g: int
    n: int
    p: int
    q: int

    @property
    def dim(self) -> int:
        return 3 * self.g - 3 + self.n

    @property
    def v(self) -> "Fraction":
        from fractions import Fraction  # only a caller that asks for one loads it
        return Fraction(self.p, self.q)


def brackets(g: int, n: int, calc: TauCalculator) -> Iterator[Tuple[Dict[int, int], int, int]]:
    """(l, p, q) for each multi-index l of weight 3g-3+n whose bracket is
    nonzero, with p/q = <tau_0^n prod tau_i^{l_i}>_g / prod l_i!; the one loop
    over brackets that volume() and the closed form of phi_g both read."""
    for l in enumerate_multiindices(3 * g - 3 + n):
        p, q = calc.tau_batch(g, l.items(), zeros=n)
        if p:
            yield l, p, q * math.prod(map(factorial, l.values()))


def volume(g: int, n: int, calc: TauCalculator) -> VolumeRecord:
    """V_{g,n} via the kappa-to-tau conversion; 0 from the empty sum for a
    negative dimension, and for the unstable (1, 0) from the engine's <>_1 = 0,
    which it does not store."""
    if g < 0 or n < 0:
        raise ValueError("genus and point count must be >= 0")
    return VolumeRecord(g, n, *rational_sum([
        ((-1) ** (g - 1 + n + sum(l.values())) * p,
         math.prod((factorial(i - 1) ** m for i, m in l.items()), start=q * factorial(n)))
        for l, p, q in brackets(g, n, calc)]))
