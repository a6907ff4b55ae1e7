"""Reference implementations that only the tests call.

Each one is an independent oracle for a producer in `wpvol` (or a helper
the other oracles need); none of them runs in a `wpvol` command.
"""

import math
from fractions import Fraction
from functools import lru_cache

from wpvol.qseries import Series, _compose_lists, _mul_lists, parse_rational


def newton_revert(series: Series) -> Series:
    """Compositional inverse by Newton iteration.

    Given a(x) with a(0) = 0 and a'(0) != 0, returns b with a(b(x)) = x to
    the order of a.  Each step doubles the number of correct coefficients:
    if b is exact to order p and e = a(b) - x, then b - e*b' is exact to
    order 2p.  The reference for `genexp.build_y`, next to
    `qseries.revert_lagrange`.
    """
    a = list(series.coeffs)
    if series.order < 1:
        raise ValueError("reversion needs order >= 1")
    if a[0]:
        raise ValueError("reversion needs a zero constant term")
    if not a[1]:
        raise ValueError("reversion needs an invertible linear coefficient")
    n = series.order
    b = [Fraction(0), 1 / a[1]]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        cur = b + [Fraction(0)] * (prec + 1 - len(b))
        err = _compose_lists(a[: prec + 1], cur, prec)
        err[1] -= 1
        dcur = [(k + 1) * cur[k + 1] for k in range(prec)]
        corr = _mul_lists(err, dcur, prec)
        b = [cur[k] - corr[k] for k in range(prec + 1)]
    return Series(b)


@lru_cache(maxsize=None)
def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)... with the conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial of {n} is undefined here")
    return math.prod(range(n, 0, -2))


def series_from_json_dict(data: dict) -> Series:
    """The inverse of `Series.to_json_dict`."""
    coeffs = [parse_rational(c) for c in data["coeffs"]]
    if data["order"] != len(coeffs) - 1:
        raise ValueError("inconsistent order and coefficient count")
    return Series(coeffs)
