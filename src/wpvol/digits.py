"""`volume --digits`: v * pi^power rounded half-up from integer enclosures of pi.

Only a `--digits` job imports this module.  The rounding finds its decimal
exponent by integer comparisons and converts only the rounded digits to
text, so Python's limit on int-to-str conversion (4,300 digits by default)
binds only when `digits` itself exceeds it; `cli.main` lifts it for a run.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["wp_volume"]


def _arctan_inv(x: int, bits: int) -> Tuple[int, int]:
    """(s, n), s within n units of 2^bits arctan(1/x): each term's floor division is off by
    under a unit, and so is the alternating tail once a term floors to 0."""
    term, s, k = (1 << bits) // x, 0, 0
    while term:
        s += (-term if k % 2 else term) // (2 * k + 1)
        term //= x * x
        k += 1
    return s, k + 1


def _round_half_up(num: int, den: int, digits: int) -> Tuple[int, int]:
    """(r, e): num/den > 0 rounded half-up to r * 10^(e+1-digits), r of `digits` digits.
    The decimal exponent e = floor(log10(num/den)) starts from the bit lengths, within
    one of it since 2^(b-1) <= num/den < 2^(b+1), and integer comparisons settle it."""
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000  # log10(2) < 0.30103
    while num * 10 ** max(-e, 0) < den * 10 ** max(e, 0):
        e -= 1
    while num * 10 ** max(-e - 1, 0) >= den * 10 ** max(e + 1, 0):
        e += 1
    shift = digits - 1 - e
    num, den = num * 10 ** max(shift, 0), den * 10 ** max(-shift, 0)
    r = (2 * num + den) // (2 * den)
    return (r // 10, e + 1) if r == 10 ** digits else (r, e)


def wp_volume(p: int, q: int, power: int, digits: int) -> str:
    """v * pi^power for the exact v = p/q >= 0, rounded half-up to `digits` significant
    digits.  Certificate, in ints: Machin's formula encloses 2^bits pi, pi^power is raised
    in fixed point at `bits` bits rounding the low end down and the high end up, and the
    digits print once both ends round alike; else `bits` doubles (Ziv's loop), which ends:
    power 0 is exact, and the rest irrational.  Decimal exponents e strictly between
    min(-(digits // 3), -5) and `digits` print fixed, the others as `1.5e-5` or `4.9e+38`."""
    if not p:
        return "0"
    bits, ends = 7 * digits // 4 + 32, (None, ())  # 3.5 bits a digit once doubled
    while ends[0] != ends[1]:
        bits *= 2
        (a, da), (b, db) = _arctan_inv(5, bits), _arctan_inv(239, bits)
        pi, err = 16 * a - 4 * b, 16 * da + 4 * db  # pi = 16 atan(1/5) - 4 atan(1/239)
        lo = hi = 1 << bits
        for _ in range(power):
            lo = lo * (pi - err) >> bits
            hi = -(-hi * (pi + err) >> bits)
        ends = [_round_half_up(p * end, q << bits, digits) for end in (lo, hi)]
    r, e = ends[0]
    fixed = min(-(digits // 3), -5) < e < digits
    text = "0" * -e + str(r) if fixed and e < 0 else str(r)
    split = max(e, 0) + 1 if fixed else 1
    text = text[:split] + "." + (text[split:].rstrip("0") or "0")
    return text if fixed else f"{text}e{e:+d}"
