"""Exact psi-class intersection numbers <tau_{d1} ... tau_{dn}>_g.

Everything reduces to the normalization <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24
through the Dijkgraaf-Verlinde-Verlinde (KdV / Virasoro) recursion, one
rule per key, chosen by its smallest index, and one implementation per rule:
  - a tau_0: the string equation removes it, fused with the dilaton equation
    on the tau_1 it frees (the paper's index-shift identity), so no key with
    a new tau_1 is stored;
  - otherwise: DVV on that smallest index k.  At k = 1 it has no
    genus-lowering or split terms and its merge terms all read the one child
    without the tau_1: it is the dilaton equation.  Only a key with every
    index >= 2 splits.
Marked points are distinguishable, so the genus-splitting sums run over
ordered pairs of labeled submultisets.  Genus 0 needs no recursion:
<tau_d>_0 = (n-3)!/prod d_i! (a multinomial coefficient) whenever the
dimension rule holds.

A key is a plain tuple (g, ds), ds sorted in descending order; canonical_key
builds it from outside input, and each reduction builds its child keys in
that shape directly.  tau_batch answers (0, 1) for a key that is unstable
(2g-2+n <= 0) or off the dimension rule sum(ds) = 3g-3+n, the engine's only
test of either: every reduction keeps both.  In the genus-splitting sum the
rule fixes the genus of <tau_a I>_{g1} to g1 = (sum(I) + a - |I| + 2) / 3,
so a split contributes only when that is an integer in [0, g].

The memo holds plain ints, the normalized correlators (Liu-Xu)

    W(g, ds) = 2^(4g) * prod_i (2d_i+1)!! * <tau_ds>_g.

In W every rule has integer coefficients: string (2d_j+1), fused
string-dilaton 5 * 3(2g-2+m) for the m indices left, DVV merge (2d_j+1) (at
k = 1 they sum over the other indices to 3(2g-3+n), n = len(ds), the
dilaton factor), the DVV genus-reducing term times 2^4, the DVV split
products unscaled (2^(4 g1) 2^(4 g2) = 2^(4g)), and the bases
W(0,(0,0,0)) = 1 and W(1,(1,)) = 2; one exact halving of the DVV split sum
remains.  The double factorials clear every odd denominator.  The
2-adic scale 2^(4g) is a pinned invariant: over the keys of volume(g, n),
g <= 6, the largest 2-adic exponent of a denominator of <tau_ds>_g is
3g + v2(g!) (3, 7, 10, 15, 18, 22), below 4g and attained by
<tau_{3g-2}>_g = 1/(24^g g!).  A wrong cache value can still break it, so
the halving raises InconsistentMemoError on a remainder instead of
rounding.  A correlator leaves tau_batch, the engine's one entry, as the
reduced pair (p, q) of W / (2^(4g) prod (2d_i+1)!!), q > 0; no Fraction.

Evaluation keeps an explicit worklist, not the interpreter's call stack:
each reduction is a generator that looks its children up in the memo and
yields only the misses, and one driver loop keeps the stack of generators,
so a key is not limited by the recursion limit.

The memo can be persisted to a plain-text cache file of core entries only:
g >= 1 with every index >= 2, the keys whose reduction needs a DVV genus
split.  Every other key is one cheap step from the core and is rederived on
demand.  A line is "g|d1,...,dn|p/q" holding <tau_ds>_g itself, indices
sorted descending, value reduced, lines sorted for diff-stability.  Loading
accepts exactly such lines: it rejects a line that is not UTF-8 text, a key
that is not core or breaks the dimension rule, a key given before, a value
<= 0, a value that times 2^(4g) prod (2d_i+1)!! is not an integer, and any
other spelling of a valid line (a blank line, unsorted indices, a sign, a
leading zero, whitespace, an unreduced value); saving refuses a core entry
off the dimension rule or <= 0, then writes a temporary file beside the
target and renames it into place.  Neither builds a Fraction.  The engine,
saver and loader share one (2d+1)!! table: each is computed once a process.

The exact scalar helpers (factorial, format_rational, parse_pair,
rational_sum, reduced) live here too and work on int pairs, so a command
that never touches a series loads neither qseries nor fractions.
"""

from __future__ import annotations

import math
import os
import re
from bisect import bisect_left
from contextlib import suppress
from math import comb, factorial, gcd, prod
from operator import neg
from typing import Iterable, Mapping, Optional, Sequence, Tuple

__all__ = [
    "MemoStore",
    "TauCalculator",
    "CacheFormatError",
    "InconsistentMemoError",
    "canonical_key",
    "parse_pair",
    "save_cache",
    "load_cache",
    "factorial",
    "format_rational",
    "rational_sum",
    "reduced",
]

Key = Tuple[int, Tuple[int, ...]]

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def reduced(p: int, q: int) -> Tuple[int, int]:
    """The pair (p, q), q > 0, in lowest terms; (0, 1) for p = 0."""
    d = gcd(p, q)
    return p // d, q // d


def rational_sum(terms: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """The sum of the fractions p/q of (p, q) pairs, q > 0, as a reduced pair:
    added as ints over the lcm of the q's, one gcd for the sum, none per term."""
    common = math.lcm(*(q for _, q in terms))
    return reduced(sum(p * (common // q) for p, q in terms), common)


def parse_pair(text: str) -> Tuple[int, int]:
    """The ints (p, q), unreduced, q > 0, of "p" or "p/q"; else ValueError."""
    text = text.strip()
    match = _RATIONAL_RE.match(text)
    if not match:
        raise ValueError(f"malformed rational {text!r}")
    p, q = int(match[1]), int(match[2] or 1)  # int() raises on too many digits
    if not q:
        raise ValueError(f"malformed rational {text!r} (zero denominator)")
    return p, q


def format_rational(p, q: int = 1) -> str:
    """Render the reduced pair p/q, omitting the denominator when it is 1; a
    Fraction (or an int) given alone renders the same way, by its own str()."""
    return f"{p}/{q}" if q != 1 else str(p)


def canonical_key(genus: int, indices: Iterable[int]) -> Key:
    """The memo key (g, ds) of outside input: ints, genus >= 0, indices >= 0,
    ds sorted in descending order."""
    genus = int(genus)
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    ds = tuple(sorted(map(int, indices), reverse=True))
    if ds and ds[-1] < 0:
        raise ValueError("tau indices must be >= 0")
    return genus, ds


def _render(genus: int, ds: Tuple[int, ...]) -> str:
    """The "g|d1,...,dn" form of a key."""
    return f"{genus}|{','.join(map(str, ds))}"


def _is_core(genus: int, ds: Tuple[int, ...]) -> bool:
    """Whether (g, ds), ds descending, is a core key: g >= 1, every index >= 2."""
    return genus >= 1 and bool(ds) and ds[-1] >= 2


class _OddDoubleFactorials(dict):
    """d -> (2d+1)!! = (2d+2)! / (2^(d+1) (d+1)!), each computed on first use
    without the smaller ones, so one large index costs one large number."""

    def __missing__(self, d: int) -> int:
        value = self[d] = factorial(2 * d + 2) // (factorial(d + 1) << (d + 1))
        return value


_ODD = _OddDoubleFactorials()  # a pure memo, shared by every calculator, save and load


def _scale(genus: int, ds: Sequence[int]) -> int:
    """2^(4g) prod (2d_i+1)!!, the factor from <tau_ds>_g to W(g, ds)."""
    return prod(map(_ODD.__getitem__, ds)) << (4 * genus)


class CacheFormatError(ValueError):
    """Malformed correlator cache file; the message names the offending line."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"cache line {line_no}: {reason}")


class InconsistentMemoError(ArithmeticError):
    """An exact step of the recursion left a remainder: a memo entry is wrong."""


class MemoStore:
    """The memo: `entries` maps each key (g, ds) to its W, an int."""

    def __init__(self, entries: Optional[Mapping[Key, int]] = None):
        self.entries: dict = dict(entries or {})


def save_cache(store: MemoStore, path: str) -> None:
    """Write the core entries (g >= 1, every index >= 2) as <tau_ds>_g to
    `path`, sorted for diffs.  Every other key is one cheap step from the core
    and is rederived on demand: genus 0 by the closed form, a key with a tau_0
    by the string equation, one with a tau_1 by DVV at k = 1 (the dilaton
    equation).  A non-int entry raises TypeError, and a core entry off the
    dimension rule or <= 0 ValueError, before anything is written; a file
    that already holds these bytes is left as it is (inode and mtime too)."""
    lines = []
    for (genus, ds), w in store.entries.items():
        if type(w) is not int:
            raise TypeError(f"memo entry {_render(genus, ds)} is a {type(w).__name__}, "
                            "not a normalized int")
        if _is_core(genus, ds):
            if sum(ds) != 3 * genus - 3 + len(ds) or w <= 0:  # tested before the scale
                raise ValueError(f"memo entry {_render(genus, ds)} = {w} breaks the dimension "
                                 "rule or is not positive: load_cache would reject its line")
            lines.append(f"{_render(genus, ds)}|{format_rational(*reduced(w, _scale(genus, ds)))}")
    lines.sort()
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    with suppress(FileNotFoundError), open(path, "rb") as fh:
        if fh.read() == data:
            return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only when the write or the rename failed
            os.remove(tmp)


def load_cache(path: str) -> MemoStore:
    """Read the core entries save_cache writes back into normalized ints; the
    round trip is bit-exact, and any other line raises CacheFormatError."""
    entries: dict = {}
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh.read().splitlines(), start=1):  # \n, \r\n or \r
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CacheFormatError(line_no, "not UTF-8 text") from None
            parts = line.split("|")
            if len(parts) != 3:
                raise CacheFormatError(line_no, f"expected 3 '|'-separated fields, got {len(parts)}")
            g_text, ds_text, value_text = parts
            try:
                genus = int(g_text)
            except ValueError:
                raise CacheFormatError(line_no, f"malformed genus {g_text!r}") from None
            try:
                ds = tuple(sorted(map(int, ds_text.split(",")), reverse=True))
            except ValueError:
                raise CacheFormatError(line_no, f"malformed index list {ds_text!r}") from None
            try:
                p, q = parse_pair(value_text)
            except ValueError as exc:
                raise CacheFormatError(line_no, str(exc)) from None
            if not _is_core(genus, ds):
                raise CacheFormatError(line_no, f"key {_render(genus, ds)} is not a core key "
                                                "(genus >= 1, every index >= 2)")
            if (genus, ds) in entries:  # save_cache writes each key once
                raise CacheFormatError(line_no, f"key {_render(genus, ds)} is given twice")
            if sum(ds) != 3 * genus - 3 + len(ds):
                raise CacheFormatError(
                    line_no, f"key {_render(genus, ds)} breaks the dimension rule "
                             f"sum(ds) = 3g-3+n = {3 * genus - 3 + len(ds)}")
            if p <= 0:
                raise CacheFormatError(
                    line_no, f"key {_render(genus, ds)} has the nonpositive value {value_text}, "
                             "but every core correlator is positive")
            w, r = divmod(p * _scale(genus, ds), q)
            if r:
                raise CacheFormatError(
                    line_no, f"value {value_text} of {_render(genus, ds)} times "
                             f"2^(4g) prod (2d+1)!! is not an integer")
            canonical = f"{_render(genus, ds)}|{format_rational(*reduced(p, q))}"
            if line != canonical:  # int() also reads "+", "_", spaces and non-ASCII digits
                raise CacheFormatError(line_no, f"line is not in its canonical form {canonical!r}")
            entries[genus, ds] = w
    return MemoStore(entries)


def _insert(ds: Tuple[int, ...], v: int) -> Tuple[int, ...]:
    """The descending tuple `ds` with one more copy of `v`, still descending."""
    i = bisect_left(ds, -v, key=neg)
    return ds[:i] + (v,) + ds[i:]


def _runs(ds: Tuple[int, ...]) -> list:
    """(value, start, stop) of each run of equal entries of a sorted tuple."""
    runs = []
    start = 0
    for v in dict.fromkeys(ds):
        stop = start + ds.count(v)
        runs.append((v, start, stop))
        start = stop
    return runs


def _ordered_splits(runs: list) -> list:
    """(shift, part, binomial weight, complement) over all labeled submultisets
    of the tuple whose runs are given; part and complement stay descending.

    The weight of choosing c of the m copies of a value is C(m, c), because
    the underlying marked points are labeled.  `shift` is
    sum(part) - len(part) + 2, so that <tau_a part>_{g1} passes the dimension
    gate exactly when shift + a = 3 g1.  The splits are built run by run, so
    splits that agree on the first runs share that prefix work.
    """
    splits = [(2, (), 1, ())]
    for v, start, stop in runs:
        m = stop - start
        choices = [(c * (v - 1), (v,) * c, comb(m, c), (v,) * (m - c)) for c in range(m + 1)]
        splits = [(shift + dshift, part + dpart, weight * dweight, complement + dcomp)
                  for shift, part, weight, complement in splits
                  for dshift, dpart, dweight, dcomp in choices]
    return splits


class TauCalculator:
    """Memoizing evaluator of tau-correlators.

    tau_batch is a pure function of the canonical key, so cold and warm
    caches agree entry for entry.
    """

    def __init__(self, store: Optional[MemoStore] = None):
        self.store = store if store is not None else MemoStore()

    # -- evaluation ----------------------------------------------------------

    def tau_batch(self, genus: int, pairs, zeros: int = 0) -> Tuple[int, int]:
        """Correlator of the (i, mult) pairs with `zeros` more tau_0's as the
        reduced pair (p, q), q > 0: the one producer of a value and the one gate,
        (0, 1) for an unstable or dimension-breaking key before any memo read."""
        ds = [0] * zeros
        for i, mult in pairs:
            ds.extend([i] * mult)
        key = g, ds = canonical_key(genus, ds)
        if 2 * g - 2 + len(ds) <= 0 or sum(ds) != 3 * g - 3 + len(ds):
            return 0, 1
        w = self.store.entries.get(key)
        if w is None:
            w = self._step(key)
            if type(w) is not int:
                w = self._drive(w, key)
        return reduced(w, _scale(*key))

    # -- the worklist ----------------------------------------------------------

    def _step(self, key: Key):
        """W(key) of a stable key on the dimension rule (tau_batch admits no
        other, and every reduction keeps both): the torus base or the genus-0
        closed form, both stored, else the generator of its one reduction by
        the smallest index, the fused string-dilaton step on a tau_0 or DVV."""
        g, ds = key
        if g == 0:
            w = self.store.entries[key] = self._genus0(ds)
            return w
        if key == (1, (1,)):
            self.store.entries[key] = 2
            return 2
        if not ds[-1]:
            return self._string(g, ds)
        return self._dvv(g, ds)

    def _drive(self, gen, key: Key) -> int:
        """Run reduction `gen` of `key` to its value, evaluating each child it
        yields on an explicit stack of generators; the value of every key on
        the stack is stored in the memo."""
        memo = self.store.entries
        stack = [(key, gen)]
        sent = None
        while stack:
            top, gen = stack[-1]
            try:
                child = gen.send(sent)
            except StopIteration as done:
                sent = memo[top] = done.value
                stack.pop()
                continue
            sent = self._step(child)
            if type(sent) is not int:
                stack.append((child, sent))
                sent = None
        return sent

    def _genus0(self, ds: Tuple[int, ...]) -> int:
        """W(0, ds) = (n-3)! prod (2d_i+1)!!/d_i!, the multinomial
        (n-3)!/prod d_i! taken as a product of binomials; ds descending."""
        w = 1
        total = 0
        for d in ds:
            if not d:
                break
            total += d
            w *= comb(total, d) * _ODD[d]
        return w

    # -- one-step reductions, as generators over normalized ints ---------------
    # Each looks its children up in the memo and yields only the misses; the
    # driver sends back the child's W.

    def _string(self, g: int, ds: Tuple[int, ...]):
        """The string equation on a key with a tau_0, g >= 1, fused with the
        dilaton equation on the tau_1 it frees: lowering a 2 gives the child
        without it, weight 5 * 3(2g-2+m) for its m = len(ds) - 2 indices, when
        that child is stable (2g-2+m > 0); else the tau_1 stays in the child."""
        get = self.store.entries.get
        total = 0
        for v, start, stop in _runs(ds[:ds.index(0)]):  # lowering a tau_0 gives <tau_{-1} ...> = 0
            j = stop - 1  # lowering only the last copy of v keeps the tuple sorted
            if v == 2 and 2 * g + len(ds) > 4:
                child, weight = (g, ds[:j] + ds[j + 1:-1]), 15 * (2 * g - 4 + len(ds))
            else:
                child, weight = (g, ds[:j] + (v - 1,) + ds[j + 1:-1]), 2 * v + 1
            w = get(child)
            if w is None:
                w = yield child
            total += weight * (stop - start) * w
        return total

    def _dvv(self, g: int, ds: Tuple[int, ...]):
        """DVV on the smallest index k = ds[-1] >= 1, g >= 1: the merge terms,
        the genus-lowering terms over a+b = k-2 and half the split products
        over ordered pairs of labeled submultisets I + J of the other indices.
        As a, b < k, they end each child; only a merged k+v-1 needs _insert.
        At k = 1 only merge terms remain, on ds[:-1] (no splits are built): the
        dilaton equation."""
        get = self.store.entries.get
        k, rest = ds[-1], ds[:-1]
        runs = _runs(rest)

        total = 0
        for v, start, stop in runs:
            child = (g, _insert(rest[:start] + rest[start + 1:], k + v - 1))
            w = get(child)
            if w is None:
                w = yield child
            total += (2 * v + 1) * (stop - start) * w

        split_sum = 0
        for a in range(k - 1):
            child = (g - 1, rest + (max(a, k - 2 - a), min(a, k - 2 - a)))
            w = get(child)
            if w is None:
                w = yield child
            split_sum += w << 4
        for shift, part, weight, complement in (_ordered_splits(runs) if k > 1 else ()):
            # a runs over shift + a = 3 g1 <= 3 g; indices >= 2 give shift >= 2, g1 >= 1, first > 0
            for a in range(-shift % 3, min(k - 2, 3 * g - shift) + 1, 3):
                g1 = (shift + a) // 3
                child = (g1, part + (a,))
                first = get(child)
                if first is None:
                    first = yield child
                child = (g - g1, complement + (k - 2 - a,))
                second = get(child)
                if second is None:
                    second = yield child
                split_sum += first * second * weight

        half, odd = divmod(split_sum, 2)
        if odd:
            raise InconsistentMemoError(f"DVV split sum of {_render(g, ds)} is odd: "
                                        "a memo entry is not a normalized correlator")
        return total + half
