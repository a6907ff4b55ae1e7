"""Exact psi-class intersection numbers <tau_{d1} ... tau_{dn}>_g.

Everything reduces to the normalization <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24
through the Dijkgraaf-Verlinde-Verlinde (KdV / Virasoro) recursion, one
rule per key, chosen by its smallest index, and one implementation per rule:
  - a tau_0: the string equation removes it, fused with the dilaton equation
    on the tau_1 it frees (the paper's index-shift identity), so no key with
    a new tau_1 is stored;
  - a tau_1: the dilaton equation, one child;
  - otherwise: DVV on the largest index, the only step with a genus split.
Marked points are distinguishable, so the genus-splitting sums run over
ordered pairs of labeled submultisets.  Genus 0 needs no recursion:
<tau_d>_0 = (n-3)!/prod d_i! (a multinomial coefficient) whenever the
dimension rule holds.

A key is a plain tuple (g, ds), ds sorted in descending order; canonical_key
builds it from outside input, and each reduction builds its child keys in
that shape directly.  In the genus-splitting sum the dimension constraint of
<tau_a I>_{g1} fixes g1 = (sum(I) + a - |I| + 2) / 3, so a split contributes
only when that is an integer in [0, g].

The memo holds plain ints, the normalized correlators (Liu-Xu)

    W(g, ds) = 2^(4g) * prod_i (2d_i+1)!! * <tau_ds>_g.

In W every rule has integer coefficients: string (2d_j+1), fused
string-dilaton 5 * 3(2g-2+m) for the m indices left, dilaton 3(2g-3+n) for
the n indices of the key, DVV merge (2d_j+1), the DVV genus-reducing term
times 2^4, the DVV split products unscaled (2^(4 g1) 2^(4 g2) = 2^(4g)), and
the bases W(0,(0,0,0)) = 1 and W(1,(1,)) = 2; one exact halving of the DVV
split sum remains.  The double factorials clear every odd denominator.  The
2-adic scale 2^(4g) is a pinned invariant: over the keys of volume(g, n),
g <= 6, the largest 2-adic exponent of a denominator of <tau_ds>_g is
3g + v2(g!) (3, 7, 10, 15, 18, 22), below 4g and attained by
<tau_{3g-2}>_g = 1/(24^g g!).  A wrong cache
value can still break it, so the halving raises InconsistentMemoError on a
remainder instead of rounding.  A correlator leaves the engine as the pair
(p, q) of W / (2^(4g) prod (2d_i+1)!!) in lowest terms, q > 0, from
tau_batch, the engine's one entry; no Fraction is built.

Evaluation keeps an explicit worklist, not the interpreter's call stack:
each reduction is a generator that looks its children up in the memo and
yields only the misses, and one driver loop keeps the stack of generators,
so a key is not limited by the recursion limit.

The memo can be persisted to a plain-text cache file (one
"g|d1,...,dn|p/q" entry per line holding <tau_ds>_g itself, indices sorted
descending, lines sorted for diff-stability).  Saving writes only the core
keys, g >= 1 with every index >= 2, but any key loads.  Loading rejects a
line that is not UTF-8 text, any line that gives a nonzero value to an
unstable key or to one that breaks the dimension rule, a value <= 0 to any
other key, or a key given before, and any value that times
2^(4g) prod (2d_i+1)!! is not an integer; saving writes a temporary file
beside the target and renames it into place.  Neither builds a Fraction or
scales a zero value.  The engine, the saver and the loader read one
(2d+1)!! table, so each double factorial is computed once per process.

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
    """The "g|d1,...,dn" form of a key, "-" for no indices."""
    return f"{genus}|{','.join(map(str, ds)) if ds else '-'}"


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
    by the string equation, one with a tau_1 by the dilaton equation.  A non-int
    entry, core or not, raises TypeError before anything is written, and a file
    that already holds these bytes is left as it is (inode and mtime too)."""
    lines = []
    for (genus, ds), w in store.entries.items():
        if type(w) is not int:
            raise TypeError(f"memo entry {_render(genus, ds)} is a {type(w).__name__}, "
                            "not a normalized int")
        if genus < 1 or (ds and ds[-1] < 2):
            continue  # not a core key
        # unscaled zero: the scale of a large dimension-breaking key is huge
        value = format_rational(*reduced(w, _scale(genus, ds))) if w else "0"
        lines.append(f"{_render(genus, ds)}|{value}")
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
    """Read a cache file back into normalized ints; the round trip is bit-exact."""
    entries: dict = {}
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh.read().splitlines(), start=1):  # \n, \r\n or \r
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise CacheFormatError(line_no, "not UTF-8 text") from None
            if not line:
                continue
            parts = line.split("|")
            if len(parts) != 3:
                raise CacheFormatError(line_no, f"expected 3 '|'-separated fields, got {len(parts)}")
            g_text, ds_text, value_text = parts
            try:
                genus = int(g_text)
            except ValueError:
                raise CacheFormatError(line_no, f"malformed genus {g_text!r}") from None
            tokens = ds_text.split(",") if ds_text != "-" else []
            try:
                ds = tuple(sorted(map(int, tokens), reverse=True))
            except ValueError:
                raise CacheFormatError(line_no, f"malformed index list {ds_text!r}") from None
            try:
                p, q = parse_pair(value_text)
            except ValueError as exc:
                raise CacheFormatError(line_no, str(exc)) from None
            if genus < 0:
                raise CacheFormatError(line_no, f"genus must be >= 0, got {genus}")
            if ds and ds[-1] < 0:
                raise CacheFormatError(line_no, "tau indices must be >= 0")
            if (genus, ds) in entries:  # save_cache writes each key once
                raise CacheFormatError(line_no, f"key {_render(genus, ds)} is given twice")
            # a correlator is 0 on unstable and dimension-breaking keys and
            # positive on every other key, so any other value is corrupt
            n = len(ds)
            stable = 2 * genus - 2 + n > 0
            valid = stable and sum(ds) == 3 * genus - 3 + n
            w = 0  # unscaled, as in save_cache
            if p:
                if not stable:
                    raise CacheFormatError(
                        line_no, f"unstable key {_render(genus, ds)} has a nonzero value")
                if not valid:
                    raise CacheFormatError(
                        line_no, f"key {_render(genus, ds)} breaks the dimension rule "
                                 f"sum(ds) = 3g-3+n = {3 * genus - 3 + n} but has a nonzero value")
                w, r = divmod(p * _scale(genus, ds), q)
                if r:
                    raise CacheFormatError(
                        line_no, f"value {value_text} of {_render(genus, ds)} times "
                                 f"2^(4g) prod (2d+1)!! is not an integer")
            if w <= 0 and valid:
                raise CacheFormatError(
                    line_no, f"key {_render(genus, ds)} has the nonpositive value {value_text}, "
                             "but every stable key that obeys the dimension rule has a "
                             "positive correlator")
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
        """Correlator of a multiplicity vector given as (i, mult) pairs, with
        `zeros` extra tau_0's, as the reduced pair (p, q), q > 0: (0, 1) for
        unstable keys or dimension mismatch.  The one producer of a value."""
        ds = [0] * zeros
        for i, mult in pairs:
            ds.extend([i] * mult)
        key = canonical_key(genus, ds)
        w = self.store.entries.get(key)
        if w is None:
            w = self._step(key)
            if type(w) is not int:
                w = self._drive(w, key)
        # a zero W skips the scale, which can be huge on a dimension-breaking key
        return reduced(w, _scale(*key)) if w else (0, 1)

    # -- the worklist ----------------------------------------------------------

    def _step(self, key: Key):
        """W(key) when no reduction is needed (0 for an unstable or
        dimension-breaking key, the torus base, the genus-0 closed form; the
        last two are stored), else the generator of its one reduction, by
        the smallest index: the fused string-dilaton step on a tau_0, the
        dilaton equation on a tau_1, else DVV on the largest index."""
        g, ds = key
        n = len(ds)
        if 2 * g - 2 + n <= 0 or sum(ds) != 3 * g - 3 + n:
            return 0
        if g == 0:
            w = self.store.entries[key] = self._genus0(ds)
            return w
        if key == (1, (1,)):
            self.store.entries[key] = 2
            return 2
        if not ds[-1]:
            return self._string(g, ds)
        if ds[-1] == 1:
            return self._dilaton(g, ds)
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
        head = ds[:ds.index(0)]  # lowering a tau_0 gives <tau_{-1} ...> = 0
        total = count = 0
        for j, (v, after) in enumerate(zip(head, head[1:] + (0,))):
            count += 1
            if after == v:
                continue  # lowering only the last copy of v keeps the tuple sorted
            if v == 2 and 2 * g + len(ds) > 4:
                child, weight = (g, ds[:j] + ds[j + 1:-1]), 15 * (2 * g - 4 + len(ds))
            else:
                child, weight = (g, ds[:j] + (v - 1,) + ds[j + 1:-1]), 2 * v + 1
            w = get(child)
            if w is None:
                w = yield child
            total += weight * count * w
            count = 0
        return total

    def _dilaton(self, g: int, ds: Tuple[int, ...]):
        """The dilaton equation on a key with a tau_1: <tau_1 rest>_g =
        (2g-2+|rest|) <rest>_g, so W(g, ds) = 3(2g-3+n) W(g, ds[:-1])."""
        child = (g, ds[:-1])
        w = self.store.entries.get(child)
        if w is None:
            w = yield child
        return 3 * (2 * g - 3 + len(ds)) * w

    def _dvv(self, g: int, ds: Tuple[int, ...]):
        """DVV on the largest index k = ds[0] >= 2, g >= 1: the merge terms, the
        genus-lowering terms over a+b = k-2 and half the split products over
        ordered pairs of labeled submultisets I + J of the other indices."""
        get = self.store.entries.get
        k, rest = ds[0], ds[1:]
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
            child = (g - 1, _insert(_insert(rest, a), k - 2 - a))
            w = get(child)
            if w is None:
                w = yield child
            split_sum += w << 4
        for shift, part, weight, complement in _ordered_splits(runs):
            # a runs over shift + a = 3 g1 <= 3 g; indices >= 2 give shift >= 2, g1 >= 1, first > 0
            for a in range(-shift % 3, min(k - 2, 3 * g - shift) + 1, 3):
                g1 = (shift + a) // 3
                child = (g1, _insert(part, a))
                first = get(child)
                if first is None:
                    first = yield child
                child = (g - g1, _insert(complement, k - 2 - a))
                second = get(child)
                if second is None:
                    second = yield child
                split_sum += first * second * weight

        half, odd = divmod(split_sum, 2)
        if odd:
            raise InconsistentMemoError(f"DVV split sum of {_render(g, ds)} is odd: "
                                        "a memo entry is not a normalized correlator")
        return total + half
