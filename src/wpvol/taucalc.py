"""Exact psi-class intersection numbers <tau_{d1} ... tau_{dn}>_g.

Everything reduces to the normalization <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24:
the string equation removes a tau_0 insertion, the dilaton equation removes a
tau_1 once only tau_1's remain, and the Dijkgraaf-Verlinde-Verlinde (KdV /
Virasoro) recursion handles the rest.  Marked points are distinguishable, so
the genus-splitting sums run over ordered pairs of labeled submultisets.

Every key has one shape, TauKey(g, indices) with `indices` a tuple sorted in
descending order, and each reduction builds its child keys in that shape
directly.  In the genus-splitting sum the dimension constraint of
<tau_a I>_{g1} fixes g1 = (sum(I) + a - |I| + 2) / 3, so a split contributes
only when that is an integer in [0, g].

Values are exact rationals and are memoized per canonical key; the memo can
be persisted to a plain-text cache file (one "g|d1,...,dn|p/q" entry per
line, indices sorted descending, lines sorted for diff-stability).  Loading
rejects any line that gives a nonzero value to an unstable key or to one
that breaks the dimension rule; saving writes a temporary file beside the
target and renames it into place.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from fractions import Fraction
from itertools import product
from math import comb
from operator import neg
from typing import Iterable, Mapping, NamedTuple, Optional, Tuple

from .qseries import double_factorial, format_rational, parse_rational

__all__ = [
    "TauKey",
    "MemoStore",
    "TauCalculator",
    "CacheFormatError",
    "save_cache",
    "load_cache",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_TORUS_ONE_POINT = Fraction(1, 24)

Indices = Iterable[int]


class TauKey(NamedTuple):
    """Canonical identifier of one correlator: genus plus the index multiset
    as a tuple sorted in descending order."""

    genus: int
    indices: Tuple[int, ...]

    @classmethod
    def make(cls, genus: int, indices: Indices) -> "TauKey":
        if genus < 0:
            raise ValueError(f"genus must be >= 0, got {genus}")
        idx = tuple(sorted((int(d) for d in indices), reverse=True))
        if idx and idx[-1] < 0:
            raise ValueError("tau indices must be >= 0")
        return cls(int(genus), idx)

    @property
    def n(self) -> int:
        return len(self.indices)

    @property
    def dimension(self) -> int:
        return 3 * self.genus - 3 + self.n

    def render(self) -> str:
        ds = ",".join(map(str, self.indices)) if self.indices else "-"
        return f"{self.genus}|{ds}"


_BASE_SPHERE = TauKey(0, (0, 0, 0))
_BASE_TORUS = TauKey(1, (1,))


class CacheFormatError(ValueError):
    """Malformed correlator cache file; carries the offending line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"cache line {line_no}: {reason}")
        self.line_no = line_no


class MemoStore:
    """TauKey -> Fraction cache, optionally tied to a backing text file."""

    def __init__(self, entries: Optional[Mapping[TauKey, Fraction]] = None,
                 path: Optional[str] = None):
        self.entries: dict = dict(entries or {})
        self.path = path

    def __eq__(self, other) -> bool:
        if not isinstance(other, MemoStore):
            return NotImplemented
        return self.entries == other.entries


def save_cache(store: MemoStore, path: Optional[str] = None) -> None:
    """Write every entry to `path` (or the store's own path), sorted for diffs."""
    target = path if path is not None else store.path
    if target is None:
        raise ValueError("no cache path given")
    lines = sorted(f"{key.render()}|{format_rational(value)}"
                   for key, value in store.entries.items())
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):  # only when the write or the rename failed
            os.remove(tmp)


def load_cache(path: str) -> MemoStore:
    """Read a cache file back; the round trip is bit-exact."""
    entries: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
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
            if ds_text == "-":
                indices: Tuple[int, ...] = ()
            else:
                try:
                    indices = tuple(int(d) for d in ds_text.split(","))
                except ValueError:
                    raise CacheFormatError(line_no, f"malformed index list {ds_text!r}") from None
            try:
                value = parse_rational(value_text)
                key = TauKey.make(genus, indices)
            except ValueError as exc:
                raise CacheFormatError(line_no, str(exc)) from None
            # tau() is 0 on unstable and dimension-breaking keys, so any
            # other value there is corrupt
            n = len(key.indices)
            if value and 2 * genus - 2 + n <= 0:
                raise CacheFormatError(line_no, f"unstable key {key.render()} has a nonzero value")
            if value and sum(key.indices) != 3 * genus - 3 + n:
                raise CacheFormatError(
                    line_no, f"key {key.render()} breaks the dimension rule "
                             f"sum(ds) = 3g-3+n = {3 * genus - 3 + n} but has a nonzero value")
            entries[key] = value
    return MemoStore(entries, path=path)


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
    gate exactly when shift + a = 3 g1.
    """
    splits = []
    for choice in product(*(range(stop - start + 1) for _, start, stop in runs)):
        part: Tuple[int, ...] = ()
        complement: Tuple[int, ...] = ()
        weight = 1
        for (v, start, stop), c in zip(runs, choice):
            m = stop - start
            part += (v,) * c
            complement += (v,) * (m - c)
            weight *= comb(m, c)
        splits.append((sum(part) - len(part) + 2, part, weight, complement))
    return splits


class TauCalculator:
    """Memoizing evaluator of tau-correlators.

    tau() is a pure function of the canonical key, so cold and warm caches
    agree entry for entry.
    """

    def __init__(self, store: Optional[MemoStore] = None):
        self.store = store if store is not None else MemoStore()

    # -- evaluation ----------------------------------------------------------

    def tau(self, genus: int, indices: Indices) -> Fraction:
        """<tau_{d1} ... tau_{dn}>_g; 0 for unstable keys or dimension mismatch."""
        return self.tau_key(TauKey.make(genus, indices))

    def tau_key(self, key: TauKey) -> Fraction:
        g, ds = key
        n = len(ds)
        if 2 * g - 2 + n <= 0:
            return _ZERO
        if sum(ds) != 3 * g - 3 + n:
            return _ZERO
        memo = self.store.entries
        cached = memo.get(key)
        if cached is not None:
            return cached
        if key == _BASE_SPHERE:
            value = _ONE
        elif key == _BASE_TORUS:
            value = _TORUS_ONE_POINT
        elif ds[-1] == 0:
            value = self.string_reduced(g, ds)
        elif ds[0] == 1:
            value = self.dilaton_reduced(g, ds)
        else:
            value = self.dvv_reduced(g, ds, ds[0])
        memo[key] = value
        return value

    def tau_batch(self, genus: int, pairs, zeros: int = 0) -> Fraction:
        """Correlator of a multiplicity vector given as (i, mult) pairs, with
        `zeros` extra tau_0's."""
        ds = [0] * zeros
        for i, mult in pairs:
            ds.extend([i] * mult)
        return self.tau(genus, ds)

    # -- one-step reductions (exposed for the consistency suite) --------------
    # Products keep the Fraction on the left: int * Fraction goes through
    # Fraction.__rmul__, whose numbers.Rational check is slower and deeper.

    def string_reduced(self, genus: int, indices: Indices) -> Fraction:
        """Remove one tau_0 via the string equation: sum over lowering each
        other index by one (indices already at 0 drop out)."""
        ds = tuple(sorted(indices, reverse=True))
        if not ds or ds[-1] != 0:
            raise ValueError("string equation needs a tau_0 insertion")
        rest = ds[:-1]
        total = _ZERO
        for v, start, stop in _runs(rest):
            if v:
                # lowering the last copy of v keeps the tuple sorted
                lowered = rest[:stop - 1] + (v - 1,) + rest[stop:]
                total += self.tau_key(TauKey(genus, lowered)) * (stop - start)
        return total

    def dilaton_reduced(self, genus: int, indices: Indices) -> Fraction:
        """Remove one tau_1 via the dilaton equation, picking up the Euler
        factor 2g - 2 + n of the remaining n-pointed correlator."""
        ds = tuple(sorted(indices, reverse=True))
        if 1 not in ds:
            raise ValueError("dilaton equation needs a tau_1 insertion")
        i = ds.index(1)
        rest = ds[:i] + ds[i + 1:]
        return self.tau_key(TauKey(genus, rest)) * (2 * genus - 2 + len(rest))

    def dvv_reduced(self, genus: int, indices: Indices, pivot: int) -> Fraction:
        """One application of the DVV recursion, pivoting on an index k >= 2:

            (2k+1)!! <tau_k prod tau_{d_j}>_g =
                sum_j [(2(k+d_j)-1)!! / (2d_j-1)!!] <tau_{k+d_j-1} rest_j>_g
              + 1/2 sum_{a+b=k-2} (2a+1)!!(2b+1)!! [ <tau_a tau_b rest>_{g-1}
                  + sum_{g1+g2=g, I+J=rest} <tau_a I>_{g1} <tau_b J>_{g2} ]

        with (-1)!! = 1, unstable terms equal to 0, and the splitting sum over
        ordered pairs of labeled submultisets.  The pivot may be any index
        >= 2 present in the key; the result does not depend on the choice.
        """
        if pivot < 2:
            raise ValueError("DVV recursion pivots on an index >= 2")
        ds = tuple(sorted(indices, reverse=True))
        if pivot not in ds:
            raise ValueError(f"pivot {pivot} not present in {list(ds)}")
        k = pivot
        i = ds.index(k)
        rest = ds[:i] + ds[i + 1:]
        runs = _runs(rest)

        total = _ZERO
        for v, start, stop in runs:
            merged = _insert(rest[:start] + rest[start + 1:], k + v - 1)
            # (2(k+v)-1)!! / (2v-1)!! is a product of odd numbers
            coeff = double_factorial(2 * (k + v) - 1) // double_factorial(2 * v - 1)
            total += self.tau_key(TauKey(genus, merged)) * ((stop - start) * coeff)

        split_sum = _ZERO
        splits = _ordered_splits(runs)
        for a in range(k - 1):
            b = k - 2 - a
            inner = _ZERO
            if genus >= 1:
                inner += self.tau_key(TauKey(genus - 1, _insert(_insert(rest, a), b)))
            for shift, part, weight, complement in splits:
                g1, r = divmod(shift + a, 3)
                if r or not 0 <= g1 <= genus:
                    continue
                first = self.tau_key(TauKey(g1, _insert(part, a)))
                if not first:
                    continue
                second = self.tau_key(TauKey(genus - g1, _insert(complement, b)))
                if second:
                    inner += first * second * weight
            split_sum += inner * (double_factorial(2 * a + 1) * double_factorial(2 * b + 1))

        total += split_sum / 2
        return total / double_factorial(2 * k + 1)
