"""Run one `wpvol` command with spans recorded around each module's entry points.

    python wpbench/traced_cli.py OUT.json SPAWN_TIME ARGS...

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux, so the two clocks agree).
The program's stdout is untouched; spans and counters go to OUT.json as

    {"t_spawn", "t_enter", "t_imported", "rc",
     "spans": [[name, start, end, parent_index], ...], "counters": {...}}

Only the public entries the CLI reaches are wrapped, and of the correlator
engine only the outermost calls.  Calls the tracer does not wrap (the
recursive `tau_key`, `format_rational`, series construction) are charged to
the layer of the nearest wrapped caller.
"""

import time

T_ENTER = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import wpvol.cli  # noqa: E402  (imports every wpvol module)

T_IMPORTED = time.monotonic()

_BASE_KEYS = {(0, (0, 0, 0)), (1, (1,))}


def key_rule(genus: int, indices: tuple) -> str:
    """The reduction rule `TauCalculator.tau_key` selects for a stored key."""
    if (genus, tuple(indices)) in _BASE_KEYS:
        return "base"
    if indices[-1] == 0:
        return "string"
    if indices[0] == 1:
        return "dilaton"
    return "dvv"


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class CountingMemo(dict):
    """The correlator memo, counting lookups that hit and that miss."""

    def __init__(self, entries):
        super().__init__(entries)
        self.loaded = len(self)
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value


class Tracer:
    """Spans ([name, start, end, parent_index]) and counters of one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.memos = []

    def wrap(self, name, fn, after=None, guard_layer=None):
        """`fn` recording a span; with `guard_layer`, calls made while a span
        of that layer is open run unrecorded (re-entry guard)."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if guard_layer and stack and spans[stack[-1]][0].startswith(guard_layer):
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append([name, clock(), None, parent])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(parent, args, result)
            return result

        return wrapper

    def parent_name(self, parent):
        return None if parent is None else self.spans[parent][0]

    # -- memo -----------------------------------------------------------------

    def adopt_memo(self, calc):
        """Swap the calculator's memo dict for a counting one."""
        if type(calc.store.entries) is dict:
            calc.store.entries = CountingMemo(calc.store.entries)
            self.memos.append(calc.store.entries)

    def memo_counters(self):
        """Lookups, size, new keys by rule and largest bit length of every memo."""
        c = self.counters
        for memo in self.memos:
            c["taucalc.hits"] += memo.hits
            c["taucalc.misses"] += memo.misses
            c["taucalc.memo_keys"] += len(memo)
            c["taucalc.max_bits"] = max([c["taucalc.max_bits"], *map(_bits, memo.values())])
            for key in list(memo)[memo.loaded:]:
                c["taucalc.keys." + key_rule(key[0], key[1])] += 1


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "wpvol" or name.startswith("wpvol.")) and m is not None]


def patch(owner, attr, wrapper_factory):
    """Replace `owner.attr` and every alias of it (module re-exports, class
    aliases such as `__rmul__ = __mul__`) by the wrapper; skip it if absent."""
    original = vars(owner).get(attr)
    if original is None:
        return
    wrapped = wrapper_factory(original)
    holders = [owner] if isinstance(owner, type) else _modules()
    for holder in holders:
        for name, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, name, wrapped)


def extend_init(cls, hook) -> None:
    """Call `hook(instance)` after every `cls(...)`."""
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        hook(self)

    cls.__init__ = counting_init


def install(tracer: Tracer) -> None:
    from wpvol import asympt, genexp, kappavol, qseries, taucalc

    t, c = tracer, tracer.counters

    def span(name, **kw):
        return lambda fn: t.wrap(name, fn, **kw)

    # taucalc: outermost tau/tau_batch only; the recursion below is one span
    def after_tau(parent, args, result):
        c["taucalc.calls"] += 1
        if t.parent_name(parent) == "kappavol.volume":
            c["kappavol.terms"] += 1
            if not result:
                c["kappavol.zero_brackets"] += 1

    for attr in ("tau", "tau_batch"):
        patch(taucalc.TauCalculator, attr, span("taucalc." + attr, after=after_tau,
                                                guard_layer="taucalc."))
    extend_init(taucalc.TauCalculator, t.adopt_memo)

    def after_load(parent, args, store):
        c["taucalc.cache.bytes_read"] += _size(args[0])
        c["taucalc.cache.entries_loaded"] += len(store.entries)

    def after_save(parent, args, result):
        store = args[0]
        path = args[1] if len(args) > 1 and args[1] is not None else store.path
        c["taucalc.cache.bytes_written"] += _size(path)
        c["taucalc.cache.new_entries"] += len(store.entries) - store.entries.loaded

    patch(taucalc, "load_cache", span("taucalc.cache.load", after=after_load))
    patch(taucalc, "save_cache", span("taucalc.cache.save", after=after_save))

    # kappavol
    def after_volume(parent, args, result):
        c["kappavol.volume_calls"] += 1

    patch(kappavol, "volume", span("kappavol.volume", after=after_volume))
    patch(kappavol, "volume_table", span("kappavol.volume_table"))

    # qseries: each operation is its own span, nested calls included
    def after_series(parent, args, result):
        order = getattr(result, "order", None)
        if order is None:
            return
        c["qseries.max_order"] = max(c["qseries.max_order"], order)
        c["qseries.max_bits"] = max(c["qseries.max_bits"],
                                    max(_bits(q) for q in result.coeffs))

    series = qseries.Series
    for attr, op in (("__mul__", "mul"), ("__pow__", "pow"), ("compose", "compose"),
                     ("revert", "revert"), ("reciprocal", "reciprocal"),
                     ("__add__", "add"), ("__sub__", "sub"), ("__neg__", "neg"),
                     ("__truediv__", "div"), ("derivative", "derivative"),
                     ("antiderivative", "antiderivative"), ("truncate", "truncate")):
        patch(series, attr, span("qseries." + op, after=after_series))
    patch(qseries, "bessel_x_of_y", span("qseries.bessel_x_of_y", after=after_series))
    patch(qseries, "first_mismatch", span("qseries.first_mismatch"))

    # genexp
    patch(genexp.GenusExpansionContext, "__init__", span("genexp.context"))
    patch(genexp, "build_phi_g", span("genexp.phi_g"))
    for attr in ("build_y", "build_phi0", "build_f", "build_f_lemma",
                 "check_derivative_formula", "induction_sides", "lemma_report",
                 "theorem_reports"):
        patch(genexp, attr, span("genexp." + attr))

    def count_check(report):
        c["genexp.checks"] += 1
        c["genexp.checks_failed"] += not report.passed

    extend_init(genexp.CheckReport, count_check)

    # asympt: the Bessel-zero bisection sits under the critical-point entries
    for attr in ("predicted_growth_constant", "critical_radius"):
        patch(asympt, attr, span("asympt.critical"))
    patch(asympt, "fit_growth", span("asympt.fit"))


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def main(argv) -> int:
    out_path, t_spawn, args = argv[0], float(argv[1]), argv[2:]
    tracer = Tracer()
    install(tracer)
    main_fn = tracer.wrap("cli.main", wpvol.cli.main)
    rc = 1
    try:
        rc = main_fn(args)
    finally:
        sys.stdout.flush()
        tracer.memo_counters()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"t_spawn": t_spawn, "t_enter": T_ENTER, "t_imported": T_IMPORTED,
                       "rc": rc, "spans": tracer.spans,
                       "counters": dict(tracer.counters)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
