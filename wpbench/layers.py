"""Per-layer metrics from the spans and counters of traced jobs.

A span's self time is its duration minus the part of its interval that its
child spans cover.  A layer's self time is the sum of the self times of its
spans, so the layers of one job partition the time inside `cli.main`.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

QSERIES_OPS = ("revert", "compose", "mul", "pow", "reciprocal")
KEY_RULES = ("base", "string", "dilaton", "dvv")

#: counters whose pass value is the largest over its jobs, not the sum
MAXIMA = ("taucalc.max_bits", "qseries.max_order", "qseries.max_bits")

#: per-layer metric name -> unit, in report order
METRICS: Dict[str, str] = {
    "cli.startup_s": "s", "cli.self_s": "s",
    "taucalc.self_s": "s", "taucalc.calls": "count", "taucalc.memo_keys": "count",
    "taucalc.hit_ratio": "ratio", "taucalc.keys_per_s": "1/s", "taucalc.max_bits": "bits",
    **{f"taucalc.keys.{r}": "count" for r in KEY_RULES},
    "taucalc.cache.load_s": "s", "taucalc.cache.save_s": "s",
    "taucalc.cache.bytes_read": "bytes", "taucalc.cache.bytes_written": "bytes",
    "taucalc.cache.entries_loaded": "count", "taucalc.cache.new_entries": "count",
    "kappavol.self_s": "s", "kappavol.volume_calls": "count", "kappavol.terms": "count",
    "kappavol.zero_bracket_ratio": "ratio",
    "qseries.self_s": "s", "qseries.max_order": "count", "qseries.max_bits": "bits",
    **{f"qseries.{op}.{m}": u for op in QSERIES_OPS for m, u in (("s", "s"), ("calls", "count"))},
    "genexp.self_s": "s", "genexp.context_s": "s", "genexp.phi_g_s": "s",
    "genexp.checks": "count", "genexp.checks_failed": "count",
    "asympt.self_s": "s", "asympt.critical_s": "s", "asympt.fit_s": "s",
    "trace.overhead_s": "s",
}


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of each span in a list of [name, start, end, parent_index]."""
    children: Dict[int, list] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [(end - start) - covered(start, end, children[i])
            for i, (name, start, end, parent) in enumerate(spans)]


def layer_of(span_name: str) -> str:
    if span_name.startswith("taucalc.cache."):
        return "taucalc.cache"
    return span_name.split(".", 1)[0]


def job_metrics(trace: dict, speed: float = 1.0) -> Dict[str, float]:
    """Per-layer sums of one traced job (before pass-level ratios), with
    times scaled by the job's `speed` factor."""
    spans = trace["spans"]
    selfs = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for (name, start, end, parent), own in zip(spans, selfs):
        out[layer_of(name) + ".self_s"] += own
        if name.startswith("qseries.") and name[8:] in QSERIES_OPS:
            out[name + ".s"] += own
            out[name + ".calls"] += 1
        elif name == "asympt.critical":
            out["asympt.critical_s"] += own
        elif name == "asympt.fit":
            out["asympt.fit_s"] += own
        elif name == "taucalc.cache.load":
            out["taucalc.cache.load_s"] += end - start
        elif name == "taucalc.cache.save":
            out["taucalc.cache.save_s"] += end - start
        elif name in ("genexp.context", "genexp.phi_g"):
            if not _inside(spans, parent, name):
                out[name + "_s"] += end - start
    out["cli.startup_s"] = trace["t_imported"] - trace["t_spawn"]
    for key in out:
        if key.endswith(("_s", ".s")):
            out[key] *= speed
    out.update(trace["counters"])
    return out


def _inside(spans, parent, name) -> bool:
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def pass_metrics(jobs: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics of one pass over the job list."""
    total: Dict[str, float] = defaultdict(float)
    for job in jobs:
        for key, value in job.items():
            if key in MAXIMA:
                total[key] = max(total[key], value)
            elif key != "cli.startup_s":
                total[key] += value
    out = {name: 0.0 for name in METRICS}
    for name in out:
        if name in total:
            out[name] = total[name]
    out["cli.startup_s"] = statistics.median(j["cli.startup_s"] for j in jobs)
    lookups = total["taucalc.hits"] + total["taucalc.misses"]
    out["taucalc.hit_ratio"] = total["taucalc.hits"] / lookups if lookups else 0.0
    new_keys = sum(total[f"taucalc.keys.{r}"] for r in KEY_RULES)
    tau_s = total["taucalc.self_s"]
    out["taucalc.keys_per_s"] = new_keys / tau_s if tau_s else 0.0
    terms = total["kappavol.terms"]
    out["kappavol.zero_bracket_ratio"] = total["kappavol.zero_brackets"] / terms if terms else 0.0
    return out


def is_count(name: str) -> bool:
    """Counts and ratios of counts repeat exactly for one seed; times do not."""
    return METRICS[name] not in ("s", "1/s")
