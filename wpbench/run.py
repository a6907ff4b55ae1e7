"""Benchmark entry point: time a workload's seeded job list of `wpvol` runs.

    python3 wpbench/run.py --workload kappa-volumes --seed 1 --seconds 20 --trace 0

Closed loop, one client: each job is a fresh `python -m wpvol.cli` process,
started only after the previous one has exited, so only one job runs at a
time (this process and the spawner in spawn.py wait for it).  The job list
is run in whole passes until `--seconds` have gone by, and at least
MIN_PASSES times.  Every job's stdout is compared with its golden.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates plain
and traced passes (see traced_cli.py) and reports the per-layer metrics, the
difference between the two kinds of pass being `trace.overhead_s`.

A human-readable summary goes first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import mpmath  # noqa: E402  (a dependency of wpvol)

from wpbench import layers  # noqa: E402
from wpbench.jobs import (  # noqa: E402
    BENCH_DIR, JOB_TIMEOUT_S, NOOP, WORKLOADS, Job, JobResult, Workload, check, job_key, job_list,
    load_goldens, run_job,
)

ROOT = BENCH_DIR.parent

#: timed no-op runs whose median is `setup_s`
SETUP_REPEATS = 5

#: passes run even when they take longer than --seconds (up to 3 times
#: --seconds, so that a slow program still ends in time); the tail
#: percentile is fixed by this many passes, so it does not move with the
#: pass count
MIN_PASSES = 4

#: the speed probe's time on a lightly loaded core of the reference machine
#: (2-core sandbox, Python 3.11); job times are scaled to that speed
PROBE_REFERENCE_S = 0.1

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "job_wall_s.p50": "s", "job_wall_s.tail": "s",
    "peak_rss_mb": "MB", "setup_s": "s", "success_rate": "ratio",
}


#: the speed probe: a fresh interpreter doing exact arithmetic into a growing
#: dict, the same kind of work as a job, but none of the code under test
PROBE = """
from fractions import Fraction
memo = {}
total = Fraction(0)
for i in range(1, 5000):
    total += Fraction(1, i % 97 + 1)
    memo[(i % 997, i % 3, i)] = total * i
"""


def probe(root: Path) -> float:
    """Seconds the probe process takes, start to reaped exit.

    The machine is shared: the same job can take twice as long a minute
    later.  The probe runs between jobs on the same core, and each job time
    is scaled by PROBE_REFERENCE_S over the mean of the probes around it.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE], cwd=str(root), check=True,
                   stdout=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)
    return time.perf_counter() - t0


class Session:
    """One workload's runs in one scratch directory, with the failure count."""

    def __init__(self, root: Path, workdir: Path, workload: Workload,
                 prefix: Optional[List[str]] = None):
        self.root = root
        self.workdir = workdir
        self.workload = workload
        self.goldens = load_goldens()
        self.prefix = prefix
        self.cache = workdir / "cache.txt" if self.workload.uses_cache else None
        self.pristine = workdir / "warm-cache.txt"
        self.attempted = 0
        self.failed = 0
        self.last_probe = probe(root)

    def run(self, job: Job, traced: bool = False) -> JobResult:
        result = run_job(job, self.root, self.workdir, cache=self.cache,
                         traced=traced, prefix=self.prefix)
        after = probe(self.root)
        result.speed = PROBE_REFERENCE_S / ((self.last_probe + after) / 2)
        self.last_probe = after
        self.attempted += 1
        if not check(result, self.goldens):
            self.failed += 1
            stderr = self.workdir / "stderr.txt"
            err = stderr.read_bytes()[-400:] if stderr.exists() else b""
            print(f"FAILED (exit {result.returncode}): {job_key(job)}\n"
                  f"{err.decode(errors='replace')}", file=sys.stderr)
        return result

    def prepare(self) -> None:
        """Fill the shared cache, then run one untimed no-op (bytecode, file cache)."""
        for job in self.workload.warm:
            self.run(job)
        if self.cache is not None:
            shutil.copyfile(self.cache, self.pristine)
        self.run(NOOP)

    def reset_cache(self) -> None:
        if self.cache is not None:
            shutil.copyfile(self.pristine, self.cache)

    def setup_s(self) -> float:
        self.reset_cache()
        return statistics.median(self.run(NOOP).norm_wall_s for _ in range(SETUP_REPEATS))

    def run_pass(self, jobs: List[Job], traced: bool = False) -> Tuple[float, List[JobResult]]:
        """Run the job list once from the pristine cache; (scaled wall time, results)."""
        self.reset_cache()
        results = [self.run(job, traced) for job in jobs]
        return sum(r.norm_wall_s for r in results), results


def tail_percentile(jobs_per_pass: int) -> int:
    """The highest whole percentile with at least 10 jobs above it in a run
    of MIN_PASSES passes; longer runs have more jobs above it."""
    n = jobs_per_pass * MIN_PASSES
    return max((100 * (n - 10)) // n, 0)


def percentile(values: List[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-th percentile: a weighted mean of
    all order statistics, so it moves smoothly when jobs of two costs trade
    places around the percentile instead of jumping from one cost to the other."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def end_to_end(session: Session, jobs: List[Job], seconds: float) -> Dict[str, float]:
    setup = session.setup_s()
    start = time.perf_counter()
    passes = []
    while not passes or (time.perf_counter() - start < 3 * seconds and (
            len(passes) < MIN_PASSES or time.perf_counter() - start < seconds)):
        passes.append(session.run_pass(jobs))
    job_times = [r.norm_wall_s for _, results in passes for r in results]
    p = tail_percentile(len(jobs))
    print(f"{len(passes)} passes of {len(jobs)} jobs; job_wall_s.tail is p{p} of "
          f"{len(job_times)} job times")
    return {
        "wall_s": statistics.median(w for w, _ in passes),
        "cpu_s": statistics.median(sum(r.cpu_s * r.speed for r in results)
                                   for _, results in passes),
        "job_wall_s.p50": percentile(job_times, 50),
        "job_wall_s.tail": percentile(job_times, p),
        "peak_rss_mb": max(r.rss_mb for _, results in passes for r in results),
        "setup_s": setup,
        "success_rate": 1.0 - session.failed / session.attempted,
    }


def per_layer(session: Session, jobs: List[Job], seconds: float) -> Dict[str, float]:
    deadline = time.perf_counter() + seconds
    plain: List[float] = []
    traced: List[Tuple[float, Dict[str, float]]] = []
    while not traced or time.perf_counter() < deadline:
        plain.append(session.run_pass(jobs)[0])
        wall, results = session.run_pass(jobs, traced=True)
        traced.append((wall, layers.pass_metrics(
            [layers.job_metrics(r.trace, r.speed) for r in results if r.trace is not None])))
    print(f"{len(plain)} plain and {len(traced)} traced passes of {len(jobs)} jobs")
    first = traced[0][1]
    out = {}
    for name in layers.METRICS:
        if layers.is_count(name):
            value = first[name]
            out[name] = int(value) if float(value).is_integer() else value
        else:
            out[name] = statistics.median(m[name] for _, m in traced)
    out["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                               - statistics.median(plain))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wpvol" / "cli.py").is_file():
        print(f"error: no wpvol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # one job at a time, all on one core, so that the probe gauges that core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    jobs = job_list(args.workload, args.seed)
    work_root = ROOT / ".wpbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        session = Session(ROOT, workdir, WORKLOADS[args.workload])
        print(f"workload {args.workload}, seed {args.seed}: "
              + "; ".join(job_key(j) for j in jobs))
        session.prepare()
        if args.trace:
            values = per_layer(session, jobs, args.seconds)
            units = layers.METRICS
        else:
            values = end_to_end(session, jobs, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in values.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'error_rate':32s} {session.failed / session.attempted:14.6g} ratio "
          f"({session.failed} of {session.attempted} jobs)")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
