"""Workloads, the seeded job generator, and running and checking one CLI job.

A job is the argument list of one `wpvol` invocation, without `--cache`.
Each workload is a list of slots; a slot holds variants of one job that cost
the same (another output format, fit window, or memo-hit point count), so
every seed draws a job list of nearly the same cost.  The seed picks one
variant per slot and the order of the slots.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

Job = Tuple[str, ...]

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS_PATH = BENCH_DIR / "goldens.json"
TRACED_CLI = BENCH_DIR / "traced_cli.py"
SPAWN = BENCH_DIR / "spawn.py"

#: the no-op whose latency is `setup_s`: interpreter start, import, cache load
NOOP: Job = ("tau", "--genus", "0", "--ds", "0,0,0")

#: a job that runs longer than this is killed and counted as failed
JOB_TIMEOUT_S = 60.0


def _volume_variants(g: int, ns: Sequence[int], how: str = "--n") -> List[Job]:
    return [("volume", "--genus", str(g), how, str(n), "--format", fmt)
            for n in ns for fmt in ("plain", "json", "csv")]


def _series_variants(g: int, orders: Sequence[int]) -> List[Job]:
    return [("series", "--phi", str(g), "--order", str(o), "--format", fmt)
            for o in orders for fmt in ("json", "plain")]


def _verify_variants(suite: str, g: int, orders: Sequence[int]) -> List[Job]:
    return [("verify", "--suite", suite, "--genus", str(g), "--order", str(o)) for o in orders]


def _asympt_variants(g: int, n_max: int, n_mins: Sequence[int]) -> List[Job]:
    # the fit window moves, the volumes computed (0..n_max) stay the same
    return [("asympt", "--genus", str(g), "--n-max", str(n_max), "--n-min", str(m))
            for m in n_mins]


@dataclass(frozen=True)
class Workload:
    name: str
    slots: Tuple[Tuple[Job, ...], ...]
    uses_cache: bool = False
    #: jobs that fill the shared cache before anything is timed
    warm: Tuple[Job, ...] = ()


def _workload(name, slots, **kw) -> Workload:
    return Workload(name, tuple(tuple(s) for s in slots), **kw)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # genus 0 with many points (string/dilaton-heavy) down to genus 5-6 with
    # few points (DVV-split-heavy); the correlator engine does nearly all work
    _workload("kappa-volumes", [
        _volume_variants(0, (24,), "--table"),
        _volume_variants(0, (22,)),
        _volume_variants(2, (15,)),
        _volume_variants(3, (10,)),
        _volume_variants(4, (6,)),
        _volume_variants(5, (2,)),
        _volume_variants(6, (0,)),
    ]),
    # series kernels (revert, compose, mul, pow, reciprocal); only a few
    # hundred correlators are needed
    _workload("genus-series", [
        _series_variants(0, (64,)),
        _series_variants(0, (52,)),
        _series_variants(0, (40,)),
        _series_variants(2, (20,)),
        _series_variants(3, (16,)),
        _series_variants(4, (12,)),
        _verify_variants("lemma", 3, (11, 12)),
        _verify_variants("lemma", 4, (9, 10)),
    ]),
    # the paper's cross-check: both routes, every module
    _workload("verify-both-routes", [
        _verify_variants("all", 2, (6,)),
        _verify_variants("all", 2, (10,)),
        _verify_variants("all", 3, (6,)),
        _verify_variants("all", 4, (4,)),
        _asympt_variants(0, 20, (8, 9, 10)),
        _asympt_variants(2, 13, (5, 6, 7)),
    ]),
    # one shared, pre-warmed cache file: four slots are pure memo hits, two
    # add keys, so every job loads the file and rewrites it in full
    _workload("cache-reuse", [
        _volume_variants(0, (24, 25)),
        _volume_variants(2, (15, 16)),
        _series_variants(2, (16,)),
        _verify_variants("theorem1", 2, (9, 10)),
        _volume_variants(3, (6,)),
        _volume_variants(4, (3,)),
    ], uses_cache=True, warm=(
        ("volume", "--genus", "0", "--n", "25"),
        ("volume", "--genus", "5", "--n", "1"),
        ("volume", "--genus", "2", "--n", "16"),
    )),
)}


def job_list(workload: str, seed: int) -> List[Job]:
    """The seeded job list of one workload: one variant per slot, shuffled."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    jobs = [rng.choice(slot) for slot in w.slots]
    rng.shuffle(jobs)
    return jobs


def all_jobs() -> List[Job]:
    """Every job any workload can run, each once, in a fixed order."""
    seen: Dict[Job, None] = {NOOP: None}
    for w in WORKLOADS.values():
        for job in w.warm:
            seen[job] = None
        for slot in w.slots:
            for job in slot:
                seen[job] = None
    return list(seen)


def job_key(job: Job) -> str:
    return " ".join(job)


def load_goldens(path: Path = GOLDENS_PATH) -> Dict[str, str]:
    """Job key -> sha256 of its correct stdout."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["sha256"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class JobResult:
    job: Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    ok: bool = False
    #: reference-speed seconds per measured second, from the speed probe
    speed: float = 1.0
    #: spans and counters of a traced job, as written by traced_cli.py
    trace: Optional[dict] = None

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s * self.speed


def job_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_job(job: Job, root: Path, workdir: Path, cache: Optional[Path] = None,
            traced: bool = False, prefix: Optional[List[str]] = None) -> JobResult:
    """Run one job in a fresh process, through spawn.py, and wait for it.

    Wall time spans fork to reaped exit; CPU time and max RSS are the job's
    own resource usage.  `prefix` replaces the program to run, for tests.
    """
    argv = list(job)
    if cache is not None:
        argv += ["--cache", str(cache)]
    trace_path = workdir / "trace.json"
    if prefix is not None:
        cmd = prefix + argv
    elif traced:
        trace_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(TRACED_CLI), str(trace_path), "spawn time"] + argv
    else:
        cmd = [sys.executable, "-m", "wpvol.cli"] + argv
    files = [workdir / name for name in ("result.txt", "stdout.txt", "stderr.txt")]
    for f in files:
        f.unlink(missing_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-S", str(SPAWN)] + [str(f) for f in files] + cmd,
                            cwd=str(root), env=job_env(root), start_new_session=True)
    try:
        proc.wait(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    try:
        code, wall, cpu, rss_kb = files[0].read_text().split()
    except FileNotFoundError:  # killed, or the spawner failed
        code, wall, cpu, rss_kb = -1, time.perf_counter() - t0, 0.0, 0
    stdout = files[1].read_bytes() if files[1].exists() else b""
    result = JobResult(job, float(wall), float(cpu), int(rss_kb) / 1024.0, int(code), stdout)
    if traced and result.returncode == 0:
        with open(trace_path, encoding="utf-8") as fh:
            result.trace = json.load(fh)
    return result


def check(result: JobResult, goldens: Dict[str, str]) -> bool:
    """A job is correct when it exits 0 and prints exactly the golden bytes."""
    expected = goldens.get(job_key(result.job))
    result.ok = (result.returncode == 0 and expected is not None
                 and digest(result.stdout) == expected)
    return result.ok
