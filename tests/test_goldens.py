"""Every benchmark job prints its golden bytes, run in-process; one job of each
workload also does as a `python -m wpvol.cli` process, the way the benchmark
runs it, so the program entry and its exit are covered too."""

import shutil

import pytest

from wpbench.jobs import (BENCH_DIR, WORKLOADS, all_jobs, check, digest, job_key, load_goldens,
                          run_job)
from wpvol.cli import EXIT_OK, main

GOLDENS = load_goldens()


@pytest.mark.parametrize("job", all_jobs(), ids=job_key)
def test_job_prints_its_golden_bytes(capsys, job):
    code = main(list(job))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert digest(out.encode()) == GOLDENS[job_key(job)]


@pytest.fixture(scope="module")
def prewarmed(tmp_path_factory):
    """The cache-reuse workload's shared file, filled by its warm jobs."""
    path = tmp_path_factory.mktemp("cache") / "warm.txt"
    for job in WORKLOADS["cache-reuse"].warm:
        assert main([*job, "--cache", str(path)]) == EXIT_OK
    return path


def test_prewarmed_file_holds_only_core_lines(prewarmed):
    lines = prewarmed.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 121
    for line in lines:
        g, ds, _ = line.split("|")
        assert int(g) >= 1 and min(map(int, ds.split(","))) >= 2, line


@pytest.mark.parametrize("job", sorted({job for slot in WORKLOADS["cache-reuse"].slots
                                        for job in slot}), ids=job_key)
def test_cached_job_prints_its_golden_bytes_warm(capsys, tmp_path, prewarmed, job):
    path = tmp_path / "cache.txt"
    shutil.copyfile(prewarmed, path)
    code = main([*job, "--cache", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert digest(out.encode()) == GOLDENS[job_key(job)]


@pytest.fixture
def without_bytecode(monkeypatch):
    """Each job compiles the modules it imports, as on the benchmark's machine."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS.values() if not w.uses_cache])
def test_job_prints_its_golden_bytes_as_a_process(tmp_path, without_bytecode, workload):
    job = WORKLOADS[workload].slots[0][0]
    result = run_job(job, BENCH_DIR.parent, tmp_path)
    assert result.returncode == EXIT_OK
    assert check(result, GOLDENS)


def test_cached_job_prints_its_golden_bytes_as_a_process(tmp_path, without_bytecode, prewarmed):
    job = WORKLOADS["cache-reuse"].slots[0][0]
    path = tmp_path / "cache.txt"
    shutil.copyfile(prewarmed, path)
    result = run_job(job, BENCH_DIR.parent, tmp_path, cache=path)
    assert result.returncode == EXIT_OK
    assert check(result, GOLDENS)
