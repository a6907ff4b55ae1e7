"""Every benchmark job prints its golden bytes, run in-process."""

import shutil

import pytest

from wpbench.jobs import WORKLOADS, all_jobs, digest, job_key, load_goldens
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
