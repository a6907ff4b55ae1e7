"""Every benchmark job prints its golden bytes, run in-process."""

import pytest

from wpbench.jobs import all_jobs, digest, job_key, load_goldens
from wpvol.cli import EXIT_OK, main

GOLDENS = load_goldens()


@pytest.mark.parametrize("job", all_jobs(), ids=job_key)
def test_job_prints_its_golden_bytes(capsys, job):
    code = main(list(job))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert digest(out.encode()) == GOLDENS[job_key(job)]
