"""Tests of the benchmark itself: generator, output check, self time, trace counts."""

import sys

import pytest

from wpbench import layers, run
from wpbench.jobs import NOOP, WORKLOADS, Workload, all_jobs, job_key, job_list, load_goldens


def test_job_lists_are_seeded_and_covered_by_goldens():
    goldens = load_goldens()
    assert {job_key(j) for j in all_jobs()} <= set(goldens)
    for name, w in WORKLOADS.items():
        lists = [job_list(name, seed) for seed in range(20)]
        assert lists == [job_list(name, seed) for seed in range(20)]
        assert len({tuple(jobs) for jobs in lists}) > 1
        for jobs in lists:
            used = sorted(next(i for i, slot in enumerate(w.slots) if job in slot) for job in jobs)
            assert used == list(range(len(w.slots)))


CORRUPT = ("import subprocess, sys;"
           "out = subprocess.run([sys.executable, '-m', 'wpvol.cli'] + sys.argv[1:],"
           " capture_output=True).stdout;"
           "sys.stdout.buffer.write(out.replace(b'1', b'7', 1))")


def test_corrupted_output_counts_as_failed(tmp_path):
    honest = run.Session(run.ROOT, tmp_path, WORKLOADS["kappa-volumes"])
    assert honest.run(NOOP).ok
    corrupt = run.Session(run.ROOT, tmp_path, WORKLOADS["kappa-volumes"],
                          prefix=[sys.executable, "-c", CORRUPT])
    result = corrupt.run(NOOP)
    assert result.returncode == 0 and not result.ok
    assert (honest.failed, corrupt.failed, corrupt.attempted) == (0, 1, 1)


def test_self_time_is_span_minus_child_coverage():
    spans = [
        ["cli.main", 0.0, 10.0, None],
        ["kappavol.volume", 1.0, 3.0, 0],
        ["taucalc.tau_batch", 1.5, 2.5, 1],
        ["qseries.mul", 2.0, 5.0, 0],      # overlaps the first child
        ["asympt.fit", 7.0, 8.0, 0],
    ]
    assert layers.self_times(spans) == pytest.approx([5.0, 1.0, 1.0, 3.0, 1.0])
    trace = {"spans": spans, "counters": {}, "t_spawn": 0.0, "t_imported": 0.1}
    m = layers.job_metrics(trace)
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["qseries.mul.s"] == pytest.approx(3.0) and m["qseries.mul.calls"] == 1
    assert m["asympt.fit_s"] == pytest.approx(1.0)


# a small cached session and a small cold one, cheap enough for the test suite
SMALL_CACHED = Workload("small-cached", (
    (("series", "--phi", "2", "--order", "16", "--format", "json"),),
    (("volume", "--genus", "3", "--n", "6", "--format", "plain"),),
    (("verify", "--suite", "lemma", "--genus", "4", "--order", "9"),),
), uses_cache=True, warm=(("volume", "--genus", "4", "--n", "3", "--format", "csv"),))
SMALL_COLD = Workload("small-cold", (
    (("volume", "--genus", "4", "--n", "3", "--format", "json"),),
))


def _traced_pass(tmp_path, workload, name):
    workdir = tmp_path / name
    workdir.mkdir()
    session = run.Session(run.ROOT, workdir, workload)
    session.prepare()
    jobs = [slot[0] for slot in workload.slots]
    _, results = session.run_pass(jobs, traced=True)
    assert session.failed == 0
    return layers.pass_metrics([layers.job_metrics(r.trace, r.speed) for r in results])


def test_trace_counts_repeat_exactly(tmp_path):
    first = _traced_pass(tmp_path, SMALL_CACHED, "a")
    second = _traced_pass(tmp_path, SMALL_CACHED, "b")
    counts = [name for name in layers.METRICS if layers.is_count(name)]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["taucalc.cache.entries_loaded"] > 0 and first["taucalc.cache.new_entries"] > 0
    assert first["taucalc.cache.load_s"] > 0 and first["qseries.mul.calls"] > 0
    assert first["genexp.checks"] > 0 and first["genexp.checks_failed"] == 0

    cold = _traced_pass(tmp_path, SMALL_COLD, "c")
    assert all(cold[f"qseries.{op}.calls"] == 0 for op in layers.QSERIES_OPS)
    assert cold["taucalc.cache.load_s"] == 0 and cold["taucalc.cache.save_s"] == 0
    assert cold["kappavol.volume_calls"] == 1 and cold["taucalc.keys.dvv"] > 0


def test_goldens_reject_an_output_the_other_route_contradicts():
    from wpbench import make_goldens
    from wpvol.qseries import format_rational

    routes = make_goldens.Routes()
    job = ("volume", "--genus", "2", "--n", "1", "--format", "plain")
    v = routes.v(2, 1)
    line = "g=2 n=1 dim=4 V={} v={}\n"
    make_goldens.check_volume(job, line.format(format_rational(v * 24), format_rational(v)), routes)
    with pytest.raises(make_goldens.GoldenError):
        make_goldens.check_volume(job, line.format(format_rational(v * 48), format_rational(v * 2)),
                                  routes)
