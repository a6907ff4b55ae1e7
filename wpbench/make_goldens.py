"""Write goldens.json: the sha256 of the correct stdout of every benchmark job.

    python3 wpbench/make_goldens.py

Each job is run through the CLI once, and its output is accepted only after
a check by the route the job does not use:

- `volume` records against the series coefficients [x^n] phi_0 (Lagrange
  inversion of the Bessel series) or [x^n] phi_g (closed genus form);
- `series --phi 0` against the double antiderivative of `revert_lagrange`,
  and `series --phi g` against the kappa-to-tau volumes v_{g,n};
- `verify` reports must all pass;
- `asympt` against mpmath: C from the first zero of J0, and the growth fit
  redone at 50 digits on volumes from the series route.

The benchmark then compares hashes only, so at run time no reference value
comes from the code under test.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from wpbench.jobs import (  # noqa: E402
    BENCH_DIR, GOLDENS_PATH, NOOP, Job, all_jobs, digest, job_env, job_key,
)

ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402

from wpvol.genexp import GenusExpansionContext, build_phi_g  # noqa: E402
from wpvol.kappavol import volume  # noqa: E402
from wpvol.qseries import bessel_x_of_y, factorial, parse_rational, revert_lagrange  # noqa: E402
from wpvol.taucalc import TauCalculator  # noqa: E402


class GoldenError(Exception):
    pass


def expect(condition, what) -> None:
    if not condition:
        raise GoldenError(what)


class Routes:
    """The reference values, each from the route the checked job does not use."""

    def __init__(self):
        self.calc = TauCalculator()
        self._series = {}

    def series(self, g: int, order: int) -> list:
        """[x^0..x^order] of phi_g, g = 0 by Lagrange inversion."""
        have = self._series.get(g)
        if have is None or len(have) <= order:
            top = max(order, 8)
            if g == 0:
                y = revert_lagrange(bessel_x_of_y(top))
                coeffs = list(y.antiderivative(0).antiderivative(0).coeffs)
            else:
                ctx = GenusExpansionContext(order=top, i_max=3 * g - 2)
                coeffs = list(build_phi_g(g, ctx, self.calc).coeffs)
            self._series[g] = have = coeffs
        return have[: order + 1]

    def v(self, g: int, n: int) -> Fraction:
        if g == 1:
            raise ValueError("no series route for genus 1")
        return self.series(g, n)[n]

    def volume_v(self, g: int, n: int) -> Fraction:
        return volume(g, n, self.calc).v


def _records(job: Job, text: str) -> list:
    """(g, n, dim, V, v) of every volume record printed by a `volume` job."""
    fmt = job[job.index("--format") + 1] if "--format" in job else "plain"
    lines = text.splitlines()
    if fmt == "json":
        data = json.loads(text)
        rows = data if isinstance(data, list) else [data]
        return [(r["g"], r["n"], r["dim"], parse_rational(r["V"]), parse_rational(r["v"]))
                for r in rows]
    if fmt == "csv":
        expect(lines[0] == "g,n,dim,V,v", lines[0])
        out = []
        for line in lines[1:]:
            g, n, dim, big_v, v = line.split(",")
            out.append((int(g), int(n), int(dim), parse_rational(big_v), parse_rational(v)))
        return out
    out = []
    for line in lines:
        fields = dict(part.split("=", 1) for part in line.split())
        out.append((int(fields["g"]), int(fields["n"]), int(fields["dim"]),
                    parse_rational(fields["V"]), parse_rational(fields["v"])))
    return out


def _arg(job: Job, flag: str) -> int:
    return int(job[job.index(flag) + 1])


def check_volume(job: Job, text: str, routes: Routes) -> None:
    g = _arg(job, "--genus")
    ns = list(range(_arg(job, "--table") + 1)) if "--table" in job else [_arg(job, "--n")]
    records = _records(job, text)
    expect([r[1] for r in records] == ns, "wrong record list")
    for rg, n, dim, big_v, v in records:
        expect(rg == g and dim == 3 * g - 3 + n, (rg, n, dim))
        if dim >= 0:
            expect(big_v == v * factorial(n) * factorial(dim), ("V != v n! dim!", n))
        expect(v == routes.v(g, n), ("v differs from the series route", g, n))


def check_series(job: Job, text: str, routes: Routes) -> None:
    g, order = _arg(job, "--phi"), _arg(job, "--order")
    if job[job.index("--format") + 1] == "json":
        data = json.loads(text)
        expect(data["order"] == order, "wrong order")
        coeffs = [parse_rational(c) for c in data["coeffs"]]
    else:
        coeffs = []
        for k, line in enumerate(text.splitlines()):
            head, value = line.split(": ")
            expect(head == f"x^{k}", head)
            coeffs.append(parse_rational(value))
    expect(len(coeffs) == order + 1, "wrong coefficient count")
    if g == 0:
        expected = routes.series(0, order)
    else:
        expected = [routes.volume_v(g, n) for n in range(order + 1)]
    expect(coeffs == expected, "series differs from the other route")


def check_verify(job: Job, text: str, routes: Routes) -> None:
    reports = [json.loads(line) for line in text.splitlines()]
    expect(reports, "no reports")
    for r in reports:
        expect(r["pass"] is True and r["first_mismatch"] is None, r)


def _mp_fit(values, ns):
    """Least squares of log v = n log C + e log n + c, in mpmath."""
    rows = [[mpmath.mpf(n), mpmath.log(n), mpmath.mpf(1)] for n in ns]
    a = mpmath.matrix(rows)
    y = mpmath.matrix([mpmath.log(mpmath.mpf(v.numerator) / v.denominator) for v in values])
    beta = mpmath.lu_solve(a.T * a, a.T * y)
    return mpmath.exp(beta[0]), beta[1]


def _close(text: str, value, rel=mpmath.mpf("1e-8")) -> bool:
    return abs(mpmath.mpf(text) - value) <= rel * abs(value)


def check_asympt(job: Job, text: str, routes: Routes) -> None:
    data = json.loads(text)
    g, n_max = _arg(job, "--genus"), _arg(job, "--n-max")
    n_min = _arg(job, "--n-min") if "--n-min" in job else n_max // 2
    expect(data["g"] == g and data["n_range"] == [n_min, n_max], "wrong genus or window")
    with mpmath.workdps(50):
        j = mpmath.besseljzero(0, 1)
        predicted = 1 / ((j / 2) * mpmath.besselj(1, j))
        ns = list(range(n_min, n_max + 1))
        c_est, e_est = _mp_fit([routes.v(g, n) for n in ns], ns)
        expect(_close(data["predicted_C"], predicted), ("predicted_C", predicted))
        expect(_close(data["C_est"], c_est), ("C_est", c_est))
        expect(_close(data["exponent_est"], e_est), ("exponent_est", e_est))
        dev = abs(c_est - predicted) / predicted
        expect(_close(data["rel_dev"], dev, mpmath.mpf("1e-6")), ("rel_dev", dev))


CHECKERS = {"volume": check_volume, "series": check_series,
            "verify": check_verify, "asympt": check_asympt}


def main() -> int:
    routes = Routes()
    hashes = {}
    for job in all_jobs():
        proc = subprocess.run([sys.executable, "-m", "wpvol.cli", *job], cwd=ROOT,
                              env=job_env(ROOT), capture_output=True, check=False)
        if proc.returncode != 0:
            print(f"{job_key(job)}: exit {proc.returncode}\n{proc.stderr.decode()}",
                  file=sys.stderr)
            return 1
        text = proc.stdout.decode()
        if job == NOOP:
            expect(text == "1\n", text)
        else:
            CHECKERS[job[0]](job, text, routes)
        hashes[job_key(job)] = digest(proc.stdout)
        print(f"ok {job_key(job)}", flush=True)
    with open(GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"about": "sha256 of the stdout of each job, cross-checked by "
                            "wpbench/make_goldens.py", "sha256": hashes},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
