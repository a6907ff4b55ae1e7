"""Command-line front end: correlators, volumes, series, verification, growth fits.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error
or an inconsistent cache, 130 interrupted (128 + SIGINT).  An input too large
to evaluate (a MemoryError, or a RecursionError) is reported as one `error:`
line with exit code 2, never as a traceback; an interrupt prints
`error: interrupted` and leaves the cache file as it was, and so do a
cache whose values contradict the recursion and a failed verification.
All output is deterministic: identical invocations print identical bytes,
whatever the state of the optional correlator cache.

Each command imports only the modules it runs, inside its handler: `tau`
needs the correlator engine alone, `volume --n` adds the kappa-to-tau sum,
and only the series commands load the series modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .taucalc import (CacheFormatError, InconsistentMemoError, TauCalculator, format_rational,
                      load_cache, save_cache)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130

SUITES = ("lemma", "theorem1", "derivative", "induction", "all")


def _parse_indices(text: str) -> List[int]:
    text = text.strip()
    if text in ("", "-"):
        return []
    try:
        ds = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--ds expects comma-separated integers, got {text!r}") from None
    return ds


def _add_cache_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cache", metavar="PATH",
                     help="load the correlator memo from PATH if present and save its core "
                          "back after a successful run that added entries (or created PATH)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpvol",
        description="Exact Weil-Petersson volumes of moduli spaces and their "
                    "generating series, verified two independent ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tau = sub.add_parser("tau", help="one tau-correlator")
    p_tau.add_argument("--genus", type=int, required=True)
    p_tau.add_argument("--ds", required=True,
                       help="comma-separated tau indices, '-' for none")
    p_tau.add_argument("--format", choices=("plain", "json"), default="plain")
    _add_cache_option(p_tau)
    p_tau.set_defaults(handler=_cmd_tau)

    p_vol = sub.add_parser("volume", help="V_{g,n} records")
    p_vol.add_argument("--genus", type=int, required=True)
    mode = p_vol.add_mutually_exclusive_group(required=True)
    mode.add_argument("--n", type=int)
    mode.add_argument("--table", type=int, metavar="N_MAX",
                      help="print records for n = 0..N_MAX instead of a single n")
    p_vol.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_vol.add_argument("--digits", type=int,
                       help="also render v * pi^(2 dim) to this many significant digits")
    _add_cache_option(p_vol)
    p_vol.set_defaults(handler=_cmd_volume)

    p_ser = sub.add_parser("series", help="generating series phi_g")
    p_ser.add_argument("--phi", type=int, required=True, metavar="G")
    p_ser.add_argument("--order", type=int, required=True)
    p_ser.add_argument("--format", choices=("plain", "json"), default="json")
    _add_cache_option(p_ser)
    p_ser.set_defaults(handler=_cmd_series)

    p_ver = sub.add_parser("verify", help="run the exact verification suites")
    p_ver.add_argument("--suite", choices=SUITES, required=True)
    p_ver.add_argument("--genus", type=int, required=True)
    p_ver.add_argument("--order", type=int, required=True)
    _add_cache_option(p_ver)
    p_ver.set_defaults(handler=_cmd_verify)

    p_asy = sub.add_parser("asympt", help="growth-law fit against the Bessel prediction")
    p_asy.add_argument("--genus", type=int, required=True)
    p_asy.add_argument("--n-max", type=int, required=True)
    p_asy.add_argument("--n-min", type=int,
                       help="lower end of the fit window (default: n_max // 2)")
    _add_cache_option(p_asy)
    p_asy.set_defaults(handler=_cmd_asympt)

    return parser


def _cmd_tau(args, calc: TauCalculator) -> int:
    ds = _parse_indices(args.ds)
    value = calc.tau(args.genus, ds)
    if args.format == "json":
        key_ds = sorted(ds, reverse=True)
        print(json.dumps({"g": args.genus, "ds": key_ds, "value": format_rational(value)}))
    else:
        print(format_rational(value))
    return EXIT_OK


def _volume_json(rec, digits):
    data = rec.to_json_dict()
    if digits:
        data["wp_volume"] = rec.wp_volume(digits)
    return data


def _volume_plain(rec, digits):
    line = (f"g={rec.g} n={rec.n} dim={rec.dim} "
            f"V={format_rational(rec.V)} v={format_rational(rec.v)}")
    if digits:
        line += f" wp_volume={rec.wp_volume(digits)} (v*pi^{rec.pi_power})"
    return line


def _cmd_volume(args, calc: TauCalculator) -> int:
    if args.digits is not None and args.digits < 1:
        raise ValueError("--digits must be >= 1")
    if args.digits is not None and args.format == "csv":
        raise ValueError("--digits has no column in --format csv")
    if args.table is not None:
        if args.table < 0:
            raise ValueError("--table must be >= 0")
        from .genexp import volume_table
        records = volume_table(args.genus, args.table, calc)
    else:
        from .kappavol import volume
        records = [volume(args.genus, args.n, calc)]
    if args.format == "csv":
        print("g,n,dim,V,v")
        for rec in records:
            print(rec.csv_row())
    elif args.format == "json":
        payload = [_volume_json(rec, args.digits) for rec in records]
        print(json.dumps(payload if args.table is not None else payload[0]))
    else:
        for rec in records:
            print(_volume_plain(rec, args.digits))
    return EXIT_OK


def _cmd_series(args, calc: TauCalculator) -> int:
    g, order = args.phi, args.order
    if g < 0 or order < 1:
        raise ValueError("--phi needs genus >= 0 and --order >= 1")
    if g == 1:
        raise ValueError("series --phi takes genus 0 or >= 2; the genus 1 volumes "
                         "come from `volume --genus 1`")
    from .genexp import volume_series
    from .qseries import Series
    phi = Series(volume_series(g, order, calc))
    if args.format == "plain":
        for k, coeff in enumerate(phi.coeffs):
            print(f"x^{k}: {format_rational(coeff)}")
    else:
        print(json.dumps(phi.to_json_dict()))
    return EXIT_OK


def _cmd_verify(args, calc: TauCalculator) -> int:
    from .genexp import verify_reports
    reports = verify_reports(args.suite, args.genus, args.order, calc)
    all_passed = True
    for report in reports:
        print(json.dumps(report.to_json_dict()))
        all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _cmd_asympt(args, calc: TauCalculator) -> int:
    from .asympt import fit_growth, predicted_growth_constant
    n_max = args.n_max
    n_min = args.n_min if args.n_min is not None else n_max // 2
    fit = fit_growth(args.genus, n_min, n_max, calc)
    print(json.dumps(fit.to_json_dict(predicted_growth_constant())))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact values print and load at any length
    try:
        return _run(args)
    except KeyboardInterrupt:  # during the cache load, the command or the save
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        sys.set_int_max_str_digits(digit_limit)


def _run(args) -> int:
    cache_path = getattr(args, "cache", None)
    cache_existed = bool(cache_path) and os.path.exists(cache_path)
    store = None
    if cache_existed:
        try:
            store = load_cache(cache_path)
        except (OSError, CacheFormatError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    calc = TauCalculator(store)
    loaded = len(calc.store.entries)  # the memo only grows, so equal size means unchanged

    try:
        code = args.handler(args, calc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too deep or too large to evaluate ({type(exc).__name__})",
              file=sys.stderr)
        return EXIT_USAGE
    except InconsistentMemoError as exc:  # a loaded cache value is wrong
        print(f"error: inconsistent cache: {exc}", file=sys.stderr)
        return EXIT_IO

    if code == EXIT_OK and cache_path and (not cache_existed or len(calc.store.entries) != loaded):
        try:
            save_cache(calc.store, cache_path)
        except OSError as exc:
            print(f"error: saving cache failed: {exc}", file=sys.stderr)
            return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
