"""Command-line front end: correlators, volumes, series, verification, growth fits.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error
or an inconsistent cache, 130 interrupted (128 + SIGINT).  An input too large
to evaluate (a MemoryError, or a RecursionError) is reported as one `error:`
line with exit code 2, never as a traceback; an interrupt prints
`error: interrupted` and leaves the cache file as it was, and so do a
cache whose values contradict the recursion and a failed verification.
All output is deterministic: identical invocations print identical bytes,
whatever the state of the optional correlator cache.

Each command imports only what it runs, inside its handler: `tau` needs the
correlator engine alone, `volume --n` adds the kappa-to-tau sum, only the
series commands load the series modules, and `json` loads only for JSON
output.  There is no argparse: `parse_args` reads the options from `COMMANDS`.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
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


_GENUS = (int, True, None, "the genus g")
_CACHE = (str, False, None, "load the correlator memo from CACHE if present and save its core "
                            "back after a successful run that added entries (or created CACHE)")

#: command -> (help, {option: (type, required, default, help)}, the options of which
#: exactly one must be given); a tuple for the type lists the choices of a string
COMMANDS = {
    "tau": ("one tau-correlator", {
        "--genus": _GENUS, "--ds": (str, True, None, "comma-separated tau indices, '-' for none"),
        "--format": (("plain", "json"), False, "plain", "output format"), "--cache": _CACHE}, ()),
    "volume": ("V_{g,n} records", {
        "--genus": _GENUS, "--n": (int, False, None, "the number of points (or give --table)"),
        "--table": (int, False, None, "print records for n = 0..TABLE instead of a single n"),
        "--format": (("plain", "json", "csv"), False, "plain", "output format"),
        "--digits": (int, False, None, "also print v * pi^(2 dim) to this many significant digits"),
        "--cache": _CACHE}, ("--n", "--table")),
    "series": ("generating series phi_g", {
        "--phi": _GENUS, "--order": (int, True, None, "the number of coefficients"),
        "--format": (("plain", "json"), False, "json", "output format"), "--cache": _CACHE}, ()),
    "verify": ("run the exact verification suites", {
        "--suite": (SUITES, True, None, "the checks to run"), "--genus": _GENUS,
        "--order": (int, True, None, "the series order"), "--cache": _CACHE}, ()),
    "asympt": ("growth-law fit against the Bessel prediction", {
        "--genus": _GENUS, "--n-max": (int, True, None, "upper end of the fit window"),
        "--n-min": (int, False, None, "lower end of the fit window (default: n_max // 2)"),
        "--cache": _CACHE}, ()),
}


def _help(command: Optional[str]) -> None:
    if command is None:
        about, rows = __doc__.splitlines()[0], [(name, cmd[0]) for name, cmd in COMMANDS.items()]
    else:
        about, options, _ = COMMANDS[command]
        rows = [(name + (" {" + ",".join(kind) + "}" if isinstance(kind, tuple) else
                         " " + name[2:].upper()),
                 text + (" (required)" if required else f" (default: {default})" * bool(default)))
                for name, (kind, required, default, text) in options.items()]
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    sys.stdout.write(f"usage: wpvol {command or 'COMMAND'} [options]\n\n{about}\n\n"  # one write
                     + "".join(f"  {left:<27} {text}".rstrip() + "\n" for left, text in rows))


def parse_args(argv: List[str]) -> Optional[SimpleNamespace]:
    """The command and option values of `argv`, read from `COMMANDS` as argparse would, or
    None after printing the help for -h/--help; a usage error raises ValueError."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return _help(None)
    if command not in COMMANDS:
        raise ValueError(f"argument command: invalid choice: {command!r} (choose from "
                         f"{', '.join(map(repr, COMMANDS))})" if argv else
                         "the following arguments are required: command")
    _, options, one_of = COMMANDS[command]
    rest, values = list(argv[1:]), {}
    while rest:
        token = rest.pop(0)
        name, eq, value = token.partition("=")
        names = [name] if name in options else \
            [n for n in (*options, "--help") if name[:2] == "--" and n.startswith(name)]
        if token == "-h" or names == ["--help"]:
            return _help(command)
        if len(names) != 1:
            raise ValueError(f"ambiguous option: {name} could match {', '.join(names)}"
                             if names else f"unrecognized arguments: {token}")
        name, kind = names[0], options[names[0]][0]
        if not eq:  # a value may start with '-' when it is '-' or a negative number
            if not rest or rest[0][:1] == "-" and rest[0] != "-" and not rest[0][1:].isdecimal():
                raise ValueError(f"argument {name}: expected one argument")
            value = rest.pop(0)
        try:
            values[name] = value = int(value) if kind is int else value
        except ValueError:
            raise ValueError(f"argument {name}: invalid int value: {value!r}") from None
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"argument {name}: invalid choice: {value!r} (choose from "
                             f"{', '.join(map(repr, kind))})")
    missing = [name for name, opt in options.items() if opt[1] and name not in values]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    given = [name for name in one_of if name in values]
    if len(given) != 1 and one_of:
        raise ValueError(f"argument {given[-1]}: not allowed with argument {given[0]}" if given
                         else f"one of the arguments {' '.join(one_of)} is required")
    return SimpleNamespace(command=command, **{name[2:].replace("-", "_"): values.get(name, opt[2])
                                               for name, opt in options.items()})


def _print_json(data) -> None:
    import json  # only the commands that print JSON pay for loading it
    print(json.dumps(data))


def _cmd_tau(args, calc: TauCalculator) -> int:
    ds = _parse_indices(args.ds)
    value = calc.tau(args.genus, ds)
    if args.format == "json":
        key_ds = sorted(ds, reverse=True)
        _print_json({"g": args.genus, "ds": key_ds, "value": format_rational(value)})
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
        _print_json(payload if args.table is not None else payload[0])
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
        _print_json(phi.to_json_dict())
    return EXIT_OK


def _cmd_verify(args, calc: TauCalculator) -> int:
    from .genexp import verify_reports
    reports = verify_reports(args.suite, args.genus, args.order, calc)
    all_passed = True
    for report in reports:
        _print_json(report.to_json_dict())
        all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _cmd_asympt(args, calc: TauCalculator) -> int:
    from .asympt import fit_growth, predicted_growth_constant
    n_max = args.n_max
    n_min = args.n_min if args.n_min is not None else n_max // 2
    fit = fit_growth(args.genus, n_min, n_max, calc)
    _print_json(fit.to_json_dict(predicted_growth_constant()))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    digit_limit = sys.get_int_max_str_digits()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        sys.set_int_max_str_digits(0)  # exact values print and load at any length
        return EXIT_OK if args is None else _run(args)
    except ValueError as exc:  # a usage error, or an input the command rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # during the cache load, the command or the save
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        sys.set_int_max_str_digits(digit_limit)


def _run(args) -> int:
    cache_path = args.cache
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
        code = globals()["_cmd_" + args.command](args, calc)
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
