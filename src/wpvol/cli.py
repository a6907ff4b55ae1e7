"""Command-line front end: correlators, volumes, series, verification, growth fits.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error
or an inconsistent cache, 130 interrupted (128 + SIGINT).  An input too large
to evaluate (a MemoryError, or a RecursionError) is reported as one `error:`
line with exit code 2, never as a traceback; an interrupt prints
`error: interrupted` and leaves the cache file as it was, and so do a
cache whose values contradict the recursion and a failed verification.
All output is deterministic: identical invocations print identical bytes,
whatever the state of the optional correlator cache.

Each command imports, and so compiles, only what it runs, inside its handler:
`tau` needs the correlator engine alone, `volume --n` adds the kappa-to-tau
sum, only the series commands load the series modules, only `--digits` loads
`wpvol.digits` (which rounds from integer enclosures of pi) and only `verify`
loads the suites in `wpvol.verify`.  `_json` writes the few value shapes the
commands print with `json.dumps`' bytes, so no command loads `json`.  Exact
values arrive as reduced int pairs, from the correlators and the series
alike, and `format_rational` is the one renderer of them, so no command
builds a `Fraction` or loads `fractions`, and only `asympt` loads `decimal`.
No command imports a third-party module.  There is no argparse: `parse_args`
reads the options from `COMMANDS`, which also holds each int option's least
value.  The library returns exact values and only this module renders them:
`volume` each record from one field dict as plain text, JSON or CSV, `verify`
each report, `asympt` its decimals.

`main(argv)` returns the exit code and never freezes the heap, so tests and
library callers run it in process.  `python -m wpvol.cli` and the `wpvol`
script enter through `run()`: `main` on sys.argv, then `gc.freeze()` and an
orderly exit (atexit handlers run, stdout and stderr are flushed) whose final
collections skip the heap the OS is about to reclaim.  `main` flushes stdout
before the cache is saved, so a reader that closes the pipe early
(`wpvol ... | head`) gets exit 3 and one `error:` line, and the cache file is
left as it was.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import List, NoReturn, Optional

from .taucalc import (CacheFormatError, InconsistentMemoError, TauCalculator, factorial,
                      format_rational, load_cache, reduced, save_cache)

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


_GENUS = (0, True, None, "the genus g")
_CACHE = (str, False, None, "load the correlator memo from CACHE if present and save its core "
                            "back after a successful run that added entries (or created CACHE)")

#: command -> (help, {option: (kind, required, default, help)}, the options of which
#: exactly one must be given); the kind is str, a tuple of a string's choices, or the
#: least value of an int option
COMMANDS = {
    "tau": ("one tau-correlator", {
        "--genus": _GENUS, "--ds": (str, True, None, "comma-separated tau indices, '-' for none"),
        "--format": (("plain", "json"), False, "plain", "output format"), "--cache": _CACHE}, ()),
    "volume": ("V_{g,n} records", {
        "--genus": _GENUS, "--n": (0, False, None, "the number of points (or give --table)"),
        "--table": (0, False, None, "print records for n = 0..TABLE instead of a single n"),
        "--format": (("plain", "json", "csv"), False, "plain", "output format"),
        "--digits": (1, False, None, "also print v * pi^(2 dim) to this many significant digits"),
        "--cache": _CACHE}, ("--n", "--table")),
    "series": ("generating series phi_g", {
        "--phi": _GENUS, "--order": (0, True, None, "print the coefficients of x^0..x^ORDER"),
        "--format": (("plain", "json"), False, "json", "output format"), "--cache": _CACHE}, ()),
    "verify": ("run the exact verification suites", {
        "--suite": (SUITES, True, None, "the checks to run"), "--genus": _GENUS,
        "--order": (0, True, None, "the series order"), "--cache": _CACHE}, ()),
    "asympt": ("growth-law fit against the Bessel prediction", {
        "--genus": _GENUS, "--n-max": (1, True, None, "upper end of the fit window"),
        "--n-min": (1, False, None, "lower end of the fit window (default: n_max // 2)"),
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
    None after printing the help for -h/--help; a usage error raises ValueError.  The
    value an int option ends up with (a repeated option keeps its last) is checked
    against its least value."""
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
            [n for n in (*options, "--help") if name[:2] == "--" != name and n.startswith(name)]
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
            values[name] = value = int(value) if isinstance(kind, int) else value
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
    for name, (kind, *_) in options.items():
        if isinstance(kind, int) and values.get(name, kind) < kind:
            raise ValueError(f"{name} must be >= {kind}")
    return SimpleNamespace(command=command, **{name[2:].replace("-", "_"): values.get(name, opt[2])
                                               for name, opt in options.items()})


def _json(value) -> str:
    """json.dumps(value) with its default separators, for the shapes the commands print:
    dicts with str keys, lists, str, int, True, False and None.  A str is written as it is,
    so one that JSON would escape raises ValueError; any other type raises TypeError."""
    if type(value) is str:
        if not (value.isascii() and value.isprintable()) or '"' in value or "\\" in value:
            raise ValueError(f"the JSON writer writes no escapes: {value!r}")
        return f'"{value}"'
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if type(value) is int:
        return str(value)
    if type(value) is list:
        return "[" + ", ".join(map(_json, value)) + "]"
    if type(value) is dict and all(type(key) is str for key in value):
        return "{" + ", ".join(f"{_json(key)}: {_json(item)}" for key, item in value.items()) + "}"
    raise TypeError(f"no command prints {type(value).__name__} {value!r} as JSON")


def _cmd_tau(args, calc: TauCalculator) -> int:
    ds = _parse_indices(args.ds)
    value = format_rational(*calc.tau_batch(args.genus, ((d, 1) for d in ds)))
    if args.format == "json":
        print(_json({"g": args.genus, "ds": sorted(ds, reverse=True), "value": value}))
    else:
        print(value)
    return EXIT_OK


def _cmd_volume(args, calc: TauCalculator) -> int:
    if args.digits is not None and args.format == "csv":
        raise ValueError("--digits has no column in --format csv")
    if args.table is not None:
        from .genexp import volume_series
        from .kappavol import VolumeRecord
        records = [VolumeRecord(args.genus, n, p, q)
                   for n, (p, q) in enumerate(volume_series(args.genus, args.table, calc))]
    else:
        from .kappavol import volume
        records = [volume(args.genus, args.n, calc)]
    if args.digits:
        from .digits import wp_volume
    rows = []  # each record's ordered fields, rendered in the chosen format
    for rec in records:
        big_v = reduced(rec.p * factorial(rec.n) * factorial(rec.dim), rec.q) if rec.p else (0, 1)
        fields = {"g": rec.g, "n": rec.n, "dim": rec.dim, "V": format_rational(*big_v),
                  "v": format_rational(rec.p, rec.q)}
        power = 2 * rec.dim
        wp = args.digits and wp_volume(rec.p, rec.q, power, args.digits)
        if args.format == "csv":
            rows.append(",".join(map(str, fields.values())))
        elif args.format == "json":
            fields["pi_power"] = power
            if wp:
                fields["wp_volume"] = wp
            rows.append(fields)
        else:
            rows.append(" ".join(f"{key}={value}" for key, value in fields.items())
                        + (f" wp_volume={wp} (v*pi^{power})" if wp else ""))
    if args.format == "json":
        print(_json(rows if args.table is not None else rows[0]))
        return EXIT_OK
    if args.format == "csv":
        rows.insert(0, ",".join(fields))  # the header names the fields
    print("\n".join(rows))
    return EXIT_OK


def _cmd_series(args, calc: TauCalculator) -> int:
    from .genexp import volume_series
    coeffs = volume_series(args.phi, args.order, calc)
    if args.format == "plain":
        for k, coeff in enumerate(coeffs):
            print(f"x^{k}: {format_rational(*coeff)}")
    else:
        print(_json({"order": args.order, "coeffs": [format_rational(*c) for c in coeffs]}))
    return EXIT_OK


def _cmd_verify(args, calc: TauCalculator) -> int:
    from .verify import verify_reports
    reports = verify_reports(args.suite, args.genus, args.order, calc)
    for report in reports:
        mismatch = None
        if report.mismatch:
            power, lhs, rhs = report.mismatch
            mismatch = {"power": power, "lhs": format_rational(*lhs),
                        "rhs": format_rational(*rhs)}
        print(_json({"check": report.check, **report.fields, "pass": report.passed,
                     "first_mismatch": mismatch}))
    return EXIT_OK if all(report.passed for report in reports) else EXIT_VERIFY_FAILED


def _cmd_asympt(args, calc: TauCalculator) -> int:
    from decimal import Context, localcontext
    from .asympt import PRECISION, fit_growth, predicted_growth_constant
    n_min = args.n_min if args.n_min is not None else args.n_max // 2
    c_est, exponent = fit_growth(args.genus, n_min, args.n_max, calc)
    predicted = predicted_growth_constant()
    with localcontext(Context(prec=PRECISION)):
        rel_dev = abs(c_est - predicted) / predicted
    round10 = Context(prec=10).create_decimal  # every decimal prints at 10 significant digits
    print(_json({"g": args.genus, "C_est": str(round10(c_est)),
                 "exponent_est": str(round10(exponent)), "predicted_C": str(round10(predicted)),
                 "rel_dev": str(round10(rel_dev)), "n_range": [n_min, args.n_max]}))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    digit_limit = sys.get_int_max_str_digits()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        sys.set_int_max_str_digits(0)  # exact values print and load at any length
        code = EXIT_OK if args is None else _run(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's final flush
        return code
    except BrokenPipeError:  # the reader closed stdout before the output was written
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the interpreter's final flush cannot fail
        try:
            print("error: stdout was closed before the output was written", file=sys.stderr)
        except BrokenPipeError:  # stderr goes to the same pipe (`2>&1 | head`)
            os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
        return EXIT_IO
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
        sys.stdout.flush()  # a closed pipe fails the run before the cache is saved
        try:
            save_cache(calc.store, cache_path)
        except OSError as exc:
            print(f"error: saving cache failed: {exc}", file=sys.stderr)
            return EXIT_IO
    return code


def run() -> NoReturn:
    """The program entry: `main` on sys.argv, then exit without collecting the heap."""
    code = main()
    gc.freeze()  # the finalizer's collections skip every object alive now
    sys.exit(code)


if __name__ == "__main__":
    run()
