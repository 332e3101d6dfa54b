"""Command-line front end.

Subcommands: coeff (build/save a coefficient table), bk (RH-criterion
diagnostic data), eval (series evaluation at a point), verify (identity
suites), em-check (Euler-Maclaurin remainder cross-check), decay (power-law
fit data), cache-info (table file inspection).

Each subcommand is one entry of the ``COMMANDS`` table: its help line, its
handler and its arguments as (flag, ``add_argument`` keywords) pairs.  ``run``
builds every subparser from that table and calls the chosen handler, so a
handler has one caller and every command runs through the same dispatch.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
failure (tolerance unmet, or an Euler-Maclaurin tolerance out of reach).
Data goes to --out or stdout; diagnostics go to stderr.  Identical argv and
input files produce byte-identical data output (nothing timestamped is
emitted).

Start-up: ``--help`` and usage errors load argparse and this module, and no
other package module and no mpmath.  Their cost over a bare interpreter is
importing argparse, compiling this module and building all seven subparsers.
Each handler imports the package modules and mpmath it runs, when it runs.
``coeff``, ``cache-info``, ``bk``, ``eval`` and ``em-check`` run on Python
integers alone (tables are built, saved, loaded and printed without mpmath,
``bk``'s scaled columns come from analysis's integer route, ``eval`` sums
through series._eval_raw, and ``em-check`` checks through phik._em_check),
and so do the truncation, cross-identity and em-remainder suites of
``verify``; each reads its literals with mpnum.parse_decimal and prints its
raw tuples with mpnum, so none imports mpmath.  Only ``decay`` and the
global-agreement suite do.

Numeric literals (--s and its parts, --tol, --quad-tol) follow one strict
decimal grammar, mpnum.parse_decimal's: a malformed one is a usage error.
"""

import argparse
import contextlib
import sys

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

SUITES = ("truncation", "cross-identity", "em-remainder", "global-agreement")
EM_PAIRS = ((8, 2), (12, 3), (16, 2), (16, 4))
GLOBAL_PROBES = ("3", "0.5", "0.5+14.134725i", "-1", "-2.5", "5+10i")


def parse_complex(text: str, bits: int):
    """Strict parse of 'a+bi' / 'a-bi' complex literals (decimal components),
    each part rounded to nearest at `bits` bits: (re, im) raw tuples, im None
    for a literal without i.

    NaN and infinite components are rejected: the series needs a finite s.
    """
    from .mpnum import parse_decimal

    t = text.strip()
    if not t:
        raise ValueError("empty complex literal")
    if "nan" in t.lower() or "inf" in t.lower():
        raise ValueError("s must be a finite number")
    if t.endswith("i"):
        body = t[:-1]
        re_part, im_part = "", body
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                re_part, im_part = body[:pos], body[pos:]
                break
        if im_part in ("", "+", "-"):
            im_part += "1"
        re_val = parse_decimal(re_part, bits) if re_part else (0, 0, 0, 0)
        return re_val, parse_decimal(im_part, bits)
    return parse_decimal(t, bits), None


def _format_for_print(re, im, digits: int) -> str:
    """A raw (re, im) pair as 'a' or, when im is nonzero, 'a+bi'."""
    from .coefficients import format_real

    if im is not None and im[1]:
        return f"{format_real(re, digits)}{format_real(im, digits)}i"
    return format_real(re, digits)


@contextlib.contextmanager
def _data_out(args):
    """Where a command's data goes: the --out file if given, else stdout.

    A handle rather than a string, so that CSV rows are written one by one
    and a long table is never held as one string.
    """
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            yield fh
    else:
        yield sys.stdout


def _value_row(table, k: int, digits: int, *columns: str) -> list[str]:
    """A ``bk`` or ``decay`` row: k, entry k, its |value| (the same digits,
    signed +), then the command's own columns."""
    from .coefficients import format_real

    value = format_real(table.raw[k], digits)
    return [str(k), value, "+" + value[1:], *columns]


def _write_rows(args, header: list[str], rows: list[list[str]], extra: dict | None = None):
    with _data_out(args) as fh:
        if args.format == "json":
            import json

            doc = {"columns": header, "rows": rows, **(extra or {})}
            fh.write(json.dumps(doc, indent=2) + "\n")
        else:
            import csv

            csv.writer(fh, lineterminator="\n").writerows([header, *rows])


# -- subcommand handlers -----------------------------------------------------


def _cmd_coeff(args) -> int:
    from .coefficients import build_table, save_table
    from .mpnum import PrecisionContext

    ctx = PrecisionContext(args.bits)
    table = build_table(args.kind, args.kmax, ctx)
    save_table(table, args.out)
    print(f"wrote kind={table.kind} kmax={table.k_max} target_bits={table.target_bits} -> {args.out}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_bk(args) -> int:
    from .analysis import _rh_rows
    from .coefficients import build_table, format_real, load_table, mantissa_digits
    from .mpnum import PrecisionContext

    if args.table:
        table = load_table(args.table)
        if table.kind != "b":
            raise ValueError(f"{args.table} holds kind={table.kind}, need kind=b")
        if args.kmax > table.k_max:
            raise ValueError(
                f"table too short for kmax {args.kmax}: {args.table} holds k_max={table.k_max}")
    else:
        ctx = PrecisionContext(args.bits)
        table = build_table("b", args.kmax, ctx)
    digits = mantissa_digits(table.target_bits)
    rows = [_value_row(table, k, digits, format_real(scaled, digits),
                       format_real(scaled_log2, digits))
            for k, scaled, scaled_log2 in _rh_rows(table, args.kmin, args.kmax)]
    _write_rows(args, ["k", "value", "abs_value", "k34_scaled", "k34_log2_scaled"], rows)
    return EXIT_OK


def _cmd_eval(args) -> int:
    """maslanka_eval's integer core on s read at working bits and tol at 53
    bits, mpmath's default precision, at which this command has always read
    it; printed from the raw tuples, so mpmath is never imported."""
    from . import series
    from .coefficients import format_real, load_table, mantissa_digits
    from .mpnum import PrecisionContext, parse_decimal

    table = load_table(args.table)
    ctx = PrecisionContext(args.bits)
    s = parse_complex(args.s, ctx.working_bits)
    tol = parse_decimal(args.tol, 53)
    terms, converged, value, zeta, residual = series._eval_raw(*s, table, tol, ctx.working_bits)
    digits = mantissa_digits(min(table.target_bits, args.bits))
    lines = [
        f"s = {_format_for_print(*s, digits)}",
        f"value = {_format_for_print(*value, digits)}",
        f"zeta_value = " + ("pole" if zeta is None else _format_for_print(*zeta, digits)),
        f"terms_used = {terms}",
        f"residual_estimate = {format_real(residual, digits)}",
        f"converged = {str(converged).lower()}",
    ]
    with _data_out(args) as fh:
        fh.write("\n".join(lines) + "\n")
    if not converged:
        print("warning: table exhausted before tolerance was met", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _positive_tol(text, name: str = "tol"):
    """A tolerance from its command-line text, read at 53 bits: the raw tuple
    of a positive and finite number, or ValueError."""
    from .mpnum import _check_positive, parse_decimal

    tol = parse_decimal(text, 53)
    _check_positive(tol, name)
    return tol


def _verify_truncation(table, ctx, nmax):
    """(passed, text) for each identity n, decided exactly against the error
    its table entries can carry (series._truncation_rows)."""
    from .mpnum import format_nstr
    from .series import _truncation_rows

    for n, passed, rel in _truncation_rows(table, ctx.working_bits, nmax):
        yield passed, f"truncation n={n} rel={format_nstr(rel, 3)}"


def _verify_cross_identity(ctx, kmax):
    """(passed, text) for each pair that misses the sum of its two routes'
    stated bounds, then for the suite as a whole.

    cross_identity_pairs gives both heads as integers at one scale 2^W, where
    a_k's route is within 2^(k-1) (1 + 2^-31) units of A_k 2^W and a_k_alt's
    within (k+1) 2^k (1/2 + 2^-32), together (k+2) (1 + 2^-31) 2^(k-1) units;
    the heads and that bound are compared exactly.  Each rel is |ha - hb| /
    |ha| rounded once to 53 bits, and the worst is chosen exactly.
    """
    from .coefficients import cross_identity_pairs
    from .mpnum import _quotient, format_nstr

    ok_all, worst = True, (0, 1)
    for k, ha, hb in cross_identity_pairs(kmax, ctx):
        gap, ha = abs(ha - hb), abs(ha)
        if gap * worst[1] > worst[0] * ha:
            worst = gap, ha
        if gap << 32 > (k + 2) * (2**31 + 1) << k:
            ok_all = False
            yield False, f"cross-identity k={k} rel={format_nstr(_quotient(gap, ha), 3)}"
    yield ok_all, f"cross-identity k=1..{kmax} worst_rel={format_nstr(_quotient(*worst), 3)}"


def _verify_em(ctx, tol):
    from .mpnum import format_nstr
    from .phik import _em_check

    for k, a in EM_PAIRS:
        *_, rel, passed = _em_check(k, a, ctx, tol, None)
        yield passed, f"em-remainder k={k} a={a} rel={format_nstr(rel, 3)}"


def _verify_global(table, ctx, tol):
    import mpmath

    from .mpnum import _to_mp
    from .series import maslanka_eval, zeta_reference

    tol = _to_mp(tol)

    def read(text):
        return _to_mp(*parse_complex(text, ctx.working_bits))

    for text in GLOBAL_PROBES:
        s = read(text)
        result = maslanka_eval(s, table, tol, ctx)
        ref = zeta_reference(s, ctx)
        err = abs(result.zeta_value - ref)
        yield err < tol, f"global-agreement s={text} abs_err={mpmath.nstr(err, 3)}"
    for label, target in (("0", mpmath.mpf(1) / 2), ("1", mpmath.mp.one)):
        result = maslanka_eval(read(label), table, tol, ctx)
        err = abs(result.value - target)
        yield err < tol, f"global-agreement s={label} (series value) abs_err={mpmath.nstr(err, 3)}"


def _cmd_verify(args) -> int:
    from .coefficients import build_table, load_table
    from .mpnum import PrecisionContext, parse_decimal

    ctx = PrecisionContext(args.bits)
    suites = SUITES if args.suite == "all" else (args.suite,)
    if "truncation" in suites and args.nmax < 1:
        raise ValueError("nmax must be at least 1")
    tol = _positive_tol(args.tol) if args.tol else None
    table = None
    if {"truncation", "global-agreement"} & set(suites):
        if args.table:
            table = load_table(args.table)
        else:
            kmax = max(args.nmax - 1, 400 if "global-agreement" in suites else 0)
            print(f"building kind=A table to k={kmax} at {args.bits} bits", file=sys.stderr)
            table = build_table("A", kmax, ctx)
    if "truncation" in suites and args.nmax > table.k_max + 1:
        raise ValueError(f"table too short for nmax {args.nmax}: need k_max >= {args.nmax - 1}")
    checks = {  # generators: a suite runs, and imports, only when read
        "truncation": _verify_truncation(table, ctx, args.nmax),
        "cross-identity": _verify_cross_identity(ctx, 100),
        "em-remainder": _verify_em(ctx, tol or parse_decimal("1e-6", 53)),
        "global-agreement": _verify_global(table, ctx, tol or parse_decimal("1e-20", 53)),
    }
    ok = True
    for suite in suites:
        for passed, text in checks[suite]:
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {text}")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_em_check(args) -> int:
    from .coefficients import format_real, mantissa_digits
    from .mpnum import PrecisionContext, format_nstr
    from .phik import _em_check

    ctx = PrecisionContext(args.bits)
    tol = _positive_tol(args.tol)
    quad_tol = _positive_tol(args.quad_tol, "quad-tol") if args.quad_tol else None
    ref, val, rel, passed = _em_check(args.k, args.a, ctx, tol, quad_tol)
    digits = mantissa_digits(args.bits)
    print(f"a_k({args.k}) = {format_real(ref, digits)}")
    print(f"em_remainder(k={args.k}, a={args.a}) = {format_real(val, digits)}")
    print(f"rel_diff = {format_nstr(rel, 6)}")
    if not passed:
        print(f"tolerance {args.tol} not met", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_decay(args) -> int:
    import mpmath

    from .analysis import decay_fit
    from .coefficients import load_table, mantissa_digits

    table = load_table(args.table)
    fit = decay_fit(table, args.kmin, args.kmax)
    digits = mantissa_digits(table.target_bits)
    rows = []
    with mpmath.mp.workprec(table.target_bits + 16):
        for k in range(args.kmin, args.kmax + 1):
            av = abs(table.values[k])
            logv = mpmath.nstr(mpmath.log(av), 17) if av > 0 else "-inf"
            rows.append(_value_row(table, k, digits, mpmath.nstr(mpmath.log(k), 17), logv))
    summary = (f"fit k=[{fit.k_range[0]},{fit.k_range[1]}] slope={fit.slope!r} "
               f"intercept={fit.intercept!r} max_abs_residual={fit.max_abs_residual!r} "
               f"excluded={fit.excluded_count}")
    print(summary, file=sys.stderr)
    extra = {"fit": {
        "k_min": fit.k_range[0], "k_max": fit.k_range[1], "slope": fit.slope,
        "intercept": fit.intercept, "max_abs_residual": fit.max_abs_residual,
        "excluded_count": fit.excluded_count,
    }}
    _write_rows(args, ["k", "value", "abs_value", "log_k", "log_abs_value"], rows, extra)
    return EXIT_OK


def _cmd_cache_info(args) -> int:
    from .coefficients import format_real, load_table, mantissa_digits

    table = load_table(args.table)
    print(f"file = {args.table}")
    print(f"kind = {table.kind}")
    print(f"k_max = {table.k_max}")
    print(f"target_bits = {table.target_bits}")
    digits = mantissa_digits(table.target_bits)
    print(f"mantissa_digits = {digits}")
    print("checksum = ok")
    print(f"first = {format_real(table.raw[0], digits)}")
    print(f"last = {format_real(table.raw[-1], digits)}")
    return EXIT_OK


# -- command table -----------------------------------------------------------

BITS = ("--bits", {"type": int, "default": 128, "help": "target precision in bits (default 128)"})
OUT = ("--out", {})
FORMAT = ("--format", {"choices": ["csv", "json"], "default": "csv"})
TABLE = ("--table", {"required": True})
KMAX = ("--kmax", {"type": int, "required": True})

# name -> (help, handler, (flag, add_argument keywords) pairs in --help order)
COMMANDS = {
    "coeff": ("build a coefficient table and write it in cache format v2", _cmd_coeff, (
        ("--kind", {"choices": ["A", "b"], "required": True}), KMAX, BITS,
        ("--out", {"required": True}))),
    "bk": ("RH-criterion diagnostic data |b_k| k^(3/4) (and log^2-scaled)", _cmd_bk, (
        KMAX, ("--kmin", {"type": int, "default": 1}), BITS,
        ("--table", {"help": "existing kind=b table (otherwise built)"}), OUT, FORMAT)),
    "eval": ("evaluate the series at a complex point", _cmd_eval, (
        ("--s", {"required": True, "help": "complex literal, e.g. '0.5+14.134725i'; "
                                           "write --s=VALUE when VALUE starts with '-'"}),
        TABLE, ("--tol", {"default": "1e-20"}), BITS, OUT)),
    "verify": ("run identity verification suites", _cmd_verify, (
        ("--suite", {"default": "all", "choices": [*SUITES, "all"]}),
        ("--table", {"help": "kind=A table to verify against (otherwise built)"}),
        ("--nmax", {"type": int, "default": 20, "help": "truncation identities up to n (default 20)"}),
        ("--tol", {"help": "override suite tolerance "
                           "(default 1e-6 for em-remainder, 1e-20 for global-agreement)"}), BITS)),
    "em-check": ("cross-check one A_k against its remainder integral", _cmd_em_check, (
        ("--k", {"type": int, "required": True}), ("--a", {"type": int, "required": True}), BITS,
        ("--tol", {"default": "1e-6"}),
        ("--quad-tol", {"help": "absolute tolerance of the remainder integral "
                                "(default |A_k| * tol / 100)"}))),
    "decay": ("log-log decay data and power-law fit for a table", _cmd_decay, (
        TABLE, ("--kmin", {"type": int, "required": True}), KMAX, OUT, FORMAT)),
    "cache-info": ("inspect a cache-format table file", _cmd_cache_info, (TABLE,)),
}


def run(argv=None) -> int:
    """Parse argv against COMMANDS and run the chosen handler; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="maslanka",
        description="Maslanka representation of (s-1)*zeta(s): coefficient tables, "
                    "series evaluation, identity verification, decay diagnostics.",
        epilog="Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 numeric failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, spec in arguments:
            sp.add_argument(flag, **spec)
        sp.set_defaults(func=handler)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ArithmeticError as exc:  # QuadratureError among them
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:  # TableFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
