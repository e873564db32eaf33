"""Command-line front end.

Everything is an explicit flag; there is no configuration file and no
environment lookup, so identical invocations produce byte-identical
output.  Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or precision-refusal errors.

This module imports only the standard library when it loads, and the
parser is built from names alone.  Each command imports the modules it
runs, after its flag checks, so that a fresh call loads no more than that:
`identities` loads only `trigsum.catalog`; `exact`, `operator` and `map`
load no mpmath; `zeta-odd` and `oracle` load `dirichlet` and mpmath, and
`oracle` never loads `exact`; only `verify` loads the registry.  An
unknown `--method` or `--series` is refused by the library, which lists
the accepted names.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from typing import List, Optional

# `exact` value name -> the trigsum.exact function that computes it
_EXACT_FUNCS = {
    "zeta-even": "zeta_even",
    "eta-even": "eta_even",
    "lambda-even": "lambda_even",
    "beta-odd": "beta_odd",
    "frakd": "frakD",
    "cald": "calD",
    "bernoulli-star": "bernoulli_star",
    "euler-number": "euler_number",
    "harmonic": "harmonic",
}


def _fraction_flag(flag: str, text: str) -> Fraction:
    """A rational flag value such as 1/3; a malformed value or a zero
    denominator is a usage error that names the flag."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} must be a rational number such as 1/3, "
                         f"got {text!r}") from None


# The largest index and precision the value commands accept, each refused
# before any work above it.  Times of one fresh `python -m trigsum.cli` at
# the limit (2-vCPU x86-64, CPython 3.11, mpmath 1.3 without gmpy):
# - exact --n 1000: frakd 8.3 s, eta-even 5.8 s, cald 2.6 s, every other
#   value at most 1.4 s; the triangular recurrences grow about as n^4.
# - exact harmonic --n 20,000: 0.55 s; n = 100,000 takes 9.5 s in the
#   library.
# - zeta-odd --r 200: 0.3 s at 30 digits, 5.8-6.7 s at 1000 digits; in the
#   library, r = 300 takes 8.3 s at 1000 digits, r = 900 3.2 s and
#   r = 2000 23 s at 30 digits.
# - --digits 1000: zeta-odd at r <= 6 1.0-1.3 s, oracle at most 1.3 s;
#   2000 digits take 9.7 s (zeta-odd, r = 1) and 11.2 s (oracle, frakD, s = 2).
MAX_N = 1_000
MAX_HARMONIC_N = 20_000
MAX_ZETA_R = 200
MAX_DIGITS = 1_000


def _check_at_most(flag: str, value: int, limit: int, what: str = "") -> None:
    if value > limit:
        raise ValueError(f"{flag} must be at most {limit}{what}, got {value}")


def _cmd_exact(args) -> int:
    from . import exact
    if args.value == "harmonic":
        _check_at_most("--n", args.n, MAX_HARMONIC_N, " for harmonic")
    else:
        _check_at_most("--n", args.n, MAX_N)
    value = getattr(exact, _EXACT_FUNCS[args.value])(args.n)
    # exact values can pass Python's 4300-digit limit on int -> str; the
    # limit is lifted for the write only (it is absent before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _write_exact(value, args.format)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def _write_exact(value, fmt: str) -> None:
    from .exact import PiPolynomial
    if fmt == "text":
        print(value)
    elif isinstance(value, PiPolynomial):
        print(value.to_json())
    elif isinstance(value, Fraction):
        print(json.dumps({"num": str(value.numerator),
                          "den": str(value.denominator)},
                         separators=(",", ":")))
    else:
        print(json.dumps({"value": str(value)}, separators=(",", ":")))


def _cmd_operator(args) -> int:
    from .expr import parse_expr, to_text
    from .operators import apply_operator
    expr = parse_expr(args.expr)
    arg = parse_expr(args.arg)
    shift = parse_expr(args.shift)
    pair = apply_operator(expr, arg, shift, var=args.var)
    chosen = pair.cos_part if args.kind == "cos" else pair.sin_part
    if args.format == "json":
        print(json.dumps({"kind": args.kind,
                          "result": to_text(chosen),
                          "cos_part": to_text(pair.cos_part),
                          "sin_part": to_text(pair.sin_part)},
                         separators=(",", ":")))
    else:
        print(to_text(chosen))
    return 0


def _cmd_map(args) -> int:
    from .expr import parse_expr, to_text
    from .mapping import map_cospow, map_fourier
    S = parse_expr(args.sum)
    if args.family == "fourier":
        c = parse_expr(args.c) if args.c else None
        kind = "cosine" if args.kind == "cos" else "sine"
        result = map_fourier(S, c=c, kind=kind)
    else:
        result = map_cospow(S, kind=args.kind)
    singular = [to_text(p) for p in result.singular_points]
    validity = result.validity_interval
    validity_txt = ([to_text(validity[0]), to_text(validity[1])]
                    if validity is not None else None)
    if args.format == "json":
        print(json.dumps({"closed_form": to_text(result.closed_form),
                          "kind": result.kind,
                          "validity": validity_txt,
                          "singular_points": singular},
                         separators=(",", ":")))
    else:
        print(f"closed form: {to_text(result.closed_form)}")
        print(f"validity: {validity_txt if validity_txt else 'entire line'}")
        print(f"singular points: {singular}")
    return 0


def _cmd_zeta_odd(args) -> int:
    _check_at_most("--r", args.r, MAX_ZETA_R)
    _check_at_most("--digits", args.digits, MAX_DIGITS)
    from .dirichlet import PrecisionContext, zeta_odd
    ctx = PrecisionContext.for_digits(args.digits + 10)
    approx = zeta_odd(args.r, args.method, ctx)
    return _write_approx(approx, args, {"r": args.r, "method": args.method})


def _cmd_oracle(args) -> int:
    if args.a is not None and args.series != "hurwitz":
        raise ValueError(f"--a applies only to --series hurwitz, "
                         f"got --series {args.series}")
    _check_at_most("--digits", args.digits, MAX_DIGITS)
    from .dirichlet import PrecisionContext, dirichlet_oracle
    ctx = PrecisionContext.for_digits(args.digits + 10)
    a = _fraction_flag("--a", args.a) if args.a else None
    approx = dirichlet_oracle(args.series, args.s, ctx, a=a)
    return _write_approx(approx, args, {"series": args.series, "s": args.s})


def _write_approx(approx, args, head: dict) -> int:
    """A series value to --digits, with its tail bound and term count in JSON.

    The value's error is absolute, so a value within its tail bound of zero
    prints as 0.0: its significant digits would be noise."""
    import mpmath as mp
    with mp.workdps(args.digits + 10):
        zero = abs(approx.value) <= approx.tail_bound
        value_txt = mp.nstr(mp.mpf(0) if zero else approx.value, args.digits)
        bound_txt = mp.nstr(approx.tail_bound, 3)
    if args.format == "json":
        print(json.dumps({**head, "value": value_txt, "tail_bound": bound_txt,
                          "terms": approx.terms_used},
                         separators=(",", ":")))
    else:
        print(value_txt)
    return 0


_CSV_HEADER = "id,r,c,N,tol,max_error,pass"


def _emit_reports(reports, fmt: str) -> None:
    if fmt == "csv":
        print(_CSV_HEADER)
        for rep in reports:
            print(rep.csv_row())
    elif fmt == "json":
        print(json.dumps([json.loads(rep.to_json()) for rep in reports],
                         separators=(",", ":")))
    else:
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            print(f"{status} {rep.id} r={rep.r} N={rep.N} tol={rep.tol:g} "
                  f"max_error={rep.max_error:.3e}")


# The largest --terms, --grid and --r that verify accepts: ten, twenty and
# eight times the documented rows (N 200,000, grid 50, r <= 12).  With all
# three at their limits one row takes 3-4 s and 155 MB (thm11-cos,
# thm11-sin, thm16, thm21 and cor8-cald; 2-vCPU x86-64, CPython 3.11); the
# time grows with the grid and the memory with the terms, so much larger
# values would run for minutes or exhaust memory, and are refused up front.
MAX_TERMS = 2_000_000
MAX_GRID = 1_000
MAX_R = 100


# verify's per-identity flags and the defaults the --id path applies; the
# parser leaves them None, so that a flag given without --id is seen, and
# a --grid not given stays None: registry.verify's own default
_VERIFY_ID_DEFAULTS = {"r": None, "x0": None, "grid": None, "terms": 2000,
                       "tol": 1e-6}


def _check_verify_flags(args) -> None:
    """Refuse flags that verify would ignore: more than one of --id, --all
    and --suite, or a per-identity flag without --id."""
    modes = [flag for flag, given in (("--id", args.id is not None),
                                      ("--all", args.all),
                                      ("--suite", args.suite)) if given]
    if len(modes) > 1:
        raise ValueError(f"{modes[0]} and {modes[1]} exclude one another")
    if args.id is None:
        for name in _VERIFY_ID_DEFAULTS:
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} applies only with --id")


def _check_verify_values(args) -> None:
    """Refuse a grid or term count outside 1..its limit, an r above its
    limit and a tolerance that is not a positive finite number before any
    work starts."""
    for flag, value, limit in (("--grid", args.grid, MAX_GRID),
                               ("--terms", args.terms, MAX_TERMS)):
        if value is None:
            continue
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
        _check_at_most(flag, value, limit)
    if args.r is not None:
        _check_at_most("--r", args.r, MAX_R)
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")


def _cmd_verify(args) -> int:
    _check_verify_flags(args)
    if args.suite:
        return _cmd_verify_suite_rows(args)
    if args.all:
        # the full acceptance suite: the registry sweep is one criterion of
        # eight; each prints a single pass/fail line, and its time, the
        # seconds its registry comparisons spent on partial sums and on
        # closed forms, and the registry memos' hits and misses go to
        # stderr so that stdout stays the same from run to run
        from .acceptance import ALL_CRITERIA
        from .registry import compare_seconds, memo_counts
        outcomes = []
        for criterion in ALL_CRITERIA:
            before, seconds = memo_counts(), compare_seconds()
            t0 = time.perf_counter()
            outcomes.append(criterion())
            elapsed = round(time.perf_counter() - t0, 3)
            after, spent = memo_counts(), compare_seconds()
            print(json.dumps({"criterion": outcomes[-1][0], "elapsed_s": elapsed,
                              **{k: round(spent[k] - seconds[k], 3) for k in spent},
                              **{k: after[k] - before[k] for k in after}},
                             separators=(",", ":")), file=sys.stderr)
        if args.format == "json":
            print(json.dumps([{"criterion": name, "pass": ok, "detail": detail}
                              for name, ok, detail in outcomes],
                             separators=(",", ":")))
        else:
            for name, ok, detail in outcomes:
                print(f"{'PASS' if ok else 'FAIL'} [{name}] {detail}")
        return 0 if all(ok for _, ok, _ in outcomes) else 1
    if not args.id:
        raise ValueError("verify needs one of --id, --all and --suite")
    for name, default in _VERIFY_ID_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    _check_verify_values(args)
    x0 = _fraction_flag("--x0", args.x0) if args.x0 else None
    from .registry import get_record, theorem23_shift, verify
    record = get_record(args.id)
    if record.kind == "value" and args.grid is not None:
        raise ValueError(f"--grid does not apply to {args.id}, a value record "
                         "checked at x = 0 only")
    if x0 is not None:
        record = theorem23_shift(record, x0)
    report = verify(record, args.r, grid=args.grid, N=args.terms, tol=args.tol)
    _emit_reports([report], args.format)
    return 0 if report.passed else 1


def _cmd_verify_suite_rows(args) -> int:
    """Per-record registry sweep rows (catalog order), machine-readable."""
    from .registry import suite_reports
    reports = suite_reports()
    _emit_reports(reports, args.format)
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_identities(args) -> int:
    from .catalog import IDENTITIES
    if args.format == "json":
        print(json.dumps([{"id": rid, "label": label, "kind": kind}
                          for rid, kind, label in IDENTITIES],
                         separators=(",", ":")))
    else:
        for rid, kind, label in IDENTITIES:
            print(f"{rid:24s} {kind:8s} {label}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigsum",
        description="Closed-form trigonometric series summation and exact "
                    "zeta-family values.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact rational / pi-polynomial values")
    p.add_argument("value", choices=sorted(_EXACT_FUNCS))
    p.add_argument("--n", type=int, required=True,
                   help="index: r for the zeta-family values, the subscript "
                        "for bernoulli-star/euler-number/harmonic")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("operator", help="apply the operator pair to an expression")
    p.add_argument("action", choices=("apply",))
    p.add_argument("--kind", choices=("cos", "sin"), required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--arg", required=True)
    p.add_argument("--shift", required=True)
    p.add_argument("--var", default="x")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_operator)

    p = sub.add_parser("map", help="closed form of a trigonometric series")
    p.add_argument("family", choices=("fourier", "cospow"))
    p.add_argument("--sum", required=True, help="sum function S(t)")
    p.add_argument("--kind", choices=("cos", "sin"), required=True)
    p.add_argument("--c", default=None, help="half-period expression (fourier)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("zeta-odd", help="zeta at odd integers via the "
                                        "fast-converging representations")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--method", default="thm15-zeta",
                   help="series representation (default %(default)s); an "
                        "unknown name is refused with the accepted ones listed")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_zeta_odd)

    p = sub.add_parser("oracle", help="brute-force Dirichlet series reference")
    p.add_argument("--series", required=True,
                   help="Dirichlet series, such as zeta or hurwitz; an unknown "
                        "name is refused with the accepted ones listed")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", default=None, help="offset for hurwitz, e.g. 1/3")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="grid-verify identities against partial sums")
    p.add_argument("--id", default=None)
    p.add_argument("--all", action="store_true",
                   help="run the full acceptance suite (eight criteria)")
    p.add_argument("--suite", action="store_true",
                   help="run the per-record registry sweep rows only")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--x0", default=None,
                   help="apply the cosh shift by x0*c first, e.g. 1/4")
    p.add_argument("--grid", type=int, default=None, help="default 50")
    p.add_argument("--terms", type=int, default=None, help="default 2000")
    p.add_argument("--tol", type=float, default=None, help="default 1e-6")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("identities", help="list the identity catalog")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_identities)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # exit 1 means "verification failed", so an unexpected error exits
        # 2 as well, with its type named
        if isinstance(exc, _usage_errors()):
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _usage_errors() -> tuple:
    """The library errors that end a command with exit 2, taken only from
    modules already loaded: an error of a module that was never loaded
    cannot have been raised.  PrecisionError is a ValueError."""
    errors = [ValueError]
    # ExprError covers ParseError, MappingError and UnsupportedHeadError
    for module, name in (("expr", "ExprError"), ("registry", "RegistryError")):
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            errors.append(getattr(loaded, name))
    return tuple(errors)


if __name__ == "__main__":
    sys.exit(main())
