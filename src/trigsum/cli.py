"""Command-line front end.

Everything is an explicit flag; there is no configuration file and no
environment lookup, so identical invocations produce byte-identical
output.  Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or precision-refusal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import List, Optional

import mpmath as mp

from . import exact
from .dirichlet import (ORACLE_SERIES, PrecisionContext, PrecisionError,
                        ZETA_ODD_METHODS, dirichlet_oracle, zeta_odd)
from .expr import ExprError, ParseError, parse_expr, to_text
from .mapping import MappingError, map_cospow, map_fourier
from .operators import UnsupportedHeadError, apply_operator
from .registry import (RegistryError, default_suite, endpoint_suite, get_record,
                       list_identities, theorem23_shift, verify, verify_endpoint)

_EXACT_FUNCS = {
    "zeta-even": lambda n: exact.zeta_even(n),
    "eta-even": lambda n: exact.eta_even(n),
    "lambda-even": lambda n: exact.lambda_even(n),
    "beta-odd": lambda n: exact.beta_odd(n),
    "frakd": lambda n: exact.frakD(n),
    "cald": lambda n: exact.calD(n),
    "bernoulli-star": lambda n: exact.bernoulli_star(n),
    "euler-number": lambda n: exact.euler_number(n),
    "harmonic": lambda n: exact.harmonic(n),
}


def _fraction_text(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _pipoly_text(p: exact.PiPolynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for power, coeff in p.terms():
        if power == 0:
            parts.append(_fraction_text(coeff))
        elif power == 1:
            parts.append(f"({_fraction_text(coeff)})*pi")
        else:
            parts.append(f"({_fraction_text(coeff)})*pi^{power}")
    return " + ".join(parts)


def _cmd_exact(args) -> int:
    value = _EXACT_FUNCS[args.value](args.n)
    if isinstance(value, exact.PiPolynomial):
        if args.format == "json":
            print(value.to_json())
        else:
            print(_pipoly_text(value))
    elif isinstance(value, Fraction):
        if args.format == "json":
            print(json.dumps({"num": str(value.numerator),
                              "den": str(value.denominator)},
                             separators=(",", ":")))
        else:
            print(_fraction_text(value))
    else:
        if args.format == "json":
            print(json.dumps({"value": str(value)}, separators=(",", ":")))
        else:
            print(value)
    return 0


def _cmd_operator(args) -> int:
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
    ctx = PrecisionContext.for_digits(args.digits + 10)
    approx = zeta_odd(args.r, args.method, ctx)
    with mp.workdps(args.digits + 10):
        value_txt = mp.nstr(approx.value, args.digits)
        bound_txt = mp.nstr(approx.tail_bound, 3)
    if args.format == "json":
        print(json.dumps({"r": args.r, "method": args.method,
                          "value": value_txt, "tail_bound": bound_txt,
                          "terms": approx.terms_used},
                         separators=(",", ":")))
    else:
        print(value_txt)
    return 0


def _cmd_oracle(args) -> int:
    ctx = PrecisionContext.for_digits(args.digits + 10)
    a = Fraction(args.a) if args.a else None
    approx = dirichlet_oracle(args.series, args.s, ctx, a=a)
    with mp.workdps(args.digits + 10):
        value_txt = mp.nstr(approx.value, args.digits)
        bound_txt = mp.nstr(approx.tail_bound, 3)
    if args.format == "json":
        print(json.dumps({"series": args.series, "s": args.s,
                          "value": value_txt, "tail_bound": bound_txt,
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


def _cmd_verify(args) -> int:
    reports = []
    if getattr(args, "suite", False):
        return _cmd_verify_suite_rows(args)
    if args.all:
        # the full acceptance suite: the registry sweep is one criterion of
        # eight; each prints a single pass/fail line, and its time goes to
        # stderr so that stdout stays the same from run to run
        from .acceptance import ALL_CRITERIA
        outcomes = []
        for criterion in ALL_CRITERIA:
            t0 = time.perf_counter()
            outcomes.append(criterion())
            print(json.dumps({"criterion": outcomes[-1][0],
                              "elapsed_s": round(time.perf_counter() - t0, 3)},
                             separators=(",", ":")), file=sys.stderr)
        if args.format == "json":
            print(json.dumps([{"criterion": name, "pass": ok, "detail": detail}
                              for name, ok, detail in outcomes],
                             separators=(",", ":")))
        else:
            for name, ok, detail in outcomes:
                print(f"{'PASS' if ok else 'FAIL'} [{name}] {detail}")
        return 0 if all(ok for _, ok, _ in outcomes) else 1
    else:
        if not args.id:
            print("verify needs --id or --all", file=sys.stderr)
            return 2
        record = get_record(args.id)
        if args.x0:
            record = theorem23_shift(record, Fraction(args.x0))
        reports.append(verify(record, args.r, grid=args.grid, N=args.terms,
                              tol=args.tol))
    _emit_reports(reports, args.format)
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_verify_suite_rows(args) -> int:
    """Per-record registry sweep rows (catalog order), machine-readable."""
    reports = [verify(entry.id, entry.r, N=entry.N, tol=entry.tol)
               for entry in default_suite()]
    reports += [verify_endpoint(rid, r) for rid, r in endpoint_suite()]
    _emit_reports(reports, args.format)
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_identities(args) -> int:
    rows = [{"id": rec.id, "label": rec.label, "kind": rec.kind}
            for rec in list_identities()]
    if args.format == "json":
        print(json.dumps(rows, separators=(",", ":")))
    else:
        for row in rows:
            print(f"{row['id']:24s} {row['kind']:8s} {row['label']}")
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
    p.add_argument("--method", choices=ZETA_ODD_METHODS, default="thm15-zeta")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_zeta_odd)

    p = sub.add_parser("oracle", help="brute-force Dirichlet series reference")
    p.add_argument("--series", choices=sorted(set(ORACLE_SERIES) | {"hurwitz"}),
                   required=True)
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
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--terms", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-6)
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
    except (PrecisionError, ParseError, ExprError, MappingError,
            RegistryError, UnsupportedHeadError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
