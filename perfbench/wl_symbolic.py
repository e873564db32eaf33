"""symbolic: a seeded stream of closed-form requests to `expr`, `operators`,
`trigpoly` and `mapping`; no series summation and no numpy.

Each pass holds a fixed mix: map_fourier (cosine and sine) and map_cospow
(cos and sin) on sum functions S(t) from grammar.pass_sums, with the
half-period c symbolic, pi or rational, and apply_operator on random trees
over the 13 rule heads.  A request parses its text, runs the map or the
operator and prints the result, as the CLI does.

Checks: a closed form against Re/Im S(e^{i pi x/c}) (Fourier) or
Re/Im S(cos x e^{ix}) (cos-power) at seeded points inside the validity
interval, an operator pair against f(x + ih); both references come from the
grammar's own mpmath evaluators.  A MappingError is a documented refusal,
counted in mapping.refused, not a failure.
"""

from __future__ import annotations

import random

import grammar
from common import NoTracer
from trigsum.expr import parse_expr, symbol, to_text
from trigsum.mapping import MappingError, map_cospow, map_fourier
from trigsum.operators import apply_operator

ENTRY = ["trigsum.expr", "trigsum.operators", "trigsum.mapping"]
MAP_KINDS = (("fourier", "cosine"), ("fourier", "sine"),
             ("cospow", "cos"), ("cospow", "sin"))
# grammar.pass_sums: two sums per atom for each kind, two Example 2 sums for
# each Fourier kind
MAP_REQUESTS = len(MAP_KINDS) * 2 * len(grammar.SUM_ATOMS) + 2 * 2
OPERATOR_REQUESTS = 64
OPS_PER_PASS = MAP_REQUESTS + OPERATOR_REQUESTS
MIN_PASSES = 2
CHECK_POINTS = 3
CHECK_DIGITS = 30


class Op:
    __slots__ = ("family", "kind", "text", "fn", "c_text", "c_value", "points")

    def __init__(self, family, kind, text, fn, c_text=None, c_value=None, points=()):
        self.family, self.kind, self.text, self.fn = family, kind, text, fn
        self.c_text, self.c_value, self.points = c_text, c_value, points


def make_ops(seed: int, index: int):
    rng = random.Random(f"symbolic:{seed}:{index}")
    ops = []
    for family, kind in MAP_KINDS:
        for text, fn in grammar.pass_sums(rng, family == "fourier"):
            c_text, c_value = (grammar.random_half_period(rng)
                               if family == "fourier" else (None, None))
            points = [rng.uniform(0.1, 0.9) for _ in range(CHECK_POINTS)]
            ops.append(Op(family, kind, text, fn, c_text, c_value, points))
    for _ in range(OPERATOR_REQUESTS):
        text, fn = grammar.random_tree(rng)
        ops.append(Op("operator", rng.choice(("cos", "sin")), text, fn,
                      points=grammar.sample_points(rng, CHECK_POINTS)))
    rng.shuffle(ops)
    return ops


class Refused:
    """A documented MappingError refusal."""

    def __init__(self, message):
        self.message = message


def run_op(op, tracer):
    with tracer.span("expr.parse"):
        S = parse_expr(op.text)
        c = parse_expr(op.c_text) if op.c_text else None
    if op.family == "operator":
        with tracer.span("operators.apply"):
            pair = apply_operator(S, symbol("x"), symbol("h"))
        with tracer.span("expr.to_text"):
            to_text(pair.cos_part)
            to_text(pair.sin_part)
        return pair
    try:
        with tracer.span("mapping.map"):
            if op.family == "fourier":
                result = map_fourier(S, c=c, kind=op.kind)
            else:
                result = map_cospow(S, kind=op.kind)
    except MappingError as exc:
        return Refused(str(exc))
    with tracer.span("expr.to_text"):
        to_text(result.closed_form)
        [to_text(p) for p in result.singular_points]
    return result


def run_diagnostics(op, result, tracer):
    """Traced only: the operator application and the guarded rewrites that
    map_fourier/map_cospow perform on this request's input, timed on their
    own, so that mapping's own share is the map time minus these two."""
    from trigsum.expr import PI, div, fold, func, mul, rational, substitute
    from trigsum.operators import simplify_collect
    from trigsum.trigpoly import collect_terms
    if op.family == "operator" or isinstance(result, Refused):
        return
    S = parse_expr(op.text)
    x = symbol("x")
    if op.family == "fourier":
        c = parse_expr(op.c_text) if op.c_text else symbol("c")
        theta = collect_terms(fold(div(mul(PI, x), c)))
        Sz = substitute(S, {"t": func("exp", symbol("z"))})
        with tracer.span("operators.apply.in_map"):
            pair = apply_operator(Sz, rational(0), theta, var="z")
        part = pair.cos_part if op.kind == "cosine" else pair.sin_part
    else:
        arg = mul(func("cos", x), func("cos", x))
        shift = mul(func("sin", x), func("cos", x))
        with tracer.span("operators.apply.in_map"):
            pair = apply_operator(S, arg, shift, var="t")
        part = pair.cos_part if op.kind == "cos" else pair.sin_part
    with tracer.span("operators.simplify"):
        simplify_collect(part)


def describe(op) -> str:
    where = f" c={op.c_text or 'c'}" if op.family == "fourier" else ""
    return f"{op.family} {op.kind}{where} S={op.text}"


def output_nodes(result) -> int:
    if isinstance(result, Refused) or not hasattr(result, "closed_form"):
        return 0
    count, stack = 0, [result.closed_form]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.args)
    return count


def counters(results) -> dict:
    """Per-pass counts for the traced run."""
    return {"mapping.output_nodes": sum(output_nodes(r) for r in results),
            "mapping.refused": sum(isinstance(r, Refused) for r in results)}


def _close(got, want) -> bool:
    """Agreement to 1e-12 relative, the acceptance gate's operator tolerance;
    evaluation is at 30 digits, so this leaves room for the conditioning
    near a log singularity of the closed form."""
    import mpmath as mp
    return abs(got - want) <= mp.mpf(10) ** -12 * max(1, abs(want))


def check(op, result):
    import mpmath as mp
    from trigsum.expr import EvalError, eval_real
    if isinstance(result, Refused):
        return None
    with mp.workdps(CHECK_DIGITS):
        if op.family == "operator":
            for x, h in op.points:
                ref = op.fn(mp.mpc(x, h))
                b = {"x": x, "h": h}
                try:
                    got = (eval_real(result.cos_part, b, CHECK_DIGITS),
                           eval_real(result.sin_part, b, CHECK_DIGITS))
                except EvalError as exc:
                    return f"evaluation failed at {(x, h)}: {exc}"
                if not (_close(got[0], ref.real) and _close(got[1], ref.imag)):
                    return (f"pair {mp.nstr(got[0], 8)}, {mp.nstr(got[1], 8)}"
                            f" but f(x+ih) = {mp.nstr(ref, 8)} at {(x, h)}")
            return None
        lo, hi = (0.05, 0.95) if result.validity_ratio is None else map(float, result.validity_ratio)
        for frac in op.points:
            ratio = mp.mpf(lo) + frac * (mp.mpf(hi) - mp.mpf(lo))
            if op.family == "fourier":
                x = ratio * op.c_value
                t = mp.expj(mp.pi * ratio)
            else:
                x = ratio * mp.pi
                t = mp.cos(x) * mp.expj(x)
            value = op.fn(t)
            ref = value.real if op.kind in ("cosine", "cos") else value.imag
            try:
                got = eval_real(result.closed_form, {"x": x, "c": op.c_value or 1},
                                CHECK_DIGITS)
            except EvalError as exc:
                return f"closed form failed at x/unit={mp.nstr(ratio, 6)}: {exc}"
            if not _close(got, ref):
                return (f"closed form {mp.nstr(got, 10)} but series "
                        f"value {mp.nstr(ref, 10)} at x/unit={mp.nstr(ratio, 6)}")
    return None


# Defects found by this workload's checks, each run by name in every
# symbolic run.
PROBES = {
    "map-ln-negative-shift":
        "the ln rule's arccot(u/w) takes the wrong branch where the shift part "
        "w is negative: map_fourier(-ln(1-t/2), sine) and map_cospow(Example 2, "
        "cos) are off by pi; the grammar leaves these inputs out",
    "map-artanh-singularity":
        "map_fourier(arctan(t), sine) = artanh(sin(pi x/c))/2 diverges at "
        "x = c/2, which is missing from singular_points",
}


def run_probe(name: str):
    """None when the probe passes (correct closed forms or documented
    refusals), else a one-line reason."""
    import mpmath as mp
    from fractions import Fraction
    if name == "map-artanh-singularity":
        result = run_op(Op("fourier", "sine", "arctan(t)", None), NoTracer())
        if isinstance(result, Refused) or Fraction(1, 2) in result.singular_ratios:
            return None
        return f"singular ratios {[str(r) for r in result.singular_ratios]} miss 1/2"
    if name != "map-ln-negative-shift":
        raise ValueError(name)
    cases = [Op("fourier", "sine", "-ln(1-t/2)", lambda t: -mp.log(1 - t / 2),
                None, mp.mpf(13) / 10, [0.2, 0.5, 0.8]),
             Op("cospow", "cos", grammar.EXAMPLE2_SUM, grammar.example2_sum,
                points=[0.2, 0.5, 0.8])]
    for op in cases:
        reason = check(op, run_op(op, NoTracer()))
        if reason:
            return f"{describe(op)}: {reason}"
    return None
