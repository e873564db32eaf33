"""Structural application of the shift-generator operator pair.

For a fixed shift h, the operators C and S act on elementary functions of x
so that C[f] + i S[f] = f(x + i h) off singularities.  They are computed
here by a closed-form rule table plus three algorithms (quotient, product,
composition), never by series expansion:

  C[e^u] = cos(w) e^u                    S[e^u] = sin(w) e^u
  C[sin u] = cosh(w) sin u               S[sin u] = sinh(w) cos u
  C[cos u] = cosh(w) cos u               S[cos u] = -sinh(w) sin u
  C[tan u] = sin 2u / (cosh 2w + cos 2u) S[tan u] = sinh 2w / (cosh 2w + cos 2u)
  C[ln u] = (1/2) ln(u^2 + w^2)          S[ln u] = arccot(u / w)
  ... (cot, sec, csc, arctan, arccot, sinh, cosh, sqrt)

where (u, w) is the operator pair of the argument; the recursion bottoms out
at the variable itself with the pair (arg, shift).  Products use
  C[vu] = C[v]C[u] - S[v]S[u],  S[vu] = C[v]S[u] + S[v]C[u],
quotients the conjugate form with denominator C[v]^2 + S[v]^2, and
composition reuses the same table with the argument's pair substituted.

The complex-shift evaluation Re/Im f(x + ih) is the ground-truth oracle for
every rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from .expr import (
    Expr, ExprError, EvalError, ZERO, ONE,
    add, sub, mul, div, neg, ipow, func, rational,
    free_symbols, fold, is_zero, rebuild,
)
from .trigpoly import (
    AngleLocus, UnsolvableLocusError,
    collapse_inverse_trig, collect_terms, fold_const_denominator, split_rational,
)

if TYPE_CHECKING:  # the functions that compute numbers import it themselves
    import mpmath as mp

__all__ = [
    "OperatorPair",
    "UnsupportedHeadError",
    "apply_operator",
    "complex_shift_oracle",
    "verify_inverse_system",
    "simplify_guarded",
    "simplify_collect",
    "SUPPORTED_HEADS",
]


class UnsupportedHeadError(ExprError):
    pass


@dataclass(frozen=True)
class OperatorPair:
    """Images (cos_part, sin_part) of an expression under the operator pair.

    At any sample point off singularities, cos_part and sin_part equal the
    real and imaginary parts of the input evaluated at argument + i*shift.
    """
    cos_part: Expr
    sin_part: Expr
    argument: Expr
    shift: Expr


_HALF = rational(1, 2)
_TWO = rational(2)


def _rule_exp(u, w):
    e = func("exp", u)
    return mul(func("cos", w), e), mul(func("sin", w), e)


def _rule_sin(u, w):
    return mul(func("cosh", w), func("sin", u)), mul(func("sinh", w), func("cos", u))


def _rule_cos(u, w):
    return mul(func("cosh", w), func("cos", u)), neg(mul(func("sinh", w), func("sin", u)))


def _rule_tan(u, w):
    den = add(func("cosh", mul(_TWO, w)), func("cos", mul(_TWO, u)))
    return div(func("sin", mul(_TWO, u)), den), div(func("sinh", mul(_TWO, w)), den)


def _rule_cot(u, w):
    den = sub(func("cosh", mul(_TWO, w)), func("cos", mul(_TWO, u)))
    return (div(func("sin", mul(_TWO, u)), den),
            div(func("sinh", mul(_TWO, w)),
                sub(func("cos", mul(_TWO, u)), func("cosh", mul(_TWO, w)))))


def _rule_sec(u, w):
    den = add(func("cosh", mul(_TWO, w)), func("cos", mul(_TWO, u)))
    return (div(mul(_TWO, mul(func("cosh", w), func("cos", u))), den),
            div(mul(_TWO, mul(func("sinh", w), func("sin", u))), den))


def _rule_csc(u, w):
    den = sub(func("cosh", mul(_TWO, w)), func("cos", mul(_TWO, u)))
    return (div(mul(_TWO, mul(func("cosh", w), func("sin", u))), den),
            div(mul(_TWO, mul(func("sinh", w), func("cos", u))),
                sub(func("cos", mul(_TWO, u)), func("cosh", mul(_TWO, w)))))


def _rule_ln(u, w):
    mod2 = add(ipow(u, 2), ipow(w, 2))
    return mul(_HALF, func("ln", mod2)), func("arccot", div(u, w))


def _rule_arctan(u, w):
    s2 = add(ipow(u, 2), ipow(w, 2))
    return (mul(_HALF, func("arctan", div(mul(_TWO, u), sub(ONE, s2)))),
            mul(_HALF, func("artanh", div(mul(_TWO, w), add(ONE, s2)))))


def _rule_arccot(u, w):
    s2 = add(ipow(u, 2), ipow(w, 2))
    return (mul(_HALF, func("arccot", div(sub(s2, ONE), mul(_TWO, u)))),
            neg(mul(_HALF, func("arcoth", div(add(ONE, s2), mul(_TWO, w))))))


def _rule_cosh(u, w):
    return mul(func("cos", w), func("cosh", u)), mul(func("sin", w), func("sinh", u))


def _rule_sinh(u, w):
    return mul(func("cos", w), func("sinh", u)), mul(func("sin", w), func("cosh", u))


def _rule_sqrt(u, w):
    r = func("sqrt", add(ipow(u, 2), ipow(w, 2)))
    return (func("sqrt", div(add(r, u), _TWO)),
            func("sqrt", div(sub(r, u), _TWO)))


_RULES: Dict[str, Callable[[Expr, Expr], Tuple[Expr, Expr]]] = {
    "exp": _rule_exp, "sin": _rule_sin, "cos": _rule_cos,
    "tan": _rule_tan, "cot": _rule_cot, "sec": _rule_sec, "csc": _rule_csc,
    "ln": _rule_ln, "arctan": _rule_arctan, "arccot": _rule_arccot,
    "cosh": _rule_cosh, "sinh": _rule_sinh, "sqrt": _rule_sqrt,
}

SUPPORTED_HEADS = tuple(sorted(_RULES))


def apply_operator(e: Expr, arg: Expr, shift: Expr, var: str = "x") -> OperatorPair:
    """Apply the operator pair to ``e`` in ``var`` by structural recursion.

    ``arg``/``shift`` are substituted for the variable's pair at the leaves,
    so symbolic as well as concrete shifts work.  No series is ever
    generated.  Raises UnsupportedHeadError for heads without a table entry
    (e.g. tanh) applied to a var-dependent argument.
    """
    from .expr import substitute
    if is_zero(fold(shift)):
        # zero shift: identity and annihilator, structurally
        return OperatorPair(substitute(e, {var: arg}), ZERO, arg, shift)
    cos_p, sin_p = _pair(e, arg, shift, var)
    return OperatorPair(fold(cos_p), fold(sin_p), arg, shift)


def _pair(e: Expr, arg: Expr, shift: Expr, var: str) -> Tuple[Expr, Expr]:
    if var not in free_symbols(e):
        return e, ZERO
    if e.kind == "sym":
        return arg, shift
    if e.kind == "neg":
        c, s = _pair(e.args[0], arg, shift, var)
        return neg(c), neg(s)
    if e.kind == "add":
        c1, s1 = _pair(e.args[0], arg, shift, var)
        c2, s2 = _pair(e.args[1], arg, shift, var)
        return add(c1, c2), add(s1, s2)
    if e.kind == "mul":
        c1, s1 = _pair(e.args[0], arg, shift, var)
        c2, s2 = _pair(e.args[1], arg, shift, var)
        return _product_pair((c1, s1), (c2, s2))
    if e.kind == "div":
        cu, su = _pair(e.args[0], arg, shift, var)
        cv, sv = _pair(e.args[1], arg, shift, var)
        return _quotient_pair((cu, su), (cv, sv))
    if e.kind == "pow":
        n = e.value
        base = _pair(e.args[0], arg, shift, var)
        out = (ONE, ZERO)
        for _ in range(abs(n)):
            out = _product_pair(out, base)
        if n < 0:
            out = _quotient_pair((ONE, ZERO), out)
        return out
    if e.kind == "call":
        x, y = _pair(e.args[0], arg, shift, var)
        if is_zero(fold(y)):
            # zero shift: the operators act as identity and annihilator
            return func(e.value, x), ZERO  # type: ignore[arg-type]
        rule = _RULES.get(e.value)  # type: ignore[arg-type]
        if rule is None:
            raise UnsupportedHeadError(
                f"no operator rule for head {e.value!r}")
        return rule(x, y)
    raise ExprError(f"unknown node kind {e.kind!r}")


def _product_pair(uv: Tuple[Expr, Expr], wv: Tuple[Expr, Expr]) -> Tuple[Expr, Expr]:
    (cu, su), (cv, sv) = uv, wv
    return sub(mul(cu, cv), mul(su, sv)), add(mul(cu, sv), mul(su, cv))


def _quotient_pair(uv: Tuple[Expr, Expr], wv: Tuple[Expr, Expr]) -> Tuple[Expr, Expr]:
    (cu, su), (cv, sv) = uv, wv
    den = add(ipow(cv, 2), ipow(sv, 2))
    cos_p = div(add(mul(cv, cu), mul(sv, su)), den)
    sin_p = div(sub(mul(cv, su), mul(sv, cu)), den)
    return cos_p, sin_p


def complex_shift_oracle(e: Expr, x, h, digits: int = 30,
                         var: str = "x") -> Tuple[mp.mpf, mp.mpf]:
    """Ground truth for apply_operator: (Re, Im) of e evaluated at x + i h."""
    import mpmath as mp
    from .evaluate import eval_complex
    with mp.workdps(digits):
        z = mp.mpc(mp.mpf(x), mp.mpf(h))
        val = eval_complex(e, {var: z}, digits)
        return +val.real, +val.imag


def verify_inverse_system(g: Expr, pair: OperatorPair,
                          samples: Sequence[Tuple[float, float]],
                          tol: float = 1e-12, var: str = "y",
                          digits: int = 25) -> bool:
    """Check the inverse-function system for an operator pair.

    If the pair belongs to f and ``g`` is the inverse of f (g(f(t)) = t),
    then substituting X = cos_part, Y = sin_part into g's own operator
    images must return the original argument and shift:
        C_g(X; Y) = arg_value,  S_g(X; Y) = shift_value
    at every sample (x, h).  Raises EvalError (annotated with the failing
    sample) if evaluation breaks down.
    """
    from .evaluate import eval_real
    gx = apply_operator(g, pair.cos_part, pair.sin_part, var=var)
    arg_s, shift_s = pair.argument, pair.shift
    for x, h in samples:
        binding = {}
        for name in (free_symbols(gx.cos_part) | free_symbols(gx.sin_part)
                     | free_symbols(arg_s) | free_symbols(shift_s)):
            if name == "x":
                binding[name] = x
            elif name == "h":
                binding[name] = h
            else:
                raise EvalError(f"unexpected free symbol {name!r}")
        try:
            lhs_c = eval_real(gx.cos_part, binding, digits)
            lhs_s = eval_real(gx.sin_part, binding, digits)
            want_c = eval_real(arg_s, binding, digits)
            want_s = eval_real(shift_s, binding, digits)
        except EvalError as exc:
            raise EvalError(f"evaluation failed at sample {(x, h)}: {exc}") from exc
        if abs(lhs_c - want_c) > tol or abs(lhs_s - want_s) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# guarded simplification

@dataclass
class SimplifyOutcome:
    expr: Expr
    guards: List[Tuple[AngleLocus, Expr]]  # locus + the base-angle expression
    branch_rewrites: int


def _simplify_walk(e: Expr, accept) -> SimplifyOutcome:
    """Bottom-up rewrite pass; ``accept(guards, base)`` may veto a collapse.

    Each distinct node is rewritten once: a repeated subterm replays the
    result, guards and branch count of its first visit."""
    guards: List[Tuple[AngleLocus, Expr]] = []
    branches = 0
    seen: Dict[Expr, Tuple[Expr, List, int]] = {}

    def walk(x: Expr) -> Expr:
        nonlocal branches
        if x.kind in ("rat", "pi", "sym"):
            return x
        if x in seen:
            out, added, n = seen[x]
            guards.extend(added)
            branches += n
            return out
        start, start_branches = len(guards), branches
        out = rebuild(x, tuple(walk(a) for a in x.args))
        if x.kind == "div" and out.kind == "div":
            folded = fold_const_denominator(out.args[0], out.args[1])
            if folded is not None:
                out = folded
        if out.kind == "call" and out.value in ("arccot", "arctan"):
            try:
                hit = collapse_inverse_trig(out.value, out.args[0])
            except UnsolvableLocusError:
                hit = None
            if hit is not None:
                if accept is None or accept(hit.guards, hit.base):
                    guards.extend((locus, hit.base) for locus in hit.guards)
                    if hit.branch:
                        branches += 1
                    out = hit.expr
        seen[x] = (out, guards[start:], branches - start_branches)
        return out

    result = collect_terms(walk(fold(e)))
    return SimplifyOutcome(result, guards, branches)


def simplify_collect(e: Expr) -> SimplifyOutcome:
    """Collapse arccot/arctan sub-expressions and combine like terms,
    recording the guard loci of every rewrite.

    The rewrites are the finite rule list of the closed-form pipeline:
    inverse-trig collapse in the (cos, sin) polynomial normal form (which
    realizes the half-angle contractions, quotient cancellations and
    tan/cot collapses), the degenerate-denominator arctan value, and exact
    recombination of like terms.  Rewrites that pull a sign out of arccot
    use the odd convention (branch bookkeeping); everything else is
    pointwise exact.
    """
    return _simplify_walk(e, None)


def simplify_guarded(e: Expr, interval: Tuple[float, float],
                     var: str = "x") -> Expr:
    """Apply the guarded rewrites, keeping each collapse only when its
    guards hold strictly inside the open interval.

    A guard holds when its zero locus meets (lo, hi) at most at the
    endpoints (those are the singular points bounding the interval).
    A violated guard skips that rewrite; it is not an error.  The zeros are
    placed exactly by ``AngleLocus``: a base angle rho*pi*var gives
    rational points, compared exactly with the interval's floats, and a
    base rho*var gives points t*pi/rho, of which only the product with pi
    is a float.  An interval wider than the spacing of a locus's zeros
    holds one, so it vetoes without listing them; for the float points it
    takes twice the spacing, which leaves a zero far from both ends.  A
    base of any other shape skips its rewrite.  Free symbols other than
    ``var`` are taken at 1, which is sound for the homogeneous-in-x/c
    closed forms this pipeline produces.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("empty interval")
    lo_q, hi_q = Fraction(lo), Fraction(hi)
    # the window, in units of pi, that holds (lo, hi) for a base rho*var
    lo_pi = Fraction(math.floor(lo / math.pi) - 1)
    hi_pi = Fraction(math.ceil(hi / math.pi) + 1)

    def meets(locus: AngleLocus, base: Expr) -> bool:
        names = free_symbols(base)
        if var not in names:
            return False
        rho, key = split_rational(base)
        shape = {name: exp for name, exp in key if name == var or name not in names}
        zeros = locus.scaled(rho)
        if shape == {"pi": 1, var: 1}:
            return (hi_q - lo_q > zeros.modulus
                    or any(lo_q < t < hi_q for t in zeros.points_in(lo_q, hi_q)))
        if shape == {var: 1}:
            return (hi - lo > 2 * float(zeros.modulus) * math.pi
                    or any(lo < float(t) * math.pi < hi
                           for t in zeros.points_in(lo_pi, hi_pi)))
        return True

    def accept(loci: List[AngleLocus], base: Expr) -> bool:
        return not any(meets(locus, base) for locus in loci)

    return _simplify_walk(e, accept).expr
