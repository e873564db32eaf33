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

where (u, w) is the operator pair of the argument; the walk starts at the
variable itself with the pair (arg, shift).  Products use
  C[vu] = C[v]C[u] - S[v]S[u],  S[vu] = C[v]S[u] + S[v]C[u],
quotients the conjugate form with denominator C[v]^2 + S[v]^2, and
composition reuses the same table with the argument's pair substituted.
A power takes the binomial expansion of (u + i w)^m over its base's one
pair (u, w):
  C[v^m] = sum_k (-1)^k C(m,2k) u^(m-2k) w^(2k)
  S[v^m] = sum_k (-1)^k C(m,2k+1) u^(m-2k-1) w^(2k+1)
and a negative power one quotient more; |m| above ``expr.MAX_POWER`` is
refused before any term is built.

The complex-shift evaluation Re/Im f(x + ih) is the ground-truth oracle for
every rule.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Sequence, Tuple

from .expr import (
    Expr, ExprError, EvalError, MAX_POWER, ZERO, ONE,
    add, sub, mul, div, neg, ipow, func, rational,
    free_symbols, fold, is_zero, postorder, rebuild, substitute,
)
from .trigpoly import (
    AngleLocus, UnsolvableLocusError,
    collapse_inverse_trig, collect_terms, fold_const_denominator,
)

if TYPE_CHECKING:  # the functions that compute numbers import it themselves
    import mpmath as mp

__all__ = [
    "OperatorPair",
    "UnsupportedHeadError",
    "apply_operator",
    "complex_shift_oracle",
    "verify_inverse_system",
    "simplify_collect",
    "SUPPORTED_HEADS",
]


class UnsupportedHeadError(ExprError):
    pass


class OperatorPair(NamedTuple):
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
    """Apply the operator pair to ``e`` in ``var``, children before parents
    over ``expr.postorder``, each distinct node once.

    ``arg``/``shift`` are substituted for the variable's pair at the leaves,
    so symbolic as well as concrete shifts work.  No series is ever
    generated.  Raises UnsupportedHeadError for heads without a table entry
    (e.g. tanh) applied to a var-dependent argument.
    """
    if is_zero(fold(shift)):
        # zero shift: identity and annihilator, structurally
        return OperatorPair(substitute(e, {var: arg}), ZERO, arg, shift)
    pairs: Dict[Expr, Tuple[Expr, Expr]] = {}
    for x in postorder((e,), lambda x: var not in free_symbols(x)):
        pairs[x] = _pair(x, pairs, arg, shift, var)
    cos_p, sin_p = pairs[e]
    return OperatorPair(fold(cos_p), fold(sin_p), arg, shift)


def _pair(e: Expr, pairs: Dict, arg: Expr, shift: Expr, var: str) -> Tuple[Expr, Expr]:
    """One node of ``apply_operator``'s walk, its children's pairs in
    ``pairs``; the walk does not go into a subtree free of ``var``."""
    if var not in free_symbols(e):
        return e, ZERO
    if e.kind == "sym":
        return arg, shift
    if e.kind == "neg":
        c, s = pairs[e.args[0]]
        return neg(c), neg(s)
    if e.kind == "add":
        (c1, s1), (c2, s2) = pairs[e.args[0]], pairs[e.args[1]]
        return add(c1, c2), add(s1, s2)
    if e.kind == "mul":
        return _product_pair(pairs[e.args[0]], pairs[e.args[1]])
    if e.kind == "div":
        return _quotient_pair(pairs[e.args[0]], pairs[e.args[1]])
    if e.kind == "pow":
        n = e.value
        if abs(n) > MAX_POWER:
            raise ExprError(f"power exponent {n} exceeds {MAX_POWER} in magnitude")
        out = _power_pair(pairs[e.args[0]], abs(n))
        return _quotient_pair((ONE, ZERO), out) if n < 0 else out
    if e.kind == "call":
        x, y = pairs[e.args[0]]
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


def _power_pair(uw: Tuple[Expr, Expr], m: int) -> Tuple[Expr, Expr]:
    """The pair of the m-th power from one base pair (u, w): the binomial
    expansion of (u + i w)^m, split into its real and imaginary terms."""
    u, w = uw
    parts = [ZERO, ZERO]
    for j in range(m + 1):
        term = mul(rational(comb(m, j)), mul(ipow(u, m - j), ipow(w, j)))
        step = sub if j % 4 > 1 else add  # i^j is -1 or -i
        parts[j % 2] = step(parts[j % 2], term)
    return parts[0], parts[1]


def _quotient_pair(uv: Tuple[Expr, Expr], wv: Tuple[Expr, Expr]) -> Tuple[Expr, Expr]:
    (cu, su), (cv, sv) = uv, wv
    den = add(ipow(cv, 2), ipow(sv, 2))
    cos_p = div(add(mul(cv, cu), mul(sv, su)), den)
    sin_p = div(sub(mul(cv, su), mul(sv, cu)), den)
    return cos_p, sin_p


def complex_shift_oracle(e: Expr, x, h, digits: int = 30,
                         var: str = "x") -> Tuple[mp.mpf, mp.mpf]:
    """Ground truth for apply_operator: (Re, Im) of e evaluated at x + i h.

    This is the one-point form; to check a pair at many points, evaluate e
    through one ``evaluate.eval_complex_batch`` call with ``var`` bound to
    each x + i h, and the pair through one ``eval_real_batch`` call."""
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
    from .evaluate import eval_real_batch
    gx = apply_operator(g, pair.cos_part, pair.sin_part, var=var)
    arg_s, shift_s = pair.argument, pair.shift
    exprs = (gx.cos_part, gx.sin_part, arg_s, shift_s)
    names = frozenset().union(*map(free_symbols, exprs))
    for x, h in samples:
        binding = {}
        for name in names:
            if name == "x":
                binding[name] = x
            elif name == "h":
                binding[name] = h
            else:
                raise EvalError(f"unexpected free symbol {name!r}")
        try:
            [(lhs_c, lhs_s, want_c, want_s)] = eval_real_batch(exprs, [binding],
                                                               digits)
        except EvalError as exc:
            raise EvalError(f"evaluation failed at sample {(x, h)}: {exc}") from exc
        if abs(lhs_c - want_c) > tol or abs(lhs_s - want_s) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# guarded simplification

class SimplifyOutcome(NamedTuple):
    expr: Expr
    guards: List[Tuple[AngleLocus, Expr]]  # locus + the base-angle expression
    branch_rewrites: int


def _simplify_node(x: Expr, done: Dict) -> Tuple[Expr, Tuple, int]:
    """One node of ``simplify_collect``'s walk: the rewritten node with the
    guards and the branch count of its subtree, its children's in ``done``."""
    if x.kind in ("rat", "pi", "sym"):
        return x, (), 0
    children = [done[a] for a in x.args]
    guards = tuple(g for _, child_guards, _ in children for g in child_guards)
    branches = sum(n for _, _, n in children)
    args = tuple(child for child, _, _ in children)
    out = x if args == x.args else rebuild(x, args)     # x is folded
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
            guards += tuple((locus, hit.base) for locus in hit.guards)
            branches += hit.branch
            out = hit.expr
    return out, guards, branches


def simplify_collect(e: Expr) -> SimplifyOutcome:
    """Collapse arccot/arctan sub-expressions and combine like terms,
    recording the guard loci of every rewrite.

    The rewrites are the finite rule list of the closed-form pipeline:
    inverse-trig collapse in the (cos, sin) polynomial normal form (which
    realizes the half-angle contractions, quotient cancellations and
    tan/cot collapses), the degenerate-denominator arctan value, and exact
    recombination of like terms.  Rewrites that pull a sign out of arccot
    use the odd convention (branch bookkeeping); everything else is
    pointwise exact.  Each distinct node is rewritten once, and a repeated
    subterm adds its subtree's guards and branch count at each of its
    occurrences.
    """
    done: Dict[Expr, Tuple[Expr, Tuple, int]] = {}
    for x in postorder((fold(e),)):
        done[x] = _simplify_node(x, done)
    out, guards, branches = done[x]     # the root, which comes last
    return SimplifyOutcome(collect_terms(out), list(guards), branches)
