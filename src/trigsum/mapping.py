"""Summation engine: map power-series sum functions to closed forms of the
matching cosine/sine series, with exact singular-point detection.

Two series shapes are supported.  ``map_fourier`` handles coefficients on
cos/sin(n pi x / c): substitute t = e^z, apply the operator pair with shift
pi x / c, take the z -> 0 limit by substitution, and run the guarded
rewrites.  ``map_cospow`` handles the cos(n x) cos^n x family by applying
the pair directly at argument cos^2 x with shift sin x cos x.  The non-
analytical points come out of the rewrite guards (0/0 loci of the collapsed
quotients) plus any denominator zeros surviving in the closed form; the
validity interval is the singularity-free component around the origin.
Every point is placed exactly by ``trigpoly.AngleLocus``, the one placer
that ``operators.simplify_guarded`` also uses, as a rational multiple of
the unit c or pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .expr import (
    Expr, ExprError, EvalError, PI, ZERO,
    add, mul, div, func, rational, symbol, substitute, fold,
)
from .operators import apply_operator, simplify_collect
from .trigpoly import collect_terms
from .trigpoly import (
    AngleLocus, UnsolvableLocusError, split_rational, find_trig_base,
    tpoly_from_expr, polynomial_in, _common_zero_loci,
)

if TYPE_CHECKING:  # the functions that compute numbers import it themselves
    import mpmath as mp

__all__ = [
    "TrigSeriesResult",
    "IntegralStepForm",
    "MappingError",
    "map_fourier",
    "map_cospow",
    "integral_step",
    "detect_singularities",
]


class MappingError(ExprError):
    pass


@dataclass
class TrigSeriesResult:
    """Closed form of a trigonometric series with its analytic bookkeeping.

    Singular ratios are exact rational multiples of the period unit (c for
    the Fourier kinds, pi for the cos-power kinds); the validity interval
    is open and singularity-free.
    """
    closed_form: Expr
    kind: str                       # cosine | sine | cos-cospow | sin-cospow
    unit: Expr                      # c (Fourier) or pi (cos-power)
    period_ratio: Fraction          # period in units of `unit`
    singular_ratios: List[Fraction]  # within the closure of the validity interval
    validity_ratio: Optional[Tuple[Fraction, Fraction]]
    loci: List[Tuple[AngleLocus, Fraction]] = field(default_factory=list)

    @property
    def singular_points(self) -> List[Expr]:
        return [fold(mul(rational(r), self.unit)) for r in self.singular_ratios]

    @property
    def validity_interval(self) -> Optional[Tuple[Expr, Expr]]:
        if self.validity_ratio is None:
            return None
        a, b = self.validity_ratio
        return (fold(mul(rational(a), self.unit)), fold(mul(rational(b), self.unit)))


def _loci_in_x(guards, theta: Expr) -> List[Tuple[AngleLocus, Fraction]]:
    """Convert base-angle loci to x-space: returns (locus, g) pairs where the
    base angle is g * theta and theta is the unit angle (pi x / c or x)."""
    rho_theta, key_theta = split_rational(theta)
    out = []
    for locus, base in guards:
        if base.kind == "rat":
            continue  # constant-argument collapse: no x-dependence
        rho, key = split_rational(base)
        if key != key_theta:
            raise MappingError(
                f"guard base {base} is not a rational multiple of the unit angle")
        out.append((locus, rho / rho_theta))
    return out


def _ratio_points(loci: Sequence[Tuple[AngleLocus, Fraction]],
                  lo: Fraction, hi: Fraction) -> List[Fraction]:
    """All singular ratios r (x = r * unit) with lo <= r <= hi."""
    return sorted({r for locus, g in loci for r in locus.scaled(g).points_in(lo, hi)})


def _component_of_origin(loci) -> Tuple[Optional[Tuple[Fraction, Fraction]],
                                        List[Fraction]]:
    """The singularity-free component around 0+ and its bounding points."""
    if not loci:
        return None, []
    span = max(locus.scaled(g).modulus for locus, g in loci) * 2 + 2
    pts = _ratio_points(loci, -span, span)
    if not pts:
        return None, []
    at_zero = Fraction(0) in pts
    upper = [p for p in pts if p > 0]
    lower = [p for p in pts if p < 0]
    b = min(upper)
    a = Fraction(0) if at_zero else max(lower)
    inside = [p for p in pts if a <= p <= b]
    return (a, b), inside


def _denominator_loci(e: Expr) -> List[Tuple[AngleLocus, Expr]]:
    """Zero loci of denominators surviving in a closed form; each distinct
    node is visited once."""
    found: List[Tuple[AngleLocus, Expr]] = []
    seen = set()

    def walk(x: Expr):
        if x in seen:
            return
        seen.add(x)
        for a in x.args:
            walk(a)
        if x.kind == "div":
            den = x.args[1]
            base = find_trig_base(den)
            if base is None:
                return
            ratio, key, base_expr = base
            D = tpoly_from_expr(den, ratio, key)
            if D is None:
                raise MappingError(f"cannot place zeros of denominator {den}")
            for locus in _common_zero_loci(D, D):
                found.append((locus, base_expr))

    walk(e)
    return found


def _map_common(part: Expr, theta: Expr, kind: str, unit: Expr,
                period_ratio: Fraction) -> TrigSeriesResult:
    """The simplified image with its guard and denominator loci in x; a
    locus that cannot be solved is a MappingError."""
    outcome = simplify_collect(part)
    try:
        loci = _loci_in_x([*outcome.guards, *_denominator_loci(outcome.expr)],
                          theta)
    except UnsolvableLocusError as exc:
        raise MappingError(str(exc)) from exc
    validity, inside = _component_of_origin(loci)
    return TrigSeriesResult(
        closed_form=outcome.expr,
        kind=kind,
        unit=unit,
        period_ratio=period_ratio,
        singular_ratios=inside,
        validity_ratio=validity,
        loci=loci,
    )


def map_fourier(S: Expr, c: Expr | None = None, kind: str = "cosine",
                var: str = "x") -> TrigSeriesResult:
    """Closed form of sum a_n cos(n pi x/c) (or sin) when S(t) = sum a_n t^n.

    Substitutes t = e^z, applies the operator pair with shift pi x/c at
    z = 0, and runs the guarded rewrites.  The result is valid strictly
    between the singular points bounding the origin (the component of 0+
    when 0 itself is singular).
    """
    if kind not in ("cosine", "sine"):
        raise ValueError("kind must be cosine or sine")
    c = c if c is not None else symbol("c")
    theta = collect_terms(fold(div(mul(PI, symbol(var)), c)))
    Sz = substitute(S, {"t": func("exp", symbol("z"))})
    pair = apply_operator(Sz, rational(0), theta, var="z")
    part = pair.cos_part if kind == "cosine" else pair.sin_part
    return _map_common(part, theta, kind, fold(c), Fraction(2))


def map_cospow(S: Expr, kind: str = "cos", var: str = "x") -> TrigSeriesResult:
    """Closed form of sum a_n cos(n x) cos^n(x) (or the sin(n x) variant)
    when S(t) = sum a_n t^n: the operator pair applied at argument
    cos^2 x with shift sin x cos x."""
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be cos or sin")
    x = symbol(var)
    arg = mul(func("cos", x), func("cos", x))
    shift = mul(func("sin", x), func("cos", x))
    pair = apply_operator(S, arg, shift, var="t")
    part = pair.cos_part if kind == "cos" else pair.sin_part
    return _map_common(part, x, f"{kind}-cospow", PI, Fraction(1))


def detect_singularities(result: TrigSeriesResult,
                         window: Optional[Tuple[Fraction, Fraction]] = None
                         ) -> List[Expr]:
    """Exact non-analytical points of a mapped series within a closed
    window, by default one period [0, result.period_ratio].

    The points come from the loci the mapping recorded, placed by
    ``AngleLocus``; they are rational multiples of c (Fourier) or pi
    (cos-power family).
    """
    lo, hi = window if window is not None else (Fraction(0), result.period_ratio)
    return [fold(mul(rational(r), result.unit))
            for r in _ratio_points(result.loci, lo, hi)]


# ---------------------------------------------------------------------------
# the integral-step mapping

@dataclass
class IntegralStepForm:
    """One side of the integral-step mapping.

    cosine side: value(x) = constant - (pi/c) int_0^x inner_image dx'.
    sine side:   value(x) = (pi/c) int_0^x inner_image dx'.
    The scaled integral is exact (integral_symbolic) when the image is
    polynomial in x, adaptive quadrature otherwise.
    """
    kind: str                   # "cosine" | "sine"
    inner_image: Expr           # simplified operator image of S(e^z) e^z at z=0
    c_value: Fraction
    constant: Optional[mp.mpf]  # integral_0^1 S (cosine side); None for sine
    integral_symbolic: Optional[Expr]  # exact (pi/c) * antiderivative, if polynomial

    def eval(self, x, digits: int = 25) -> mp.mpf:
        import mpmath as mp
        from .evaluate import eval_real
        with mp.workdps(digits):
            xm = mp.mpf(x)
            cval = mp.mpf(self.c_value.numerator) / self.c_value.denominator
            if self.integral_symbolic is not None:
                part = eval_real(self.integral_symbolic, {"x": xm, "c": cval}, digits)
            else:
                part = mp.pi / cval * mp.quad(
                    _safe_integrand(self.inner_image, "x", digits, {"c": cval}),
                    [0, xm])
            if self.kind == "cosine":
                return +((self.constant if self.constant is not None else mp.mpf(0)) - part)
            return +part


def _safe_integrand(e: Expr, var: str, digits: int, extra=None):
    """Integrand wrapper tolerating integrable endpoint singularities: nodes
    that land exactly on a log singularity contribute 0."""
    import mpmath as mp
    from .evaluate import eval_real
    extra = extra or {}

    def f(t):
        try:
            return eval_real(e, {**extra, var: t}, digits + 10)
        except EvalError:
            return mp.mpf(0)

    return f


def _poly_antiderivative(coeffs: List[Expr], var: str) -> Expr:
    x = symbol(var)
    out: Expr = ZERO
    power: Expr = x
    for i, a in enumerate(coeffs):
        out = add(out, mul(div(a, rational(i + 1)), power))
        power = mul(power, x)
    return out


def _check_integrable(S: Expr, digits: int) -> None:
    """Reject sum functions with pole-type growth on [0, 1].

    Heuristic: sample towards both endpoints; power-law growth (ratio
    explosion between 1e-3 and 1e-6 distances) or an interior pole is a
    precondition failure.  Integrable log-type endpoint singularities pass.
    """
    import mpmath as mp
    from .evaluate import eval_real
    with mp.workdps(digits):
        def sample(t):
            return eval_real(S, {"t": mp.mpf(t)}, digits)

        for t in [k / 23 for k in range(1, 23)]:
            try:
                sample(t)
            except EvalError as exc:
                raise MappingError(f"S not integrable on [0,1]: {exc}") from exc
        for edge in (0.0, 1.0):
            try:
                near = abs(sample(edge + (1e-3 if edge == 0.0 else -1e-3)))
                nearer = abs(sample(edge + (1e-6 if edge == 0.0 else -1e-6)))
            except EvalError as exc:
                raise MappingError(
                    f"S not integrable on [0,1] near t={edge}: {exc}") from exc
            if nearer > 100 * max(near, 1):
                raise MappingError(
                    f"S has pole-type growth near t={edge}: not integrable")


def integral_step(S: Expr, c: Expr | Fraction | int = Fraction(1),
                  digits: int = 25) -> Tuple[IntegralStepForm, IntegralStepForm]:
    """The integral-step mapping for sum functions given through S with
    int_0^t S = sum_{n>=1} a_n t^n:

        cosine(x) = int_0^1 S - (pi/c) int_0^x  S_img(x') dx'
        sine(x)   =            (pi/c) int_0^x  C_img(x') dx'

    where (C_img, S_img) is the operator image of S(e^z) e^z at z = 0 with
    shift pi x/c.  Polynomial images integrate symbolically; everything
    else uses adaptive quadrature at the requested precision.  c must be a
    positive rational (an int, a Fraction or a rational Expr); anything
    else is a ValueError.
    """
    import mpmath as mp
    c_frac = c.value if isinstance(c, Expr) and c.kind == "rat" else c
    if not isinstance(c_frac, (int, Fraction)) or c_frac <= 0:
        raise ValueError(f"c must be a positive rational, not {str(c)!r}")
    c_frac = Fraction(c_frac)
    _check_integrable(S, digits)
    c_expr = rational(c_frac)
    theta = fold(div(mul(PI, symbol("x")), c_expr))
    inner = mul(substitute(S, {"t": func("exp", symbol("z"))}),
                func("exp", symbol("z")))
    pair = apply_operator(inner, rational(0), theta, var="z")
    cos_img = simplify_collect(pair.cos_part).expr
    sin_img = simplify_collect(pair.sin_part).expr

    with mp.workdps(digits):
        s_integral = +mp.quad(_safe_integrand(S, "t", digits), [0, 1])

    def build(kind: str, image: Expr, constant) -> IntegralStepForm:
        coeffs = polynomial_in(image, "x")
        integral_symbolic = None
        if coeffs is not None:
            anti = _poly_antiderivative(coeffs, "x")
            integral_symbolic = fold(mul(div(PI, c_expr), anti))
        return IntegralStepForm(kind=kind, inner_image=image,
                                c_value=c_frac, constant=constant,
                                integral_symbolic=integral_symbolic)

    cosine = build("cosine", sin_img, s_integral)
    sine = build("sine", cos_img, None)
    return cosine, sine
