"""Summation engine: map power-series sum functions to closed forms of the
matching cosine/sine series, with exact singular-point detection.

Both series shapes are one mapping.  If S(t) = sum a_n t^n, the series is
Re or Im of S at a point t(theta) on a circle, so the operator pair is
applied to S with the variable's pair (Re t, Im t) and the real or
imaginary image is simplified.  ``map_fourier`` handles coefficients on
cos/sin(n pi x / c) at t = e^{i theta}, theta = pi x / c: the point
(cos theta, sin theta).  ``map_cospow`` handles the cos(n x) cos^n x family
at t = cos x e^{ix} = (1 + e^{2ix})/2: the point
(1/2 + 1/2 cos 2x, 1/2 sin 2x), with the unit angle x.  The non-analytical
points come out of the rewrite guards (0/0 loci of the collapsed
quotients) plus any denominator zeros surviving in the closed form; the
validity interval is the singularity-free component around the origin.
Every point is placed exactly by ``trigpoly.AngleLocus``, as a rational
multiple of the unit c or pi.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .expr import (
    Expr, ExprError, PI,
    add, mul, div, func, rational, symbol, fold, postorder,
)
from .operators import apply_operator, simplify_collect
from .trigpoly import (
    AngleLocus, UnsolvableLocusError, collect_terms, split_rational,
    find_trig_base, tpoly_from_expr, _common_zero_loci,
)

__all__ = [
    "TrigSeriesResult",
    "MappingError",
    "map_fourier",
    "map_cospow",
    "detect_singularities",
]


class MappingError(ExprError):
    pass


class TrigSeriesResult(NamedTuple):
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
    loci: List[Tuple[AngleLocus, Fraction]]

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
    for x in postorder((e,)):
        base = find_trig_base(x.args[1]) if x.kind == "div" else None
        if base is not None:
            ratio, key, base_expr = base
            D = tpoly_from_expr(x.args[1], ratio, key)
            if D is None:
                raise MappingError(f"cannot place zeros of denominator {x.args[1]}")
            found.extend((locus, base_expr) for locus in _common_zero_loci(D, D))
    return found


def _map_common(S: Expr, point: Tuple[Expr, Expr], cos_kind: bool,
                theta: Expr, kind: str, unit: Expr,
                period_ratio: Fraction) -> TrigSeriesResult:
    """Re (``cos_kind``) or Im of S at the circle point (Re t, Im t),
    simplified, with its guard and denominator loci in x; a locus that
    cannot be solved is a MappingError."""
    pair = apply_operator(fold(S), *point, var="t")
    outcome = simplify_collect(pair.cos_part if cos_kind else pair.sin_part)
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
    """Closed form of sum a_n cos(n pi x/c) (or sin) when S(t) = sum a_n t^n:
    S at the circle point t = e^{i theta}, theta = pi x/c.

    The result is valid strictly between the singular points bounding the
    origin (the component of 0+ when 0 itself is singular).
    """
    if kind not in ("cosine", "sine"):
        raise ValueError("kind must be cosine or sine")
    c = c if c is not None else symbol("c")
    theta = collect_terms(fold(div(mul(PI, symbol(var)), c)))
    return _map_common(S, (func("cos", theta), func("sin", theta)),
                       kind == "cosine", theta, kind, fold(c), Fraction(2))


def map_cospow(S: Expr, kind: str = "cos", var: str = "x") -> TrigSeriesResult:
    """Closed form of sum a_n cos(n x) cos^n(x) (or the sin(n x) variant)
    when S(t) = sum a_n t^n: S at the circle point
    t = cos x e^{ix} = (1 + e^{2ix})/2."""
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be cos or sin")
    x = symbol(var)
    half, two_x = rational(1, 2), mul(rational(2), x)
    point = (add(half, mul(half, func("cos", two_x))), mul(half, func("sin", two_x)))
    return _map_common(S, point, kind == "cos", x, f"{kind}-cospow", PI,
                       Fraction(1))


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
