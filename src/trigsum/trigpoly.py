"""Exact normal forms for trigonometric rational expressions.

The guarded rewrites used when assembling closed forms all reduce to one
normal form: a quotient N/D of polynomials in (c, s) = (cos B, sin B) over
the field Q(sqrt 3), with s^2 reduced by s^2 = 1 - c^2, where B is a common
base angle discovered from the expression.  In that form,

  * quotient cancellations are univariate gcd computations,
  * the half-angle contractions 1 - cos B = 2 sin^2(B/2) etc. become the
    pattern pairs (1-c, s), (1+c, s), (s, 1-c), (s, 1+c),
  * arccot(tan u) / arccot(cot u) collapses are cross-multiplication
    identities N*c == D*s (mod the circle relation),
  * the points where an identity can fail are exactly the common zeros of
    (N, D) on the unit circle ("0/0 points"), which this module solves in
    closed form as rational-multiple-of-pi angle loci.

The exact arithmetic has one layout.  A polynomial in c over Q(sqrt 3) is a
half: a pair (A, B) of trimmed integer coefficient tuples meaning
A(c) + sqrt3*B(c).  A TPoly is two halves over one positive denominator,
and a number of Q(sqrt 3) is a constant TPoly.  So the ring rules of
Z[sqrt3] (``_kmul``) and content normalization (``_primitive``) are each
written once, and the gcds and rational roots that place the 0/0 points
run on the halves themselves.

arccot carries the convention arccot(t) = pi/2 - arctan(t) with range
(0, pi); collapse rewrites marked "branch" below extend that principal
value continuously across branch jumps, which is the convention under
which the closed forms equal their series sums on the whole validity
interval.

Every pass here is a loop over the one walk of ``trigsum.expr``,
``postorder``.  A result that depends on the node alone is kept in a slot
on the node, filled by ``expr.fill``: the split of a product into
coefficient and factors (``split_rational``) and the multilinear expansion
of ``collect_terms``; an atom's split or expansion would hold the atom
itself, so it is built when asked, not kept.  A pass that depends on its
call's arguments, such as TPoly extraction in a base angle or the search
for that angle, keeps one dict per call over the walk.
Factor maps are keyed on the interned atom; printed text is only the sort
key of output order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Tuple

from .expr import (
    Expr, PI, ZERO, ONE,
    add, sub, mul, div, neg, ipow, func, rational, is_rat, rat_value,
    fill, postorder, to_text,
)

__all__ = [
    "TPoly", "AngleLocus", "CollapseResult",
    "split_rational", "find_trig_base", "tpoly_from_expr",
    "collapse_inverse_trig", "collect_terms",
]


# ---------------------------------------------------------------------------
# Q(sqrt3) and polynomials in c over it, in one layout: a half is a pair
# (A, B) of trimmed integer coefficient tuples, low degree first, meaning
# A(c) + sqrt3*B(c); a number is a half of degree 0

_KZERO = ((), ())


def _ztrim(p) -> Tuple[int, ...]:
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return tuple(p[:n])


def _zadd(p, q):
    if len(p) < len(q):
        p, q = q, p
    if not q:
        return p
    out = list(p)
    for i, v in enumerate(q):
        out[i] += v
    return _ztrim(out)


def _zscale(p, k: int):
    return tuple(k * v for v in p) if k else ()


def _zmul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)  # the leading coefficients are nonzero, so is theirs


def _zeval(p, num, den=1):
    """den^(len(p) - 1) * p(num/den), by Horner: with den = 1 the value at
    num, and in integers zero exactly where p vanishes at num/den."""
    acc, scale = 0, 1
    for v in reversed(p):
        acc = acc * num + v * scale
        scale *= den
    return acc


def _kadd(p, q):
    return _zadd(p[0], q[0]), _zadd(p[1], q[1])


def _kscale(p, k: int):
    return _zscale(p[0], k), _zscale(p[1], k)


def _kmul(p, q):
    """The product in Z[sqrt3][c], the one place of sqrt3 * sqrt3 = 3."""
    (a, b), (c, d) = p, q
    if not b and not d:
        return _zmul(a, c), ()
    return (_zadd(_zmul(a, c), _zscale(_zmul(b, d), 3)),
            _zadd(_zmul(a, d), _zmul(b, c)))


def _kdeg(p) -> int:
    """The degree of a half, -1 for zero."""
    return max(len(p[0]), len(p[1])) - 1


def _klead(p, shift: int = 0, k: int = 1):
    """k * lc(p) * c^shift as a half, lc(p) the leading coefficient."""
    n, pad = _kdeg(p), (0,) * shift
    A, B = p[0][n:], p[1][n:]   # (the part of lc(p),) or () when it is 0
    return pad + _zscale(A, k) if A else (), pad + _zscale(B, k) if B else ()


def _kvanishes(p, num: int, den: int = 1) -> bool:
    """p(num/den) == 0: a rational point roots both components."""
    return _zeval(p[0], num, den) == 0 and _zeval(p[1], num, den) == 0


def _primitive(p0, p1=_KZERO, den: int = 0):
    """Two halves and a denominator over their content, the gcd of den and
    every coefficient: the one content normalization, of a TPoly and of a
    half alone (p1 zero, den 0) in a gcd's remainder sequence."""
    g = gcd(den, *p0[0], *p0[1], *p1[0], *p1[1])
    if g > 1:
        p0 = tuple(v // g for v in p0[0]), tuple(v // g for v in p0[1])
        p1 = tuple(v // g for v in p1[0]), tuple(v // g for v in p1[1])
        den //= g
    return p0, p1, den


def _prem(p, q):
    """Pseudo-remainder of p by q over Z[sqrt3]: lc(q)^k p mod q, one
    factor lc(q) per step, so that no coefficient is divided."""
    lc, r = _klead(q), p
    while _kdeg(r) >= _kdeg(q):
        # r <- lc(q) r - lc(r) c^shift q cancels the top coefficient
        r = _kadd(_kmul(lc, r), _kmul(_klead(r, _kdeg(r) - _kdeg(q), -1), q))
    return r


def _kgcd(*polys):
    """A gcd in Q(sqrt3)[c] of halves, up to a unit factor: the primitive
    pseudo-remainder sequence over Z[sqrt3] (Knuth, TAOCP vol. 2, 4.6.1),
    with the integer content taken out at each step.  Only its roots are
    used."""
    g = _KZERO
    for p in polys:
        a, b = g, _primitive(p)[0]
        while b[0] or b[1]:
            a, b = b, _primitive(_prem(a, b))[0]
        g = a
    return g


def _rational_roots(p) -> List[Fraction]:
    """Rational roots of a half.

    A rational root annihilates the rational and the sqrt3 component
    separately, so the candidates come from the rational-root theorem on
    one nonzero component, and each is checked against both.  The roots
    come out ordered by (|numerator|, denominator), + before -, whichever
    associate of a polynomial is given.
    """
    comp = p[0] or p[1]
    if not comp:
        return []
    out = [Fraction(0)] if _kvanishes(p, 0) else []
    shift = 0
    while not comp[shift]:
        shift += 1
    lead, const = comp[-1], comp[shift]
    for dnum in _divisors(abs(const)):
        for dden in _divisors(abs(lead)):
            if gcd(dnum, dden) == 1:
                out.extend(Fraction(n, dden) for n in (dnum, -dnum)
                           if _kvanishes(p, n, dden))
    return out


def _divisors(n: int) -> List[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


# ---------------------------------------------------------------------------
# reduced polynomials in (c, s) with s^2 = 1 - c^2

_CIRCLE = ((1, 0, -1), ())  # 1 - c^2


class TPoly:
    """(p0(c) + p1(c)*s)/den in Q(sqrt3)[c, s] / (s^2 + c^2 - 1).

    Each half is an (A, B) pair of trimmed integer coefficient tuples, low
    degree first: the coefficient of c^i is (A[i] + B[i]*sqrt3)/den.  The
    polynomial is content-primitive: den > 0, and the gcd of den and every
    coefficient is 1.  So equal polynomials have equal fields, and zero is
    the one with four empty tuples.  A number of Q(sqrt3) is a constant:
    p0 of degree 0 and p1 zero.
    """

    __slots__ = ("p0", "p1", "den")

    def __init__(self, p0=_KZERO, p1=_KZERO, den: int = 1):
        self.p0, self.p1, self.den = _primitive(p0, p1, den)

    def __add__(self, o):
        d1, d2 = self.den, o.den
        if d1 == d2:
            return TPoly(_kadd(self.p0, o.p0), _kadd(self.p1, o.p1), d1)
        return TPoly(_kadd(_kscale(self.p0, d2), _kscale(o.p0, d1)),
                     _kadd(_kscale(self.p1, d2), _kscale(o.p1, d1)), d1 * d2)

    def __neg__(self):
        return TPoly(_kscale(self.p0, -1), _kscale(self.p1, -1), self.den)

    def __sub__(self, o): return self + (-o)

    def __mul__(self, o):
        # (a0 + a1 s)(b0 + b1 s) = a0 b0 + a1 b1 (1-c^2) + (a0 b1 + a1 b0) s
        a0, a1, b0, b1 = self.p0, self.p1, o.p0, o.p1
        p0 = _kmul(a0, b0)
        if (a1[0] or a1[1]) and (b1[0] or b1[1]):
            p0 = _kadd(p0, _kmul(_kmul(a1, b1), _CIRCLE))
        return TPoly(p0, _kadd(_kmul(a0, b1), _kmul(a1, b0)), self.den * o.den)

    def inv(self) -> "TPoly":
        """The inverse of a nonzero constant (a + b sqrt3)/den: den (a - b
        sqrt3) over the norm a^2 - 3 b^2, which is nonzero since sqrt3 is
        irrational; a negative norm's sign moves to the numerator."""
        assert self.is_const()
        (A, B), d = self.p0, self.den
        norm = (A[0] ** 2 if A else 0) - 3 * (B[0] ** 2 if B else 0)
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt3)")
        if norm < 0:
            d, norm = -d, -norm
        return TPoly((_zscale(A, d), _zscale(B, -d)), _KZERO, norm)

    def as_expr(self) -> Expr:
        """A constant as a/den + (b/den)*sqrt(3), either part left out when
        it is zero."""
        assert self.is_const()
        (A, B), d = self.p0, self.den
        out = rational(A[0], d) if A else None
        if B:
            root = mul(rational(B[0], d), func("sqrt", rational(3)))
            out = root if out is None else add(out, root)
        return out if out is not None else ZERO

    def is_zero(self) -> bool:
        return not (self.p0[0] or self.p0[1] or self.p1[0] or self.p1[1])

    def is_const(self) -> bool:
        return _kdeg(self.p0) <= 0 and not (self.p1[0] or self.p1[1])

    def __eq__(self, o):
        return (isinstance(o, TPoly) and self.p0 == o.p0 and self.p1 == o.p1
                and self.den == o.den)

    def __hash__(self):
        return hash((self.p0, self.p1, self.den))

    def __repr__(self):
        return f"TPoly(p0={self.p0}, p1={self.p1}, den={self.den})"


_ONE = TPoly(((1,), ()))
_SQRT3 = TPoly(((), (1,)))


def _chebyshev(m: int, first: Tuple[int, ...]) -> Tuple[int, ...]:
    """p_m of p_(k+1) = 2c p_k - p_(k-1) with p_0 = 1 and p_1 = first: the
    integer polynomial in c of cos(m u) (T_m, first = (0, 1)) or of
    sin((m+1) u)/sin(u) (U_m, first = (0, 2)), for m >= 0."""
    prev, cur = (1,), first
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, _zadd((0,) + _zscale(cur, 2), _zscale(prev, -1))
    return cur


# ---------------------------------------------------------------------------
# expression -> TPoly extraction

_Key = Tuple[Tuple[Expr, int], ...]


def split_rational(e: Expr) -> Tuple[Fraction, _Key]:
    """Split a product tree into (rational coefficient, canonical factor key).

    The key is a tuple of (atom, exponent) for the non-rational atoms, in
    the order of their printed text; pi is just another atom here.  The
    split of a neg, mul, div or pow node is kept on the node, as ``fold``'s
    is; an atom's key holds the atom itself, a cycle that only the garbage
    collector would free, so it is not kept.
    """
    if e.kind == "rat":
        return e.value, ()
    if e.kind not in _PRODUCTS:
        return Fraction(1), ((e, 1),)
    return e._split or fill(e, "_split", _split_product, _PRODUCTS)


_PRODUCTS = ("neg", "mul", "div", "pow")


def _split_product(e: Expr) -> Tuple[Fraction, _Key]:
    """One neg, mul, div or pow node of ``split_rational``."""
    coeff, key = split_rational(e.args[0])
    if e.kind == "neg":
        return -coeff, key
    if e.kind == "pow":
        n = e.value
        return coeff ** n, tuple((atom, exp * n) for atom, exp in key if n)
    other, other_key = split_rational(e.args[1])
    sign = 1 if e.kind == "mul" else -1
    factors = dict(key)
    for atom, exp in other_key:
        factors[atom] = factors.get(atom, 0) + sign * exp
    return coeff * other ** sign, _ordered(factors)


def _ordered(factors: Dict[Expr, int]) -> _Key:
    """The nonzero factors as (atom, exponent), in printed-text order."""
    return tuple((atom, factors[atom]) for atom in sorted(factors, key=to_text)
                 if factors[atom])


def _rebuild_from_key(coeff: Fraction, key: _Key) -> Expr:
    out = rational(coeff)
    for atom, exp in key:
        out = mul(out, ipow(atom, exp))
    return out


def find_trig_base(e: Expr) -> Optional[Tuple[Fraction, _Key, Expr]]:
    """Discover the common base angle of all sin/cos atoms inside ``e``.

    Returns (base_ratio, symbolic_key, base_expr) where every trig argument
    equals an integer multiple of base_expr = base_ratio * key-product, or
    None when the arguments do not share one symbolic part.
    """
    args = [split_rational(x.args[0]) for x in postorder((e,), _is_trig)
            if _is_trig(x)]
    # a sign as in sin(-u) is folded before extraction; bail here
    if not args or len({k for _, k in args}) > 1 or any(r <= 0 for r, _ in args):
        return None
    (g, key0), ratios = args[0], [r for r, _ in args[1:]]
    for r in ratios:
        g = Fraction(gcd(g.numerator * r.denominator, r.numerator * g.denominator),
                     g.denominator * r.denominator)
    return g, key0, _rebuild_from_key(g, key0)


def _is_trig(x: Expr) -> bool:     # find_trig_base splits, not walks, its argument
    return x.kind == "call" and x.value in ("sin", "cos")


def tpoly_from_expr(e: Expr, base_ratio: Fraction, base_key: _Key) -> Optional[TPoly]:
    """Extract ``e`` as a TPoly in the base angle, or None if unsupported."""
    return _tpolys((e,), base_ratio, base_key)[0]


def _tpolys(roots, base_ratio: Fraction, base_key: _Key) -> List[Optional[TPoly]]:
    """``tpoly_from_expr`` of each root, in one walk that skips calls' arguments."""
    done: Dict[Expr, Optional[TPoly]] = {}
    for x in postorder(roots, lambda x: x.kind == "call"):
        done[x] = _tpoly(x, done, base_ratio, base_key)
    return [done[e] for e in roots]


def _tpoly(e: Expr, done, base_ratio: Fraction, base_key: _Key) -> Optional[TPoly]:
    """One node of ``tpoly_from_expr``, its children's in ``done``."""
    if e.kind == "rat":
        v = rat_value(e)
        return TPoly(((v.numerator,) if v else (), ()), _KZERO, v.denominator)
    if e.kind == "call":
        name = e.value
        if name == "sqrt" and is_rat(e.args[0]) and rat_value(e.args[0]) == 3:
            return _SQRT3
        if name in ("sin", "cos"):
            rho, key = split_rational(e.args[0])
            if key != base_key or rho <= 0:
                return None
            m_frac = rho / base_ratio
            if m_frac.denominator != 1:
                return None
            m = m_frac.numerator
            if name == "cos":
                return TPoly((_chebyshev(m, (0, 1)), ()))
            return TPoly(_KZERO, (_chebyshev(m - 1, (0, 2)), ())) if m >= 1 else TPoly()
        return None
    parts = [done[a] for a in e.args]
    if not parts or any(p is None for p in parts):    # pi, a symbol, or none below
        return None
    a, b = parts[0], parts[-1]
    if e.kind == "neg":
        return -a
    if e.kind == "add":
        return a + b
    if e.kind == "mul":
        return a * b
    if e.kind == "div":
        return a * b.inv() if b.is_const() and not b.is_zero() else None
    n = e.value     # a pow node
    if n < 0:
        if not a.is_const() or a.is_zero():
            return None
        a, n = a.inv(), -n
    out = _ONE
    for _ in range(n):
        out = out * a
    return out


# ---------------------------------------------------------------------------
# angle loci (solutions of polynomial conditions on the unit circle)

_ACOS_TABLE = {Fraction(1, 2): Fraction(1, 3), Fraction(-1, 2): Fraction(2, 3)}


class AngleLocus(NamedTuple):
    """Base-angle solutions B = (offset + k*modulus) * pi, k in Z."""
    offset: Fraction
    modulus: Fraction

    def points_in(self, lo: Fraction, hi: Fraction) -> List[Fraction]:
        """All solutions (in units of pi) with lo <= t <= hi."""
        out = []
        k0 = int((lo - self.offset) / self.modulus) - 2
        t = self.offset + k0 * self.modulus
        while t <= hi:
            if t >= lo:
                out.append(t)
            t += self.modulus
        return out

    def scaled(self, g: Fraction) -> "AngleLocus":
        """The same zeros in a unit y with base angle B = g*y*pi, so that
        y = (offset + k*modulus)/g."""
        return AngleLocus(self.offset / g, abs(self.modulus / g))


class UnsolvableLocusError(Exception):
    """A guard polynomial has zeros not expressible as rational pi multiples."""


def _common_zero_loci(N: TPoly, D: TPoly) -> List[AngleLocus]:
    """Common zeros of N and D on the unit circle, as angle loci.

    These are the 0/0 points of N/D, i.e. the candidate non-analytical
    points of an identity built from the quotient.  The points c = +-1 and
    c = 0, s = +-1 are checked directly, each as the half p0 + s*p1
    vanishing at c.  The other loci are the rational roots c of the gcd of
    all four halves, where N and D vanish for both signs of s; c = +-1/2 is
    the only one placed exactly (at +-pi/3 and +-2pi/3).  Raises
    UnsolvableLocusError for another rational root, or for a common factor
    with none.
    """
    def vanishes_at(P: TPoly, c: int, s: int) -> bool:
        # the half p0 + s p1 at c
        return _kvanishes(_kadd(P.p0, _kscale(P.p1, s)), c)

    loci: List[AngleLocus] = []
    at_one = vanishes_at(N, 1, 0) and vanishes_at(D, 1, 0)
    at_minus_one = vanishes_at(N, -1, 0) and vanishes_at(D, -1, 0)
    if at_one and at_minus_one:
        loci.append(AngleLocus(Fraction(0), Fraction(1)))
    elif at_one:
        loci.append(AngleLocus(Fraction(0), Fraction(2)))
    elif at_minus_one:
        loci.append(AngleLocus(Fraction(1), Fraction(2)))
    up = vanishes_at(N, 0, 1) and vanishes_at(D, 0, 1)
    down = vanishes_at(N, 0, -1) and vanishes_at(D, 0, -1)
    if up and down:
        loci.append(AngleLocus(Fraction(1, 2), Fraction(1)))
    elif up:
        loci.append(AngleLocus(Fraction(1, 2), Fraction(2)))
    elif down:
        loci.append(AngleLocus(Fraction(-1, 2), Fraction(2)))
    # interior rational cos values: common rational roots of all components
    g = _kgcd(N.p0, N.p1, D.p0, D.p1)
    if _kdeg(g) > 0:
        roots = _rational_roots(g)
        for v in roots:
            if -1 < v < 1 and v != 0:
                t = _ACOS_TABLE.get(v)
                if t is None:
                    raise UnsolvableLocusError(
                        f"cos(base) = {v} has no rational-pi solution in the table")
                loci.append(AngleLocus(t, Fraction(2)))
                loci.append(AngleLocus(-t, Fraction(2)))
        # a nontrivial common factor with no usable rational root means
        # zeros we cannot place exactly
        if not roots:
            raise UnsolvableLocusError("common factor with no rational cos root")
    return loci


# ---------------------------------------------------------------------------
# inverse-trig collapse

class CollapseResult(NamedTuple):
    expr: Expr
    guards: List[AngleLocus]
    branch: bool  # True when an odd-convention arccot sign pull was used
    base: Expr    # the base angle B of the guards (1 when the argument has none)


def _pattern_result(name: str, which: str, base: Expr) -> Expr:
    half_pi = div(PI, rational(2))
    half_base = mul(rational(1, 2), base)
    if name == "arccot":
        table = {
            "tan": sub(half_pi, base),
            "cot": base,
            "tan_half": sub(half_pi, half_base),
            "cot_half": half_base,
        }
    else:
        table = {
            "tan": base,
            "cot": sub(half_pi, base),
            "tan_half": half_base,
            "cot_half": sub(half_pi, half_base),
        }
    return table[which]


_S = TPoly(_KZERO, ((1,), ()))
_C = TPoly(((0, 1), ()))
_ONE_PLUS_C = TPoly(((1, 1), ()))
_ONE_MINUS_C = TPoly(((1, -1), ()))

_PATTERNS = (
    ("tan", _S, _C),
    ("cot", _C, _S),
    ("tan_half", _ONE_MINUS_C, _S),
    ("tan_half", _S, _ONE_PLUS_C),
    ("cot_half", _ONE_PLUS_C, _S),
    ("cot_half", _S, _ONE_MINUS_C),
)

_ARCTAN_CONSTS = {_ONE: Fraction(1, 4), _SQRT3: Fraction(1, 3),
                  _SQRT3.inv(): Fraction(1, 6)}
_ARCCOT_CONSTS = {_ONE: Fraction(1, 4), _SQRT3: Fraction(1, 6),
                  _SQRT3.inv(): Fraction(1, 3), TPoly(): Fraction(1, 2)}


def collapse_inverse_trig(name: str, argument: Expr) -> Optional[CollapseResult]:
    """Collapse arccot/arctan of a trig-rational argument to closed form.

    Returns None when the argument is outside the supported normal form or
    matches no pattern; raises UnsolvableLocusError when a guard zero falls
    outside the exact table.  The recorded guards are the common-zero locus
    of numerator and denominator (the 0/0 points), which for the supported
    rewrites are exactly the points where the collapsed identity can fail.
    """
    if name not in ("arccot", "arctan"):
        return None
    if argument.kind == "div":
        num_e, den_e = argument.args
    else:
        num_e, den_e = argument, ONE
    found = find_trig_base(argument)
    if found is None:
        base_ratio, base_key, base_expr = Fraction(1), (), ONE
    else:
        base_ratio, base_key, base_expr = found
    N, D = _tpolys((num_e, den_e), base_ratio, base_key)
    if N is None or D is None:
        return None

    if D.is_zero():
        # identically-zero denominator: the quotient is +-infinity away from
        # the zeros of N, so arctan gives +-pi/2 (sign taken just right of
        # the base-angle origin) and arccot gives 0 or pi
        if N.is_zero():
            return None
        guards = _common_zero_loci(N, N)
        sgn = _sign_near_zero(N, guards)
        if sgn == 0:
            return None
        if name == "arctan":
            result = mul(rational(sgn), div(PI, rational(2)))
        else:
            result = ZERO if sgn > 0 else PI
        return CollapseResult(result, guards, False, base_expr)

    guards = _common_zero_loci(N, D)

    # constant quotient: N proportional to D
    lam = _lead(N) * _lead(D).inv()
    if N == D * lam:
        table = _ARCTAN_CONSTS if name == "arctan" else _ARCCOT_CONSTS
        for lam_abs, sign in ((lam, 1), (-lam, -1)):
            frac = table.get(lam_abs)
            if frac is not None:
                branch = sign < 0 and name == "arccot"
                return CollapseResult(
                    _apply_sign(mul(rational(frac), PI), sign), guards, branch,
                    base_expr)
        return None

    # tan / cot / half-angle patterns, up to overall sign; the negative-sign
    # arccot pull uses the odd convention arccot(-t) = -arccot(t) ("branch")
    for which, pn, pd in _PATTERNS:
        lhs, rhs = N * pd, D * pn
        if lhs == rhs:
            sign = 1
        elif lhs == -rhs:
            sign = -1
        else:
            continue
        result = _pattern_result(name, which, base_expr)
        branch = sign < 0 and name == "arccot"
        return CollapseResult(_apply_sign(result, sign), guards, branch, base_expr)
    return None


def _lead(P: TPoly) -> TPoly:
    """The leading coefficient in c of p1, or of p0 when p1 is zero."""
    return TPoly(_klead(P.p1 if P.p1[0] or P.p1[1] else P.p0), _KZERO, P.den)


def fold_const_denominator(num: Expr, den: Expr) -> Optional[Expr]:
    """Replace num/den by a scaled numerator when the denominator is a
    trigonometric polynomial that reduces to a nonzero constant (e.g. the
    Pythagorean denominators (a cos u)^2 + (a sin u)^2 == a^2)."""
    found = find_trig_base(den)
    if found is None:
        return None
    ratio, key, _ = found
    D = tpoly_from_expr(den, ratio, key)
    if D is None or not D.is_const() or D.is_zero():
        return None
    return mul(D.inv().as_expr(), num)


def _apply_sign(e: Expr, sign: int) -> Expr:
    return e if sign >= 0 else neg(e)


def _sign_near_zero(P: TPoly, guards: List[AngleLocus]) -> int:
    """Sign of P(cos B, sin B) just right of B = 0."""
    positive = [t for g in guards for t in g.points_in(Fraction(0), Fraction(4))
                if t > 0] or [Fraction(2)]
    t_mid = min(positive) / 2
    ang = math.pi * float(t_mid)
    c, s = math.cos(ang), math.sin(ang)
    val = _tpoly_float(P, c, s)
    if abs(val) < 1e-12:
        return 0
    return 1 if val > 0 else -1


def _tpoly_float(P: TPoly, c: float, s: float) -> float:
    def horner(half):
        return _zeval(half[0], c) + _zeval(half[1], c) * 1.7320508075688772
    return (horner(P.p0) + horner(P.p1) * s) / P.den


# ---------------------------------------------------------------------------
# linear-combination normal form (combining like terms)

_Term = Tuple[Fraction, Dict[Expr, int]]

_EXPAND_POW_LIMIT = 6
_ATOMS = ("pi", "sym", "call")
_EXPANDED = ("rat", "neg", "add", "mul", "div", "pow")    # kept on the node


def _merge_factors(a: Dict[Expr, int], b: Dict[Expr, int], b_scale: int = 1):
    out = dict(a)
    for atom, exp in b.items():
        out[atom] = out.get(atom, 0) + exp * b_scale
    return out


def _expansion(e: Expr) -> List[_Term]:
    """The multilinear expansion of ``e``, kept on the node, as ``fold``'s
    is, except for an atom, as ``split_rational`` does; no term list or
    factor dict is changed after it is built."""
    if e.kind in _ATOMS:
        return [(Fraction(1), {e: 1})]
    return e._terms or fill(e, "_terms", _expand, _EXPANDED)


def _expand(e: Expr) -> List[_Term]:
    """Multilinear expansion of a node that is not an atom, as a list of
    (coefficient, {atom: exponent}), its children through ``_expansion``."""
    if e.kind == "rat":
        return [(rat_value(e), {})]
    if e.kind == "neg":
        return [(-c, f) for c, f in _expansion(e.args[0])]
    if e.kind == "add":
        return _expansion(e.args[0]) + _expansion(e.args[1])
    if e.kind == "mul":
        left, right = _expansion(e.args[0]), _expansion(e.args[1])
        return [(cl * cr, _merge_factors(fl, fr))
                for cl, fl in left for cr, fr in right]
    if e.kind == "div":
        num = _expansion(e.args[0])
        den = _expansion(e.args[1])
        if len(den) == 1:
            cd, fd = den[0]
            if cd == 0:
                raise ZeroDivisionError("zero denominator")
            return [(cn / cd, _merge_factors(fn, fd, -1)) for cn, fn in num]
        atom = collect_terms(e.args[1])
        return [(cn, _merge_factors(fn, {atom: -1})) for cn, fn in num]
    n = e.value    # a pow node
    base = _expansion(e.args[0])
    if 0 <= n <= _EXPAND_POW_LIMIT:
        out: List[_Term] = [(Fraction(1), {})]
        for _ in range(n):
            out = [(c1 * c2, _merge_factors(f1, f2))
                   for c1, f1 in out for c2, f2 in base]
        return out
    if len(base) == 1:
        c0, f0 = base[0]
        return [(c0 ** n, {a: x * n for a, x in f0.items()})]
    return [(Fraction(1), {collect_terms(e.args[0]): n})]


def _expand_held(terms: List[_Term]) -> List[_Term]:
    """``terms`` with each held sum expanded where its exponents merged into
    1.._EXPAND_POW_LIMIT.  A held sum is a factor that is not an atom: the
    collected base of a power outside 0.._EXPAND_POW_LIMIT, or of a
    denominator, kept whole; 2*(x+1)^8/(x+1)^7 holds 1 + x at exponent 1,
    and that expands to 2 + 2*x."""
    out: List[_Term] = []
    for term in terms:
        coeff, factors = term
        for atom, exp in factors.items():
            if atom.kind not in _ATOMS and 1 <= exp <= _EXPAND_POW_LIMIT:
                rest = dict(factors)
                del rest[atom]
                out += _expand_held([(coeff * c, _merge_factors(rest, f))
                                     for c, f in _expansion(ipow(atom, exp))])
                break
        else:
            out.append(term)
    return out


def _reduce_sin_squares(coeff: Fraction, factors: Dict[Expr, int]) -> List[_Term]:
    """Rewrite sin(u)^(2m+r) -> (1 - cos(u)^2)^m sin(u)^r within one term,
    expanding binomially; sin keeps exponent 0 or 1 afterwards."""
    for atom, exp in factors.items():
        if (exp >= 2 and atom.kind == "call" and atom.value == "sin"):
            m, r = divmod(exp, 2)
            cos_atom = func("cos", atom.args[0])
            out: List[_Term] = []
            for j in range(m + 1):
                binom = Fraction((-1) ** j) * math.comb(m, j)
                new_factors = dict(factors)
                new_factors[atom] = r
                new_factors[cos_atom] = new_factors.get(cos_atom, 0) + 2 * j
                out.extend(_reduce_sin_squares(coeff * binom, new_factors))
            return out
    return [(coeff, factors)]


def _collected(e: Expr) -> List[Tuple[_Key, Fraction]]:
    """The like terms of ``e`` combined, as (factor key, nonzero
    coefficient) in the printed-text order of the keys."""
    terms: Dict[_Key, Fraction] = {}
    for raw_coeff, raw_factors in _expand_held(_expansion(e)):
        for coeff, factors in _reduce_sin_squares(raw_coeff, raw_factors):
            kept: Dict[Expr, int] = {}
            for atom, exp in factors.items():
                if atom.kind == "call" and atom.value == "sqrt" and is_rat(atom.args[0]):
                    # even powers of sqrt(rational) go into the coefficient
                    coeff *= rat_value(atom.args[0]) ** (exp // 2)
                    exp %= 2
                kept[atom] = exp
            key = _ordered(kept)
            terms[key] = terms.get(key, Fraction(0)) + coeff
    return sorted(((k, v) for k, v in terms.items() if v != 0),
                  key=lambda kv: [(to_text(atom), exp) for atom, exp in kv[0]])


def collect_terms(e: Expr) -> Expr:
    """Expand products over sums, reduce sin^2 -> 1 - cos^2, combine like
    terms with exact rational coefficients, and rebuild deterministically.

    Even powers of sqrt(rational) are absorbed into the coefficient.  The
    result is value-equal to the input.
    """
    out: Optional[Expr] = None
    for key, coeff in _collected(e):
        if coeff == -1 and key:
            piece = neg(_rebuild_from_key(Fraction(1), key))
        else:
            piece = _rebuild_from_key(coeff, key)
        out = piece if out is None else add(out, piece)
    return out if out is not None else ZERO
