"""The exact normal form's integer arithmetic: Q(sqrt3) values as constant
TPolys, the pseudo-remainder gcd and rational roots on (A, B) halves, and
the inverse-trig collapse, each against a plain Fraction-pair reference
written here."""

import gc
import math
import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from trigsum import trigpoly
from trigsum.expr import Expr, eval_real, func, parse_expr, symbol, to_text
from trigsum.mapping import map_cospow, map_fourier
from trigsum.trigpoly import (AngleLocus, TPoly, _ARCCOT_CONSTS, _ARCTAN_CONSTS,
                              _kgcd, _rational_roots, collapse_inverse_trig,
                              find_trig_base, split_rational, tpoly_from_expr)

F = Fraction
SMALL = st.integers(-20, 20)


def const(a, b=0, d=1):
    """The constant TPoly (a + b*sqrt3)/d."""
    return TPoly(((a,) if a else (), (b,) if b else ()), den=d)


consts = st.builds(const, SMALL, SMALL, st.integers(1, 12))


def ref(k):
    """A constant TPoly as the pair (a, b) of Fractions meaning a + b*sqrt3."""
    assert k.is_const()
    (A, B), d = k.p0, k.den
    return F(A[0] if A else 0, d), F(B[0] if B else 0, d)


def rmul(x, y):
    return x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def rinv(x):
    norm = x[0] * x[0] - 3 * x[1] * x[1]
    return x[0] / norm, -x[1] / norm


class TestK3:
    """The numbers of the field K3 = Q(sqrt3), held as constant TPolys."""

    @settings(max_examples=200, deadline=None)
    @given(consts, consts)
    def test_ring_laws(self, x, y):
        rx, ry = ref(x), ref(y)
        assert ref(x + y) == (rx[0] + ry[0], rx[1] + ry[1])
        assert ref(x - y) == (rx[0] - ry[0], rx[1] - ry[1])
        assert ref(-x) == (-rx[0], -rx[1])
        assert ref(x * y) == rmul(rx, ry)
        assert x * y == y * x and (x + y) - y == x

    @settings(max_examples=200, deadline=None)
    @given(consts)
    def test_inverse(self, x):
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inv()
            return
        assert ref(x.inv()) == rinv(ref(x)) and x.inv().den > 0
        assert x * x.inv() == const(1) and x.inv().inv() == x

    def test_inverse_of_a_negative_norm(self):
        # 1/(1 + sqrt3) = (sqrt3 - 1)/2: the norm -2 gives its sign to the
        # numerator
        x = const(1, 1).inv()
        assert (x.p0, x.p1, x.den) == (((-1,), (1,)), ((), ()), 2)
        assert const(3, 3, 3).inv() == x and hash(const(3, 3, 3).inv()) == hash(x)

    @settings(max_examples=200, deadline=None)
    @given(SMALL, SMALL, st.integers(1, 12), st.integers(1, 9))
    def test_equal_values_written_apart(self, a, b, d, m):
        x, y = const(a, b, d), const(a * m, b * m, d * m)
        assert x == y and hash(x) == hash(y)
        assert (x.p0, x.p1, x.den) == (y.p0, y.p1, y.den) and x.den > 0
        if not x.is_zero():
            assert x.inv() == y.inv() and hash(x.inv()) == hash(y.inv())
            assert x.inv().den > 0

    @settings(max_examples=200, deadline=None)
    @given(consts)
    def test_as_expr_extracts_back(self, x):
        e = x.as_expr()
        assert tpoly_from_expr(e, F(1), ()) == x
        a, b = ref(x)
        assert abs(eval_real(e, {}, 30) - (float(a) + float(b) * math.sqrt(3))) < 1e-12

    def test_as_expr_text(self):
        assert to_text(const(3, 2, 6).as_expr()) == "1/2 + 1/3*sqrt(3)"
        assert to_text(const(0, -1, 3).as_expr()) == "(-1/3)*sqrt(3)"
        assert to_text(const(0, 0, 7).as_expr()) == "0"

    def test_constant_tables_look_up_any_writing(self):
        # 1/sqrt3 written as 2 sqrt3 / 6 and as the inverse of sqrt3
        assert _ARCTAN_CONSTS[const(0, 2, 6)] == F(1, 6)
        assert _ARCCOT_CONSTS[const(0, 1).inv()] == F(1, 3)
        assert _ARCCOT_CONSTS[const(0, 0, 7)] == F(1, 2)


# reference polynomials as lists of coefficient pairs (a_i, b_i), meaning
# a_i + b_i*sqrt3, low degree first

pair = st.tuples(st.integers(-3, 3), st.integers(-3, 3) | st.just(0))
poly = st.lists(pair, min_size=1, max_size=3)


def trim(p):
    p = list(p)
    while p and p[-1] == (0, 0):
        p.pop()
    return p


def pmul(p, q):
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            a, b = out[i + j]
            out[i + j] = (a + x[0] * y[0] + 3 * x[1] * y[1],
                          b + x[0] * y[1] + x[1] * y[0])
    return trim(out)


def as_halves(p):
    """The (A, B) integer tuples of a TPoly half."""
    def strip(v):
        v = list(v)
        while v and not v[-1]:
            v.pop()
        return tuple(v)
    return strip(a for a, _ in p), strip(b for _, b in p)


def as_rows(h):
    """The coefficient pairs of a half."""
    A, B = h
    return [(A[i] if i < len(A) else 0, B[i] if i < len(B) else 0)
            for i in range(max(len(A), len(B)))]


def field_gcd(p, q):
    """The monic gcd by Euclid in Q(sqrt3)[c], over Fraction pairs."""
    p = trim((F(a), F(b)) for a, b in p)
    q = trim((F(a), F(b)) for a, b in q)
    while q:
        r = list(p)
        inv_lead = rinv(q[-1])
        while len(r) >= len(q):
            coef = rmul(r[-1], inv_lead)
            shift = len(r) - len(q)
            for i, y in enumerate(q):
                t = rmul(coef, y)
                r[shift + i] = (r[shift + i][0] - t[0], r[shift + i][1] - t[1])
            r = trim(r)
        p, q = q, r
    return monic(p)


def monic(p):
    if not p:
        return p
    inv_lead = rinv((F(p[-1][0]), F(p[-1][1])))
    return [rmul((F(a), F(b)), inv_lead) for a, b in p]


class TestGcd:
    @settings(max_examples=200, deadline=None)
    @given(poly, poly, poly)
    def test_against_field_euclid(self, f, u, v):
        # a common factor f makes most gcds nontrivial
        p, q = pmul(f, u), pmul(f, v)
        got = _kgcd(as_halves(p), as_halves(q))
        assert monic(as_rows(got)) == field_gcd(p, q)

    def test_zero_and_one_argument(self):
        assert _kgcd(((), ()), ((), ())) == ((), ())
        assert monic(as_rows(_kgcd(((2, 4), ()), ((), ())))) == [(F(1, 2), 0), (1, 0)]


def peval(p, v):
    acc = (F(0), F(0))
    for a, b in reversed(p):
        acc = (acc[0] * v + a, acc[1] * v + b)
    return acc


class TestRationalRoots:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 4)), max_size=3),
           poly)
    def test_against_brute_force(self, linear, rest):
        p = trim(rest) or [(1, 0)]
        for num, den in linear:
            p = pmul(p, [(-num, 0), (den, 0)])
        roots = _rational_roots(as_halves(p))
        # a root of the product roots a factor: |numerator|, denominator <= 4
        expected = {v for v in (F(n, d) for n, d in product(range(-6, 7), range(1, 7)))
                    if peval(p, v) == (0, 0)}
        assert set(roots) == expected and len(roots) == len(expected)
        assert roots == sorted(roots, key=lambda v: (v != 0, abs(v.numerator),
                                                     v.denominator, v < 0))

    def test_sqrt3_part_must_vanish_too(self):
        # (c - 1) + sqrt3 (c - 2): 1 roots the rational part only
        assert _rational_roots(((-1, 1), (-2, 1))) == []
        # sqrt3 (2c - 1)(c + 1)
        assert _rational_roots(((), (-1, 1, 2))) == [F(-1), F(1, 2)]


LOC2_0, LOC2_1 = AngleLocus(F(0), F(2)), AngleLocus(F(1), F(2))


class TestCollapse:
    # each of the six patterns N/D = pn/pd, with its arctan and arccot value
    # and the 0/0 guards of N and D
    @pytest.mark.parametrize("num,den,arctan,arccot,guards", [
        ("sin(x)", "cos(x)", "x", "1/2*pi - x", []),
        ("cos(x)", "sin(x)", "1/2*pi - x", "x", []),
        ("1-cos(x)", "sin(x)", "1/2*x", "1/2*pi - 1/2*x", [LOC2_0]),
        ("sin(x)", "1+cos(x)", "1/2*x", "1/2*pi - 1/2*x", [LOC2_1]),
        ("1+cos(x)", "sin(x)", "1/2*pi - 1/2*x", "1/2*x", [LOC2_1]),
        ("sin(x)", "1-cos(x)", "1/2*pi - 1/2*x", "1/2*x", [LOC2_0]),
    ])
    def test_patterns(self, num, den, arctan, arccot, guards):
        for name, want in (("arctan", arctan), ("arccot", arccot)):
            hit = collapse_inverse_trig(name, parse_expr(f"({num})/({den})"))
            assert (to_text(hit.expr), hit.guards, hit.branch) == (want, guards, False)
            # the negated quotient: arccot pulls the sign out by the odd
            # convention, a branch rewrite
            neg = collapse_inverse_trig(name, parse_expr(f"-({num})/({den})"))
            assert to_text(neg.expr) == ("-x" if want == "x" else f"-({want})")
            assert (neg.guards, neg.branch) == (guards, name == "arccot")

    @pytest.mark.parametrize("arg,arctan,arccot", [
        ("sqrt(3)", "1/3*pi", "1/6*pi"),
        ("1/sqrt(3)", "1/6*pi", "1/3*pi"),
        ("sqrt(3)/3", "1/6*pi", "1/3*pi"),
        ("-sqrt(3)", "-(1/3*pi)", "-(1/6*pi)"),
        ("1", "1/4*pi", "1/4*pi"),
    ])
    def test_constants(self, arg, arctan, arccot):
        assert to_text(collapse_inverse_trig("arctan", parse_expr(arg)).expr) == arctan
        assert to_text(collapse_inverse_trig("arccot", parse_expr(arg)).expr) == arccot

    def test_constant_quotient_of_trig_polynomials(self):
        # sqrt3 sin(2x) / sin(2x) = sqrt3 away from the zeros of sin(2x)
        hit = collapse_inverse_trig("arctan", parse_expr("sqrt(3)*sin(2*x)/sin(2*x)"))
        assert to_text(hit.expr) == "1/3*pi"
        assert hit.guards == [AngleLocus(F(0), F(1))]

    def test_interior_guards(self):
        # the common factor cos(x) - 1/2 vanishes at x = +-pi/3
        hit = collapse_inverse_trig(
            "arctan", parse_expr("sin(x)*(cos(x)-1/2)/(cos(x)*(cos(x)-1/2))"))
        assert to_text(hit.expr) == "x"
        assert hit.guards == [AngleLocus(F(1, 3), F(2)), AngleLocus(F(-1, 3), F(2))]

    def test_no_match(self):
        assert collapse_inverse_trig("arctan", parse_expr("sin(x)/(3*cos(x))")) is None
        assert collapse_inverse_trig("arctan", parse_expr("0")) is None
        assert to_text(collapse_inverse_trig("arccot", parse_expr("0")).expr) == "1/2*pi"


class TestAngleLocus:
    """A guard's zeros, placed exactly: ``scaled`` moves a locus of the base
    angle B = g*y*pi to the unit y, and ``points_in`` lists its zeros in a
    closed window as Fractions, which mapping compares with no rounding
    (the zeros of the rewrite guards are placed in test_operators)."""

    @pytest.mark.parametrize("g,offset,modulus", [
        (F(1), F(1), F(2)), (F(1, 2), F(2), F(4)), (F(-1, 2), F(-2), F(4)),
        (F(3), F(1, 3), F(2, 3)),
    ])
    def test_scaled(self, g, offset, modulus):
        # y = (offset + k*modulus)/g, the spacing of the zeros kept positive
        assert LOC2_1.scaled(g) == AngleLocus(offset, modulus)

    def test_points_in_closed_window(self):
        # both ends count, and a window far from the offset is reached directly
        assert LOC2_0.points_in(F(-2), F(2)) == [F(-2), F(0), F(2)]
        assert LOC2_1.points_in(F(0), F(1)) == [F(1)]
        assert LOC2_1.points_in(F(10 ** 9), F(10 ** 9 + 2)) == [F(10 ** 9 + 1)]
        assert AngleLocus(F(1, 3), F(2)).points_in(F(1, 3), F(1, 3)) == [F(1, 3)]


class TestWalksOncePerNode:
    """A distinct node is expanded at most once while it lives, and worked on
    at most once per call by a walk that depends on the call's arguments."""

    @pytest.mark.parametrize("request_", [
        lambda: map_fourier(parse_expr("-ln(1-t)*t/(1+t^2)"), kind="sine"),
        lambda: map_cospow(parse_expr("t/(1-t)^2 + arctan(t)"), kind="cos"),
    ], ids=["map_fourier", "map_cospow"])
    def test_map_request(self, monkeypatch, request_):
        # the visit lists hold the nodes (and the per-call memos), so no id
        # is reused while they are counted
        expanded, extracted, memos = [], [], []
        expand, tpoly = trigpoly._expand, trigpoly._tpoly

        def counted_expand(e):
            expanded.append(e)
            return expand(e)

        def counted_tpoly(e, done, *extra):
            extracted.append((id(done), e))
            memos.append(done)
            return tpoly(e, done, *extra)

        monkeypatch.setattr(trigpoly, "_expand", counted_expand)
        monkeypatch.setattr(trigpoly, "_tpoly", counted_tpoly)
        request_()
        for visits in (expanded, extracted):
            assert len(visits) > 20
            assert len(set(visits)) == len(visits)

    def test_find_trig_base_splits_a_shared_argument_once(self, monkeypatch):
        e = func("sin", symbol("x"))
        for _ in range(20):
            e = Expr("add", (e, e))
        split = []
        worker = trigpoly.split_rational

        def counted(x):
            split.append(x)
            return worker(x)

        monkeypatch.setattr(trigpoly, "split_rational", counted)
        assert find_trig_base(e) == (F(1), ((symbol("x"), 1),), symbol("x"))
        assert split == [symbol("x")]


@pytest.mark.parametrize("request_", [
    lambda: map_fourier(parse_expr("-ln(1-t)*t/(1+t^2)"), kind="sine"),
    lambda: map_cospow(parse_expr("t/(1-t)^2 + arctan(t)"), kind="cos"),
    lambda: map_fourier(parse_expr("3*t^3/(1-t/2) + ln(1+t)"), kind="cosine"),
], ids=["map_fourier", "map_cospow", "map_fourier_collected"])
def test_dropped_result_frees_its_nodes_without_the_collector(request_):
    # a kept split or expansion refers to other nodes only, never to its own
    # node, and a per-call memo is not held by a cycle, so the nodes of a
    # request go with its last reference even while the collector is off;
    # the earlier tests' garbage is collected first, so that none of it
    # holds a node of this request
    gc.collect()
    gc.disable()
    try:
        result = request_()
        refs, stack = {}, [result.closed_form]   # refs holds no node
        while stack:
            node = stack.pop()
            if node.kind not in ("rat", "pi", "sym") and id(node) not in refs:
                refs[id(node)] = weakref.ref(node)
                stack.extend(node.args)
        del result, stack, node
        assert len(refs) > 10
        assert [ref() for ref in refs.values()] == [None] * len(refs)
    finally:
        gc.enable()


def test_split_coefficients_stay_exact():
    # a sign under a negative power is the Fraction -1, not the float
    # (-1) ** -1, which then reached rational() and raised a TypeError
    assert split_rational(parse_expr("(-(y))^-1")) == (F(-1), ((symbol("y"), -1),))
    # collected, the quotient is the one term x times (-1/3)*y^-1
    term = trigpoly.collect_terms(parse_expr("(x/3)/((-y-y)+y)"))
    assert split_rational(term) == (F(-1, 3), ((symbol("x"), 1), (symbol("y"), -1)))


def test_cancelled_high_power_is_expanded():
    e = parse_expr("2*(x+1)^8/(x+1)^7")
    assert to_text(trigpoly.collect_terms(e)) == "2 + 2*x"


@pytest.mark.xfail(strict=True, reason="the denominator (x+1)^2 is expanded, "
                   "then held as its own atom 1 + 2*x + x^2, so it does not "
                   "cancel against the held (x+1)^9")
def test_held_sum_cancels_against_its_expansion():
    quotient = trigpoly.collect_terms(parse_expr("(x+1)^9/(x+1)^2"))
    assert to_text(quotient) == to_text(trigpoly.collect_terms(parse_expr("(x+1)^7")))


@pytest.mark.parametrize("text,collected", [
    # a product, a power of a one-term quotient, and a product under a power
    ("(x+1)^8*(x+1)^-7*y", "x*y + y"),
    ("(1/(x+1))^-3", "1 + 3*x + 3*x^2 + x^3"),
    ("((x+1)^7*(x+1)^-5)^2", "1 + 4*x + 6*x^2 + 4*x^3 + x^4"),
    # outside 1..6 the sum stays held
    ("(x+1)^9*(x+1)^-1", "(1 + x)^8"),
    ("(x+1)^8*(x+1)^-8", "1"),
])
def test_held_sum_expands_wherever_its_exponent_lands(text, collected):
    assert to_text(trigpoly.collect_terms(parse_expr(text))) == collected
