"""The exact normal form's integer arithmetic: Q(sqrt3) values, the
pseudo-remainder gcd, rational roots and the inverse-trig collapse, each
against a plain Fraction-pair reference written here."""

import gc
import math
import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from trigsum import trigpoly
from trigsum.expr import Expr, func, parse_expr, symbol, to_text
from trigsum.mapping import map_cospow, map_fourier
from trigsum.trigpoly import (K3, AngleLocus, _ARCCOT_CONSTS, _ARCTAN_CONSTS,
                              _kgcd, _rational_roots, collapse_inverse_trig,
                              find_trig_base, split_rational)

F = Fraction
SMALL = st.integers(-20, 20)
k3s = st.builds(K3, SMALL, SMALL, st.integers(1, 12))


def ref(k):
    """K3 as the pair (a, b) of Fractions meaning a + b*sqrt3."""
    return F(k.a, k.d), F(k.b, k.d)


def rmul(x, y):
    return x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def rinv(x):
    norm = x[0] * x[0] - 3 * x[1] * x[1]
    return x[0] / norm, -x[1] / norm


class TestK3:
    @settings(max_examples=200, deadline=None)
    @given(k3s, k3s)
    def test_ring_laws(self, x, y):
        rx, ry = ref(x), ref(y)
        assert ref(x + y) == (rx[0] + ry[0], rx[1] + ry[1])
        assert ref(x - y) == (rx[0] - ry[0], rx[1] - ry[1])
        assert ref(-x) == (-rx[0], -rx[1])
        assert ref(x * y) == rmul(rx, ry)
        assert x * y == y * x and (x + y) - y == x

    @settings(max_examples=200, deadline=None)
    @given(k3s)
    def test_inverse(self, x):
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inv()
            return
        assert ref(x.inv()) == rinv(ref(x))
        assert x * x.inv() == K3(1) and x / x == K3(1)

    @settings(max_examples=300, deadline=None)
    @given(k3s)
    def test_sign(self, x):
        a, b = ref(x)
        # |a + b sqrt3| = |a^2 - 3 b^2| / |a - b sqrt3| is at least 1e-4 here,
        # far above the float error
        value = float(a) + float(b) * math.sqrt(3)
        assert x.sign() == (value > 0) - (value < 0)

    @settings(max_examples=200, deadline=None)
    @given(SMALL, SMALL, st.integers(1, 12),
           st.integers(-9, 9).filter(lambda m: m != 0))
    def test_equal_values_written_apart(self, a, b, d, m):
        x, y = K3(a, b, d), K3(a * m, b * m, d * m)
        assert x == y and hash(x) == hash(y)
        assert (x.a, x.b, x.d) == (y.a, y.b, y.d) and x.d > 0

    def test_constant_tables_look_up_any_writing(self):
        # 1/sqrt3 written as 2 sqrt3 / 6 and as the inverse of sqrt3
        assert _ARCTAN_CONSTS[K3(0, 2, 6)] == F(1, 6)
        assert _ARCCOT_CONSTS[K3(0, 1).inv()] == F(1, 3)
        assert _ARCCOT_CONSTS[K3(0, 0, 7)] == F(1, 2)


# polynomials as lists of K3 coefficient pairs (a_i, b_i), low degree first

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
        assert monic(got) == field_gcd(p, q)

    def test_zero_and_one_argument(self):
        assert _kgcd(((), ()), ((), ())) == []
        assert monic(_kgcd(((2, 4), ()), ((), ()))) == [(F(1, 2), 0), (1, 0)]


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
        roots = _rational_roots(p)
        # a root of the product roots a factor: |numerator|, denominator <= 4
        expected = {v for v in (F(n, d) for n, d in product(range(-6, 7), range(1, 7)))
                    if peval(p, v) == (0, 0)}
        assert set(roots) == expected and len(roots) == len(expected)
        assert roots == sorted(roots, key=lambda v: (v != 0, abs(v.numerator),
                                                     v.denominator, v < 0))

    def test_sqrt3_part_must_vanish_too(self):
        # (c - 1) + sqrt3 (c - 2): 1 roots the rational part only
        assert _rational_roots([(-1, -2), (1, 1)]) == []
        # sqrt3 (2c - 1)(c + 1)
        assert _rational_roots([(0, -1), (0, 1), (0, 2)]) == [F(-1), F(1, 2)]


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


class TestWalksOncePerNode:
    """A distinct node is expanded at most once while it lives, and worked on
    at most once per call by a walk that depends on the call's arguments."""

    @pytest.mark.parametrize("request_", [
        lambda: map_fourier(parse_expr("-ln(1-t)*t/(1+t^2)"), kind="sine"),
        lambda: map_cospow(parse_expr("t/(1-t)^2 + arctan(t)"), kind="cos"),
    ], ids=["map_fourier", "map_cospow"])
    def test_map_request(self, monkeypatch, request_):
        # the visit lists hold the nodes (and the per-call walks), so no id
        # is reused while they are counted
        expanded, extracted = [], []
        expand, tpoly = trigpoly._expand, trigpoly._tpoly

        def counted_expand(e):
            expanded.append(e)
            return expand(e)

        def counted_tpoly(e, recurse, *extra):
            extracted.append((recurse, e))
            return tpoly(e, recurse, *extra)

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
    # node, and a walk_once memo is not held by a cycle, so the nodes of a
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
    coeffs = trigpoly.polynomial_in(parse_expr("(x/3)/((-y-y)+y)"), "x")
    assert [to_text(a) for a in coeffs] == ["0", "(-1/3)*y^-1"]


@pytest.mark.xfail(strict=True, reason="a sum under a power above the "
                   "expansion limit that cancels down to exponent 1 stays "
                   "one atom: collect_terms gives 2*(1 + x) and "
                   "polynomial_in gives None")
def test_cancelled_high_power_is_expanded():
    e = parse_expr("2*(x+1)^8/(x+1)^7")
    assert to_text(trigpoly.collect_terms(e)) == "2 + 2*x"
    assert [to_text(a) for a in trigpoly.polynomial_in(e, "x")] == ["2", "2"]
