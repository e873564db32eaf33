"""Seeded generators for the symbolic inputs, each paired with an mpmath
evaluator written here, so that outputs are checked without trigsum's own
evaluation of the input.

Sum functions S(t) are analytic on the open unit disk and continuous on the
circle away from finitely many points.  They leave out ln(1 - a*t) with
0 < a < 1, and the Example 2 sum under map_cospow: there the ln rule takes
the wrong branch and the closed form is off by pi, a defect the symbolic
workload runs as a named probe instead.

Operator trees are built over the 13 rule heads inside the region where the
rule table's branch conventions hold: arguments of ln, sqrt, arctan and
arccot have a positive shift part (an affine a*x + b with a > 0 and h > 0),
and arctan/arccot stay inside the unit disk.
"""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath as mp

EXAMPLE2_SUM = ("(t/12 - 1/(12*t))*ln(t^2 - t + 1) - (t/6 - 1/(6*t))*ln(1+t)"
                " + (t/4 + 1/(4*t))*(2/sqrt(3))*(arctan((2*t-1)/sqrt(3))"
                " + pi/6) - 1/2")


def example2_sum(t):
    s3 = mp.sqrt(3)
    return ((t / 12 - 1 / (12 * t)) * mp.log(t * t - t + 1)
            - (t / 6 - 1 / (6 * t)) * mp.log(1 + t)
            + (t / 4 + 1 / (4 * t)) * (2 / s3) * (mp.atan((2 * t - 1) / s3) + mp.pi / 6)
            - mp.mpf(1) / 2)


# (text, evaluator) pairs; every text parses with trigsum.expr.parse_expr.
SUM_ATOMS = [
    ("-ln(1-t)", lambda t: -mp.log(1 - t)),
    ("ln(1+t)", lambda t: mp.log(1 + t)),
    ("arctan(t)", lambda t: mp.atan(t)),
    ("ln(1+t/2)", lambda t: mp.log(1 + t / 2)),
    ("ln(1+t^2/4)", lambda t: mp.log(1 + t * t / 4)),
    ("ln(1+t^2)", lambda t: mp.log(1 + t * t)),
    ("arctan(t/2)", lambda t: mp.atan(t / 2)),
    ("ln(1+t)/t", lambda t: mp.log(1 + t) / t),
    ("t", lambda t: t),
    ("t^2", lambda t: t ** 2),
    ("t^3", lambda t: t ** 3),
    ("exp(t)", lambda t: mp.exp(t)),
    ("exp(t/2)", lambda t: mp.exp(t / 2)),
    ("sin(t)", lambda t: mp.sin(t)),
    ("cos(t)", lambda t: mp.cos(t)),
    ("sinh(t)", lambda t: mp.sinh(t)),
    ("cosh(t)", lambda t: mp.cosh(t)),
    ("1/(2-t)", lambda t: 1 / (2 - t)),
    ("1/(3+t)", lambda t: 1 / (3 + t)),
    ("(1+t)/(2-t)", lambda t: (1 + t) / (2 - t)),
    ("t/(4+t^2)", lambda t: t / (4 + t * t)),
]

_ENTIRE = [("exp(t)", mp.exp), ("sin(t)", mp.sin), ("cos(t)", mp.cos)]
_COEFFS = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)]


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"({q.numerator}/{q.denominator})"


def _shaped(rng: random.Random, shape: int, atom, partner):
    """Shapes 0-2 wrap one atom (as is, times a rational, times t); shapes
    3-5 combine it with the partner atom, an entire function or 1/(3 - t)."""
    a_txt, a_fn = atom
    if shape == 0:
        return a_txt, a_fn
    if shape == 1:
        k = rng.choice(_COEFFS)
        kf = mp.mpf(k.numerator) / k.denominator
        return f"{_frac_text(k)}*({a_txt})", lambda t: kf * a_fn(t)
    if shape == 2:
        return f"t*({a_txt})", lambda t: t * a_fn(t)
    if shape == 3:
        b_txt, b_fn = partner
        return f"{a_txt} + {b_txt}", lambda t: a_fn(t) + b_fn(t)
    if shape == 4:
        e_txt, e_fn = rng.choice(_ENTIRE)
        return f"({a_txt})*{e_txt}", lambda t: a_fn(t) * e_fn(t)
    return f"({a_txt})/(3-t)", lambda t: a_fn(t) / (3 - t)


def random_sum(rng: random.Random, fourier: bool):
    """One sum function S(t) as (text, evaluator).  The Example 2 sum is a
    Fourier input only: under map_cospow its ln(t^2 - t + 1) meets the
    negative-shift ln defect that the symbolic probe reports."""
    if fourier and rng.random() < 0.05:
        return EXAMPLE2_SUM, example2_sum
    return _shaped(rng, rng.randrange(6), rng.choice(SUM_ATOMS), rng.choice(SUM_ATOMS))


def pass_sums(rng: random.Random, fourier: bool):
    """The sum functions of one pass: every atom once in a one-atom shape
    and once in a combined shape, shapes and partners dealt out by a seeded
    permutation, plus the Example 2 sum twice for the Fourier kinds.  The
    mix, and so the cost of a pass, is the same for every seed."""
    order = rng.sample(SUM_ATOMS, len(SUM_ATOMS))
    partners = rng.sample(SUM_ATOMS, len(SUM_ATOMS))
    out = []
    for i, atom in enumerate(order):
        out.append(_shaped(rng, i % 3, atom, None))
        out.append(_shaped(rng, 3 + i % 3, atom, partners[i]))
    if fourier:
        out += [(EXAMPLE2_SUM, example2_sum)] * 2
    return out


def random_half_period(rng: random.Random):
    """The half-period c: symbolic (None), pi, or a rational, as
    (text or None, numeric value used by the checks)."""
    pick = rng.randrange(3)
    if pick == 0:
        return None, mp.mpf(13) / 10
    if pick == 1:
        return "pi", +mp.pi
    q = rng.choice([Fraction(1, 2), Fraction(3, 2), Fraction(2)])
    return f"{q.numerator}/{q.denominator}", mp.mpf(q.numerator) / q.denominator


# --- operator trees -------------------------------------------------------

def _affine(rng: random.Random):
    a = rng.choice([Fraction(1), Fraction(2), Fraction(1, 2)])
    b = rng.choice([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
    af, bf = mp.mpf(a.numerator) / a.denominator, mp.mpf(b.numerator) / b.denominator
    text = "x" if a == 1 else f"{_frac_text(a)}*x"
    if b:
        text = f"({text} + {_frac_text(b)})"
    return text, lambda z: af * z + bf


_ENTIRE_HEADS = {"exp": mp.exp, "sin": mp.sin, "cos": mp.cos,
                 "sinh": mp.sinh, "cosh": mp.cosh}
_MERO_HEADS = {"tan": mp.tan, "cot": mp.cot, "sec": mp.sec, "csc": mp.csc}


def _entire(rng: random.Random, depth: int):
    head = rng.choice(sorted(_ENTIRE_HEADS))
    fn = _ENTIRE_HEADS[head]
    if depth > 0 and rng.random() < 0.4:
        inner_txt, inner_fn = _entire(rng, depth - 1)
    else:
        inner_txt, inner_fn = _affine(rng)
    return f"{head}({inner_txt})", lambda z: fn(inner_fn(z))


def _factor(rng: random.Random):
    pick = rng.randrange(3)
    if pick == 0:
        return _entire(rng, 1)
    inner_txt, inner_fn = _affine(rng)
    if pick == 1:
        head = rng.choice(sorted(_MERO_HEADS))
        fn = _MERO_HEADS[head]
        return f"{head}({inner_txt})", lambda z: fn(inner_fn(z))
    head = rng.choice(["ln", "sqrt", "arctan", "arccot"])
    if head == "ln":
        return f"ln({inner_txt})", lambda z: mp.log(inner_fn(z))
    if head == "sqrt":
        return f"sqrt({inner_txt})", lambda z: mp.sqrt(inner_fn(z))
    if head == "arctan":
        return f"arctan({inner_txt}/4)", lambda z: mp.atan(inner_fn(z) / 4)
    return f"arccot({inner_txt}/4)", lambda z: mp.pi / 2 - mp.atan(inner_fn(z) / 4)


def _denominator(rng: random.Random):
    inner_txt, inner_fn = _affine(rng)
    pick = rng.randrange(3)
    if pick == 0:
        return f"(2 + cos({inner_txt}))", lambda z: 2 + mp.cos(inner_fn(z))
    if pick == 1:
        return f"(3 + sin({inner_txt}))", lambda z: 3 + mp.sin(inner_fn(z))
    return f"(2 + exp({inner_txt}))", lambda z: 2 + mp.exp(inner_fn(z))


def random_tree(rng: random.Random):
    """One operand f(x) for apply_operator as (text, evaluator at x + ih).

    Sample points are x in [0.1, 1] and h in [0.05, 0.5]."""
    txt, fn = _factor(rng)
    for _ in range(rng.randrange(3)):
        op = rng.choice("+*/")
        if op == "/":
            d_txt, d_fn = _denominator(rng)
            txt, fn = f"({txt})/{d_txt}", (lambda f, g: lambda z: f(z) / g(z))(fn, d_fn)
        else:
            o_txt, o_fn = _factor(rng)
            if op == "+":
                txt, fn = f"{txt} + {o_txt}", (lambda f, g: lambda z: f(z) + g(z))(fn, o_fn)
            else:
                txt, fn = f"({txt})*({o_txt})", (lambda f, g: lambda z: f(z) * g(z))(fn, o_fn)
    return txt, fn


def sample_points(rng: random.Random, count: int):
    """Seeded (x, h) sample points inside the operator-tree region."""
    return [(rng.uniform(0.1, 1.0), rng.uniform(0.05, 0.5)) for _ in range(count)]
