"""Operator-pair rules against the complex-shift oracle, the structural
algorithms, inverse-function systems, and the guarded rewrites."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from trigsum.expr import (MAX_POWER, Expr, ExprError, eval_real, fold, func,
                          parse_expr, rational, symbol, to_text)
from trigsum.operators import (UnsupportedHeadError,
                               apply_operator, complex_shift_oracle,
                               simplify_collect, verify_inverse_system)
from trigsum.trigpoly import AngleLocus, split_rational

X, H = symbol("x"), symbol("h")

# singularity-free sample boxes (x_lo, x_hi, h_lo, h_hi) per head; the
# inverse-trig rules additionally need x^2 + h^2 < 1 for principal branches
BOXES = {
    "exp": (0.0, 2.0, 0.05, 1.5), "sin": (0.0, 2.0, 0.05, 1.5),
    "cos": (0.0, 2.0, 0.05, 1.5),
    "tan": (0.1, 1.3, 0.05, 1.0), "cot": (0.1, 1.3, 0.05, 1.0),
    "sec": (0.1, 1.3, 0.05, 1.0), "csc": (0.1, 1.3, 0.05, 1.0),
    "ln": (0.2, 2.0, 0.05, 1.0),
    "arctan": (0.1, 0.6, 0.05, 0.5), "arccot": (0.1, 0.6, 0.05, 0.5),
    "cosh": (0.0, 2.0, 0.05, 1.5), "sinh": (0.0, 2.0, 0.05, 1.5),
    "sqrt": (0.3, 2.0, 0.05, 0.25),
}


def sample_box(head, rng, count):
    x0, x1, h0, h1 = BOXES[head]
    out = []
    while len(out) < count:
        x, h = rng.uniform(x0, x1), rng.uniform(h0, h1)
        if head in ("arctan", "arccot") and x * x + h * h >= 0.95:
            continue
        out.append((x, h))
    return out


def max_rule_error(expr, pair, samples, digits=20):
    worst = 0.0
    for x, h in samples:
        re, im = complex_shift_oracle(expr, x, h, digits)
        c = eval_real(pair.cos_part, {"x": x, "h": h}, digits)
        s = eval_real(pair.sin_part, {"x": x, "h": h}, digits)
        worst = max(worst, abs(float(c - re)), abs(float(s - im)))
    return worst


class TestRuleTable:
    @pytest.mark.parametrize("head", sorted(BOXES))
    def test_head_matches_oracle(self, head):
        rng = random.Random(20240811)
        e = func(head, X)
        pair = apply_operator(e, X, H)
        assert max_rule_error(e, pair, sample_box(head, rng, 30)) < 1e-12

    def test_exp_structure(self):
        pair = apply_operator(parse_expr("exp(b*x)"), X, H)
        assert to_text(pair.cos_part) == "cos(b*h)*exp(b*x)"
        assert to_text(pair.sin_part) == "sin(b*h)*exp(b*x)"

    def test_tan_sin_part_structure(self):
        pair = apply_operator(func("tan", X), X, H)
        assert to_text(pair.sin_part) == "sinh(2*h)/(cosh(2*h) + cos(2*x))"

    def test_constant_operand(self):
        pair = apply_operator(rational(1), X, H)
        assert pair.cos_part == rational(1)
        assert pair.sin_part == rational(0)

    def test_ln_parts(self):
        pair = apply_operator(func("ln", X), X, H)
        assert to_text(pair.cos_part) == "1/2*ln(x^2 + h^2)"
        assert to_text(pair.sin_part) == "arccot(x/h)"

    def test_unsupported_head(self):
        with pytest.raises(UnsupportedHeadError):
            apply_operator(func("tanh", X), X, H)


class TestAlgorithms:
    def test_linearity(self):
        f, g = parse_expr("sin(x)"), parse_expr("exp(x)")
        combo = parse_expr("3*sin(x) - 2*exp(x)")
        pc = apply_operator(combo, X, H)
        pf, pg = apply_operator(f, X, H), apply_operator(g, X, H)
        with mp.workdps(25):
            for x, h in [(0.4, 0.3), (1.1, 0.8)]:
                b = {"x": x, "h": h}
                for part in ("cos_part", "sin_part"):
                    lhs = eval_real(getattr(pc, part), b, 25)
                    rhs = (3 * eval_real(getattr(pf, part), b, 25)
                           - 2 * eval_real(getattr(pg, part), b, 25))
                    assert abs(lhs - rhs) < 1e-20

    def test_zero_shift_structural(self):
        e = parse_expr("x^2 + ln(x)")
        pair = apply_operator(e, X, rational(0))
        assert pair.cos_part == e
        assert pair.sin_part == rational(0)

    def test_product_rule_vs_oracle(self):
        rng = random.Random(7)
        e = parse_expr("sin(x)*exp(x)")
        pair = apply_operator(e, X, H)
        samples = [(rng.uniform(0.1, 1.5), rng.uniform(0.05, 1.0))
                   for _ in range(30)]
        assert max_rule_error(e, pair, samples) < 1e-12

    def test_quotient_rule_vs_oracle(self):
        rng = random.Random(8)
        e = parse_expr("sin(x)/(2+cos(x))")
        pair = apply_operator(e, X, H)
        samples = [(rng.uniform(0.1, 1.5), rng.uniform(0.05, 0.8))
                   for _ in range(30)]
        assert max_rule_error(e, pair, samples) < 1e-12

    def test_composite_rule_vs_oracle(self):
        rng = random.Random(9)
        e = parse_expr("ln(1+exp(x))")
        pair = apply_operator(e, X, H)
        samples = [(rng.uniform(0.1, 1.0), rng.uniform(0.05, 0.8))
                   for _ in range(30)]
        assert max_rule_error(e, pair, samples) < 1e-12

    def test_product_quotient_coherence(self):
        # parts of u recovered from (u*v)/v match direct application
        u, v = parse_expr("exp(x)"), parse_expr("2+cos(x)")
        uv_over_v = parse_expr("(exp(x)*(2+cos(x)))/(2+cos(x))")
        direct = apply_operator(u, X, H)
        routed = apply_operator(uv_over_v, X, H)
        with mp.workdps(25):
            for x, h in [(0.3, 0.2), (1.2, 0.7)]:
                b = {"x": x, "h": h}
                for part in ("cos_part", "sin_part"):
                    lhs = eval_real(getattr(routed, part), b, 25)
                    rhs = eval_real(getattr(direct, part), b, 25)
                    assert abs(lhs - rhs) < 1e-20

    @pytest.mark.parametrize("n", [5, -3, MAX_POWER, -MAX_POWER])
    def test_power_rule_vs_oracle(self, n):
        # the binomial pair of (u + i w)^n, over the pair of 1/2 + x/3
        e = parse_expr(f"(1/2 + x/3)^{n}")
        pair = apply_operator(e, X, H)
        assert max_rule_error(e, pair, [(0.4, 0.3), (1.1, 0.2)], 40) < 1e-20

    @pytest.mark.parametrize("n", [MAX_POWER + 1, -MAX_POWER - 1, 640, 10 ** 9])
    def test_power_over_the_cap_refused(self, n):
        # refused before any term is built: 10^9 would not finish otherwise
        with pytest.raises(ExprError, match=f"power exponent {n} exceeds {MAX_POWER}"):
            apply_operator(parse_expr(f"sin(x)^{n}"), X, H)

    def test_integer_power_as_repeated_product(self):
        e2, ee = parse_expr("sin(x)^3"), parse_expr("sin(x)*sin(x)*sin(x)")
        p1, p2 = apply_operator(e2, X, H), apply_operator(ee, X, H)
        with mp.workdps(25):
            b = {"x": 0.7, "h": 0.4}
            assert abs(eval_real(p1.cos_part, b, 25)
                       - eval_real(p2.cos_part, b, 25)) < 1e-22


class TestInverseSystems:
    SAMPLES = [(0.3, 0.2), (0.7, 0.45), (1.4, 0.15), (0.15, 0.55)]

    def test_ln_exp(self):
        pair = apply_operator(func("ln", X), X, H)
        assert verify_inverse_system(parse_expr("exp(y)"), pair, self.SAMPLES)

    def test_arctan_tan(self):
        samples = [(0.2, 0.1), (0.4, 0.3), (0.1, 0.5), (0.5, 0.2)]
        pair = apply_operator(func("arctan", X), X, H)
        assert verify_inverse_system(parse_expr("tan(y)"), pair, samples)

    def test_sqrt_square(self):
        pair = apply_operator(func("sqrt", X), X, H)
        assert verify_inverse_system(parse_expr("y^2"), pair, self.SAMPLES)

    def test_zero_shift_degenerate(self):
        pair = apply_operator(func("ln", X), X, rational(0))
        assert pair.cos_part == func("ln", X)
        assert pair.sin_part == rational(0)
        assert verify_inverse_system(parse_expr("exp(y)"), pair,
                                     [(0.5, 0.0), (2.0, 0.0)])

    def test_failure_reported(self):
        pair = apply_operator(func("ln", X), X, H)
        # exp(2y) is not the inverse of ln
        assert not verify_inverse_system(parse_expr("exp(2*y)"), pair,
                                         [(0.5, 0.3)])


# the cancelled factor 2cos(u) - 1 vanishes at u = +-pi/3
CANCELLED = ("arccot((2*cos(pi*x/c)-1)*cos(pi*x/c)"
             "/((2*cos(pi*x/c)-1)*sin(pi*x/c)))")


def guard_zeros(outcome, lo, hi):
    """The zeros of each guard of a ``simplify_collect`` outcome with
    lo <= y <= hi, where the guard's base angle is rho*y and y its unit."""
    out = []
    for locus, base in outcome.guards:
        rho, _ = split_rational(base)
        out.append(locus.scaled(rho).points_in(Fraction(lo), Fraction(hi)))
    return out


class TestSimplifyGuarded:
    """The guarded rewrites of ``simplify_collect``: each collapse, the exact
    placement of its guards' zeros, its value and the branch extension."""

    def test_half_angle_collapse(self):
        theta = parse_expr("pi*x/c")
        img = apply_operator(parse_expr("ln(1+exp(z))"), rational(0), theta,
                             var="z").sin_part
        out = simplify_collect(img).expr
        assert to_text(out) == "1/2*c^-1*pi*x"

    def test_cot_collapse(self):
        e = parse_expr("arccot(cos(pi*x/(2*c))/sin(pi*x/(2*c)))")
        out = simplify_collect(e).expr
        assert to_text(out) == "1/2*c^-1*pi*x"

    def test_cancellation_with_sign(self):
        e = parse_expr("arccot((1-cos(pi*x/c)^2)/(sin(pi*x/c)*cos(pi*x/c)))")
        out = simplify_collect(e).expr
        assert to_text(out) == "-(c^-1*pi*x) + 1/2*pi"

    def test_arctan_degenerate_denominator(self):
        e = parse_expr("arctan(2*cos(pi*x/c)/(1 - cos(pi*x/c)^2 - sin(pi*x/c)^2))")
        out = simplify_collect(e).expr
        assert to_text(out) == "1/2*pi"

    def test_guard_violated_rewrite_skipped(self):
        # the cancelled factor's zero x = c/3 (c taken at 1) lies inside a
        # wide window and outside a narrow one
        out = simplify_collect(parse_expr(CANCELLED))
        assert to_text(out.expr) == "c^-1*pi*x"
        assert [locus for locus, _ in out.guards] == [
            AngleLocus(Fraction(1, 3), Fraction(2)),
            AngleLocus(Fraction(-1, 3), Fraction(2))]
        assert guard_zeros(out, 0.05, 0.95) == [[Fraction(1, 3)], []]
        assert guard_zeros(out, 0.02, 0.30) == [[], []]

    def test_guard_just_inside_the_interval(self):
        # the zero x = c/3 lies 1e-13 inside the window's end; it is placed
        # exactly, as a Fraction, so the window holds it
        out = simplify_collect(parse_expr(CANCELLED))
        assert guard_zeros(out, 0.02, 1 / 3 + 1e-13) == [[Fraction(1, 3)], []]
        assert guard_zeros(out, 0.02, 1 / 3 - 1e-13) == [[], []]

    def test_base_without_pi(self):
        # base x: the guard x = pi is the point t = 1 in units of pi, and
        # only its product with pi is a float
        out = simplify_collect(parse_expr("arccot((1+cos(x))/sin(x))"))
        assert to_text(out.expr) == "1/2*x"
        assert [to_text(base) for _, base in out.guards] == ["x"]
        assert guard_zeros(out, -2, 2) == [[Fraction(-1), Fraction(1)]]
        (t,), = guard_zeros(out, 0, 2)
        assert 3.1 < float(t) * math.pi < 3.2   # outside (0.1, 3.1), inside (0.1, 3.2)
        (t,), = guard_zeros(out, -2, 0)
        assert -3.2 < float(t) * math.pi < -3.1

    def test_placement_loads_no_mpmath(self):
        code = ("import sys\n"
                "from fractions import Fraction\n"
                "from trigsum.expr import parse_expr, to_text\n"
                "from trigsum.operators import simplify_collect\n"
                "out = simplify_collect(parse_expr('arccot((1+cos(pi*x))/sin(pi*x))'))\n"
                "(locus, base), = out.guards\n"
                "print(to_text(out.expr), locus.points_in(Fraction(-2), Fraction(2)))\n"
                "print('mpmath' in sys.modules, 'trigsum.evaluate' in sys.modules)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "1/2*pi*x [Fraction(-1, 1), Fraction(1, 1)]", "False False"]

    def test_value_preserved_exact_rewrites(self):
        # principal-branch-exact rewrites agree pointwise with the input
        cases = [
            ("arccot((1+cos(pi*x))/sin(pi*x))", (0.05, 0.95)),
            ("arccot((1-cos(pi*x)^2)/(sin(pi*x)*cos(pi*x)))", (0.05, 0.45)),
        ]
        for text, (lo, hi) in cases:
            e = parse_expr(text)
            out = simplify_collect(e).expr
            with mp.workdps(25):
                for i in range(200):
                    x = lo + (hi - lo) * (i + 0.5) / 200
                    a = eval_real(e, {"x": x}, 25)
                    b = eval_real(out, {"x": x}, 25)
                    assert abs(a - b) < 1e-12, (text, x)

    def test_branch_extension_matches_complex_limit(self):
        # the one sign-pulled rewrite equals the complex-shift limit of the
        # log it came from on the whole validity interval
        theta = parse_expr("pi*x/c")
        img = apply_operator(parse_expr("-ln(1-exp(z))"), rational(0), theta,
                             var="z").sin_part
        out = simplify_collect(img)
        assert out.branch_rewrites == 1
        with mp.workdps(30):
            for i in range(40):
                x = 0.05 + 1.9 * i / 39
                want = mp.im(-mp.log(1 - mp.exp(mp.mpc(0, mp.pi * x))))
                got = eval_real(out.expr, {"x": x, "c": 1}, 30)
                assert abs(got - want) < 1e-25


class TestOracleExamples:
    def test_sin_at_origin_shift(self):
        with mp.workdps(30):
            re, im = complex_shift_oracle(parse_expr("sin(x)"), 0, 1, 30)
            assert abs(re) < 1e-28
            assert abs(im - mp.sinh(1)) < 1e-28

    def test_identity_expression(self):
        re, im = complex_shift_oracle(symbol("x"), 0.8, 0.35, 25)
        assert float(re) == pytest.approx(0.8, abs=1e-20)
        assert float(im) == pytest.approx(0.35, abs=1e-20)

    def test_sec_matches_rule_parts(self):
        e = func("sec", X)
        pair = apply_operator(e, X, H)
        re, im = complex_shift_oracle(e, 0.7, 0.3, 25)
        b = {"x": 0.7, "h": 0.3}
        with mp.workdps(25):
            assert abs(eval_real(pair.cos_part, b, 25) - re) < 1e-12
            assert abs(eval_real(pair.sin_part, b, 25) - im) < 1e-12


class TestGuardedFirstForm:
    def test_signed_half_angle_rewrite(self):
        # the sign-handled collapse: the quotient under arccot rewrites to
        # the negated half-angle line, so its negation is the log-series sum
        e = parse_expr("arccot((1-cos(pi*x/c))/(-sin(pi*x/c)))")
        out = simplify_collect(e).expr
        want = parse_expr("-(pi/2 - pi*x/(2*c))")
        with mp.workdps(25):
            for ratio in (0.2, 0.9, 1.5):
                a = eval_real(out, {"x": ratio, "c": 1}, 25)
                b = eval_real(want, {"x": ratio, "c": 1}, 25)
                assert abs(a - b) < 1e-20


class TestSimplifyCollect:
    @pytest.mark.parametrize("text, once, branches", [
        ("arccot((1+cos(x))/sin(x))", "1/2*x", 0),
        ("arccot(-(1+cos(x))/sin(x))", "(-1/2)*x", 1),
    ])
    def test_repeated_subterm_counts_at_each_occurrence(self, text, once, branches):
        # the rewrite runs once on the shared node, but its guard and its
        # branch count are reported for each of the sum's two occurrences
        a = fold(parse_expr(text))
        guard = (AngleLocus(Fraction(1), Fraction(2)), symbol("x"))
        single = simplify_collect(a)
        assert (to_text(single.expr), single.guards, single.branch_rewrites) == (
            once, [guard], branches)
        twice = simplify_collect(Expr("add", (a, a)))
        assert (twice.guards, twice.branch_rewrites) == ([guard, guard], 2 * branches)
        assert to_text(twice.expr) == ("x" if branches == 0 else "-x")
