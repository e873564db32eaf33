"""Expression grammar, printing round trips, interning, and numeric
evaluation."""

import copy
import gc
import pickle
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from trigsum import evaluate, expr as expr_module
from trigsum.expr import (
    BranchCutError, DomainError, EvalError, Expr, FUNCTIONS, MAX_NESTING, ONE,
    PI, ParseError, PoleError, UnboundSymbolError, ZERO, eval_complex,
    eval_real, fold, func, mul, neg, parse_expr, rational, symbol, to_text,
)
from trigsum.mapping import map_fourier
from trigsum.operators import apply_operator


class TestParse:
    def test_function_over_product(self):
        e = parse_expr("exp(b*x)")
        assert e.kind == "call" and e.value == "exp"
        inner = e.args[0]
        assert inner.kind == "mul"
        assert inner.args[0] == symbol("b") and inner.args[1] == symbol("x")

    def test_rational_plus_pi_power(self):
        e = parse_expr("1/2 + pi^2")
        assert e.kind == "add"
        assert e.args[0] == rational(1, 2)
        assert e.args[1].kind == "pow" and e.args[1].args[0] == PI
        assert e.args[1].value == 2

    def test_nested_quotient_in_arccot(self):
        e = parse_expr("arccot((1-cos(x))/sin(x))")
        assert e.kind == "call" and e.value == "arccot"
        assert e.args[0].kind == "div"

    def test_precedence_unary_minus_below_power(self):
        # ^ binds tighter than unary minus
        e = parse_expr("-x^2")
        assert e.kind == "neg"
        assert e.args[0].kind == "pow"

    def test_whitespace_insensitive(self):
        assert parse_expr(" 1 / 2 + pi ^ 2 ") == parse_expr("1/2+pi^2")

    def test_rational_literal_normalizes(self):
        assert parse_expr("6/4") == rational(3, 2)

    def test_syntax_error_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("1 + @")
        assert err.value.pos == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse_expr("sinc(x)")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_expr("1 + 2 )")

    @pytest.mark.parametrize("opening,closing,per", [
        ("sin(", ")", 1), ("(", ")", 1), ("-", "", 1), ("exp(-", ")", 2)])
    def test_nesting_limit(self, opening, closing, per):
        # parentheses, calls and unary minus each count one level
        levels = MAX_NESTING // per
        assert parse_expr(opening * levels + "x" + closing * levels) is not None
        deeper = levels + 1
        with pytest.raises(ParseError, match=f"nesting depth exceeds {MAX_NESTING}"):
            parse_expr(opening * deeper + "x" + closing * deeper)


# canonical parser-image trees: rational leaves are non-negative (negative
# literals live behind the factor-level sign fold) and neg never wraps a
# bare rational.  The trees are at most MAX_DEPTH levels deep, so at most
# 2^MAX_DEPTH leaves, and they are drawn without filters: a filter retry
# makes Hypothesis print the nested strategy, which grows with the depth
_leaf = st.one_of(
    st.integers(0, 9).map(rational),
    st.fractions(min_value=0, max_value=5).map(rational),
    st.sampled_from("xyzbch").map(symbol),
    st.just(PI),
)
MAX_DEPTH = 6


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: Expr("add", ab)),
        st.tuples(children, children).map(lambda ab: Expr("mul", ab)),
        st.tuples(children, children).map(
            lambda ab: Expr("div", (ab[0], ONE if ab[1] is ZERO else ab[1]))),
        children.map(lambda a: a if a.kind == "rat" else Expr("neg", (a,))),
        st.tuples(children, st.integers(-3, 5)).map(
            lambda an: Expr("pow", (an[0],), an[1])),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(
            lambda fa: Expr("call", (fa[1],), fa[0])),
    )


def _trees(depth):
    return _leaf if depth == 0 else st.one_of(_leaf, _combine(_trees(depth - 1)))


_exprs = _trees(MAX_DEPTH)


def _depth(e):
    return 1 + max(map(_depth, e.args), default=0)


def _fresh_copy(e):
    """The same tree, built again bottom-up with new, equal Fractions."""
    value = e.value
    if e.kind == "rat":
        value = Fraction(value.numerator, value.denominator)
    return Expr(e.kind, tuple(_fresh_copy(a) for a in e.args), value)


class TestRoundTrip:
    @given(_exprs)
    @example(Expr("div", (rational(0), Expr("pow", (rational(1),), 0))))
    @example(Expr("div", (rational(0), Expr("pow", (rational(0),), 0))))
    @settings(max_examples=300, deadline=None)
    def test_print_parse_identity(self, e):
        assert _depth(e) <= MAX_DEPTH + 1
        assert parse_expr(to_text(e)) is e

    def test_specific_shapes(self):
        for text in ["a - b + c", "a - (b + c)", "-(x*y)", "x^-2",
                     "(a + b)^3", "1/2/x", "2/x/3", "sqrt(3)*pi/9",
                     "arccot(tan(pi*x/(2*c)))"]:
            e = parse_expr(text)
            assert parse_expr(to_text(e)) is e


class TestInterning:
    @given(_exprs)
    @settings(max_examples=200, deadline=None)
    def test_equal_trees_are_one_node(self, e):
        again = _fresh_copy(e)
        assert again is e and hash(again) == hash(e)

    def test_payload_type_is_part_of_the_key(self):
        x = symbol("x")
        nodes = [Expr("pow", (x,), v) for v in (Fraction(1), 1, True)]
        assert len({id(n) for n in nodes}) == 3
        assert rational(0) is ZERO and rational(3, 3) is ONE

    def test_immutable(self):
        e = parse_expr("x + 1")
        with pytest.raises(AttributeError):
            e.kind = "mul"
        with pytest.raises(AttributeError):
            del e.args

    def test_copies_are_the_node(self):
        e = parse_expr("sin(x)^2/(1 + cos(2*x))")
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e

    def test_table_drops_dead_nodes(self):
        e = parse_expr("sin(interning_probe_a + 1/7)^3*interning_probe_b")
        gc.collect()
        before = len(expr_module._INTERN)
        del e
        gc.collect()
        assert len(expr_module._INTERN) <= before - 7

    def test_stale_callback_keeps_the_live_node(self):
        # a dead node's callback that runs after its key was taken by a newer
        # node of the same structure must leave the newer node in the table
        e = parse_expr("stale_probe_a*sin(stale_probe_b)")
        ref = next(r for r in list(expr_module._INTERN.values()) if r() is e)
        callback, args = ref.__callback__, e.args
        del e
        gc.collect()
        assert ref() is None
        again = Expr("mul", args)
        callback(ref)
        assert Expr("mul", args) is again
        assert parse_expr("stale_probe_a*sin(stale_probe_b)") is again

    def test_threads_build_one_node(self):
        # four threads build the same fresh trees at once; every node they
        # return is the one node of its structure
        texts = [f"sin(threads_probe_{k} + x)^2/(1 + cos(threads_probe_{k}*x))"
                 for k in range(200)]
        barrier = threading.Barrier(4, timeout=30)
        built = [None] * 4

        def build(i):
            barrier.wait()
            built[i] = [fold(parse_expr(t)) for t in texts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for other in built[1:]:
            assert all(a is b for a, b in zip(built[0], other))
        assert [to_text(e) for e in built[0]] == [to_text(fold(parse_expr(t))) for t in texts]

    def test_threads_dropping_nodes_keep_one_node(self):
        # four threads build and drop the same trees at once, so dead nodes'
        # callbacks run while other threads insert the same keys; a node a
        # thread holds must stay the one node of its structure
        texts = [f"cos(dropping_probe_{k}*x) + sin(x)/{k + 2}" for k in range(40)]
        barrier = threading.Barrier(4, timeout=30)
        mismatches = [0] * 4

        def churn(i):
            barrier.wait()
            for _ in range(80):
                held, stack = [], [parse_expr(t) for t in texts]
                while stack:
                    node = stack.pop()
                    held.append(node)
                    stack.extend(node.args)
                mismatches[i] += sum(Expr(n.kind, n.args, n.value) is not n for n in held)
                del held

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == [0] * 4

    def test_map_fourier_folds_each_node_once(self, monkeypatch):
        worked = []
        worker = expr_module._fold

        def counted(e):
            worked.append(e)     # holds each node, so none is rebuilt
            return worker(e)

        monkeypatch.setattr(expr_module, "_fold", counted)
        map_fourier(parse_expr("-ln(1-t)*t/(1+t^2)"), kind="sine")
        assert len(worked) > 20
        assert len(set(worked)) == len(worked)


class TestEvalReal:
    def test_exp_zero(self):
        assert eval_real(parse_expr("exp(x)"), {"x": 0}, 20) == 1

    def test_arccot_symmetry(self):
        with mp.workdps(30):
            v = eval_real(parse_expr("arccot(t)"), {"t": 1}, 30)
            assert abs(v - mp.pi / 4) < mp.mpf(10) ** -28

    def test_arccot_range_zero_pi(self):
        # arccot(-t) = pi - arccot(t)
        with mp.workdps(30):
            plus = eval_real(parse_expr("arccot(t)"), {"t": 2}, 30)
            minus = eval_real(parse_expr("arccot(t)"), {"t": -2}, 30)
            assert abs(minus - (mp.pi - plus)) < mp.mpf(10) ** -28
            assert 0 < plus < mp.pi and 0 < minus < mp.pi

    def test_log_sine_kernel(self):
        e = parse_expr("ln(2*sin(pi*x/(2*c)))")
        with mp.workdps(30):
            v = eval_real(e, {"x": 1, "c": 1}, 30)
            assert abs(v - mp.ln(2)) < mp.mpf(10) ** -28

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_real(parse_expr("ln(x)"), {"x": -1})
        with pytest.raises(DomainError):
            eval_real(parse_expr("sqrt(x)"), {"x": -2})

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbolError):
            eval_real(parse_expr("x + y"), {"x": 1})

    def test_precision_monotone(self):
        # doubling digits never worsens the error against a 4x reference
        exprs = [parse_expr(t) for t in
                 ("exp(x)*sin(3*x)", "ln(1+x^2)/(1+x)", "arctan(x)^3")]
        xs = [0.3, 0.7, 1.9]
        for e in exprs:
            for x in xs:
                with mp.workdps(80):
                    ref = eval_real(e, {"x": x}, 80)
                    err10 = abs(eval_real(e, {"x": x}, 10) - ref)
                    err20 = abs(eval_real(e, {"x": x}, 20) - ref)
                    assert err20 <= err10 + mp.mpf(10) ** -78


class TestEvalComplex:
    def test_principal_log(self):
        with mp.workdps(30):
            v = eval_complex(parse_expr("ln(z)"), {"z": mp.mpc(1, 1)}, 30)
            assert abs(v.real - mp.ln(2) / 2) < mp.mpf(10) ** -28
            assert abs(v.imag - mp.pi / 4) < mp.mpf(10) ** -28

    def test_euler_identity(self):
        with mp.workdps(30):
            v = eval_complex(parse_expr("exp(z)"), {"z": mp.mpc(0, mp.pi)}, 30)
            assert abs(v.real + 1) < mp.mpf(10) ** -28
            assert abs(v.imag) < mp.mpf(10) ** -28

    def test_tan_matches_closed_parts(self):
        # Re/Im of tan at x+ih against the closed cos/sin parts
        with mp.workdps(30):
            x, h = mp.mpf("0.3"), mp.mpf("0.2")
            v = eval_complex(parse_expr("tan(z)"), {"z": mp.mpc(x, h)}, 30)
            den = mp.cosh(2 * h) + mp.cos(2 * x)
            assert abs(v.real - mp.sin(2 * x) / den) < 1e-12
            assert abs(v.imag - mp.sinh(2 * h) / den) < 1e-12

    def test_real_complex_consistency(self):
        for text in ("sin(x)*exp(x)", "ln(1+x^2)", "cosh(x)/(2+cos(x))"):
            e = parse_expr(text)
            for x in (0.25, 1.5):
                with mp.workdps(25):
                    rv = eval_real(e, {"x": x}, 25)
                    cv = eval_complex(e, {"x": mp.mpc(x, 0)}, 25)
                    assert cv.imag == 0
                    assert rv == cv.real


# (expression, binding of x, error class and message on the reals,
#  error class and message on the complex numbers)
EVAL_ERRORS = [
    ("1/x", 0, PoleError, "division by zero", PoleError, "division by zero"),
    ("x^-2", 0, PoleError, "zero base with negative exponent",
     PoleError, "zero base with negative exponent"),
    ("cot(x)", 0, PoleError, "cot pole hit", PoleError, "cot pole hit"),
    ("csc(x)", 0, PoleError, "csc pole hit", PoleError, "csc pole hit"),
    ("ln(x)", 0, DomainError, "ln of a non-positive value",
     PoleError, "ln(0)"),
    ("artanh(x)", 1, DomainError, "artanh outside (-1, 1)",
     BranchCutError, "artanh on its branch cut"),
    ("arcoth(x)", "0.5", DomainError, "arcoth inside [-1, 1]",
     BranchCutError, "arcoth on its branch cut"),
    ("y", 0, UnboundSymbolError, "unbound symbol 'y'",
     UnboundSymbolError, "unbound symbol 'y'"),
]


class TestEvaluationWalk:
    @pytest.mark.parametrize("text, x, real_error, real_message, "
                             "complex_error, complex_message", EVAL_ERRORS)
    def test_errors_per_field(self, text, x, real_error, real_message,
                              complex_error, complex_message):
        e = parse_expr(text)
        with pytest.raises(real_error) as refused:
            eval_real(e, {"x": x})
        assert str(refused.value) == real_message
        with pytest.raises(complex_error) as refused:
            eval_complex(e, {"x": x})
        assert str(refused.value) == complex_message

    @pytest.mark.parametrize("name", ["arctan", "arccot"])
    def test_imaginary_branch_cuts(self, name):
        for z in (mp.mpc(0, 1), mp.mpc(0, -2)):
            with pytest.raises(BranchCutError, match=f"{name} on its branch cut"):
                eval_complex(func(name, symbol("x")), {"x": z})

    def test_unknown_head_is_eval_error_in_both_fields(self):
        e = Expr("call", (symbol("x"),), "erf")
        with pytest.raises(EvalError, match="no real evaluator for 'erf'"):
            eval_real(e, {"x": 1})
        with pytest.raises(EvalError, match="no complex evaluator for 'erf'"):
            eval_complex(e, {"x": 1})

    def test_head_tables_cover_the_grammar(self):
        assert sorted(evaluate._REAL_HEADS) == sorted(FUNCTIONS)
        assert sorted(evaluate._COMPLEX_HEADS) == sorted(FUNCTIONS)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_each_head_runs_once_per_distinct_node(self, monkeypatch, field):
        # the cos part of the operator image of sin nested 12 deep is a DAG
        # with 12 sin nodes, reached along 2,048 tree paths; sin runs once
        # per node
        e = symbol("x")
        for _ in range(12):
            e = func("sin", e)
        image = apply_operator(e, symbol("x"), symbol("h")).cos_part
        seen, stack = set(), [image]
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(node.args)
        sin_nodes = sum(1 for node in seen
                        if node.kind == "call" and node.value == "sin")
        table = evaluate._REAL_HEADS if field == "real" else evaluate._COMPLEX_HEADS
        sin, calls = table["sin"], []

        def counted(x):
            calls.append(x)
            return sin(x)

        monkeypatch.setitem(table, "sin", counted)
        evaluator = eval_real if field == "real" else eval_complex
        evaluator(image, {"x": "0.3", "h": "0.2"}, 20)
        assert sin_nodes >= 12
        assert len(calls) == sin_nodes


class TestFold:
    def test_rational_arithmetic(self):
        assert fold(parse_expr("1/2 + 1/3")) == rational(5, 6)
        assert fold(parse_expr("(2/3)^2")) == rational(4, 9)

    def test_trig_parity(self):
        x = symbol("x")
        assert func("cos", neg(x)) == func("cos", x)
        assert func("sin", neg(x)) == neg(func("sin", x))
        assert func("sin", mul(rational(-2), x)) == neg(func("sin", mul(rational(2), x)))

    def test_exact_calls(self):
        assert func("exp", rational(0)) == rational(1)
        assert func("sqrt", rational(9, 4)) == rational(3, 2)
        assert to_text(func("arccot", rational(0))) == "1/2*pi"
