"""Expression grammar, printing round trips, interning, and numeric
evaluation."""

import copy
import gc
import pickle
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from trigsum import evaluate, expr as expr_module, operators as operators_module
from trigsum.expr import (
    BranchCutError, DomainError, EvalError, Expr, ExprError, FUNCTIONS,
    MAX_NESTING, ONE, PI, ParseError, PoleError, UnboundSymbolError, ZERO, add,
    div, eval_complex, eval_real, fold, free_symbols, func, ipow, mul, neg,
    parse_expr, postorder, rational, rebuild, sub, substitute, symbol, to_text,
)
from trigsum.evaluate import eval_complex_batch, eval_real_batch
from trigsum.mapping import MappingError, map_cospow, map_fourier
from trigsum.operators import apply_operator
from trigsum.trigpoly import collect_terms, split_rational


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
        S = parse_expr("-ln(1-t)*t/(1+t^2)")
        map_fourier(S, kind="sine")
        # the folding constructors build folded nodes, so only the parsed
        # input reaches the worker, each of its nodes once
        assert worked and set(worked) <= set(postorder((S,)))
        assert len(set(worked)) == len(worked)


def _marks_hold(roots) -> int:
    """Check that every node below ``roots`` marked folded is a fold fixed
    point; the number of marked inner nodes."""
    marked = 0
    for x in postorder(roots):
        if x.args and x._fold is True:
            assert all(a._fold is True for a in x.args), to_text(x)
            assert rebuild(x, x.args) is x, to_text(x)
            marked += 1
    return marked


def _fold_unmarked(e):
    """What fold gives when it trusts no mark: every node rebuilt through
    the constructors, children first."""
    done = {}
    for x in postorder((e,)):
        done[x] = rebuild(x, tuple(done[a] for a in x.args)) if x.args else x
    return done[e]


def _or_zero(build):
    """``build`` over a tuple of arguments; ZERO where it refuses them (a
    zero denominator, zero to a negative power)."""
    def make(args):
        try:
            return build(*args)
        except ExprError:
            return ZERO
    return make


_constructed_leaf = st.one_of(
    st.integers(-3, 3).map(rational),
    st.fractions(min_value=-2, max_value=2, max_denominator=4).map(rational),
    st.sampled_from("xy").map(symbol),
    st.just(PI),
)


def _constructed_trees(depth):
    if depth == 0:
        return _constructed_leaf
    children = _constructed_trees(depth - 1)
    pairs = st.tuples(children, children)
    return st.one_of(
        _constructed_leaf,
        children.map(neg),
        *(pairs.map(_or_zero(build)) for build in (add, sub, mul, div)),
        st.tuples(children, st.integers(-3, 4)).map(_or_zero(ipow)),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(_or_zero(func)),
    )


class TestFoldedByConstruction:
    """A node the folding constructors return is marked folded, and a node
    marked folded is a fold fixed point: rebuilding it over its own args
    through the constructors gives the node itself."""

    @given(_constructed_trees(4))
    @example(func("sin", neg(mul(neg(symbol("x")), symbol("y")))))   # signs
    @example(func("cos", div(neg(symbol("x")), mul(symbol("y"), rational(-2)))))
    @settings(max_examples=300, deadline=None)
    def test_constructors_return_fixed_points(self, e):
        assert all(x._fold is True for x in postorder((e,)))
        assert fold(e) is e
        _marks_hold((e,))

    @given(_exprs, _constructed_trees(3), st.sampled_from(FUNCTIONS))
    @example(parse_expr("(-x)*((-1)*0)"), ONE, "sin")    # signs pulled to 0
    @example(parse_expr("x*((-1)*(-1)*0)"), ONE, "cosh")
    @example(parse_expr("(-x)*(y*0)"), ONE, "arccot")
    @settings(max_examples=150, deadline=None)
    def test_a_raw_argument_leaves_its_parent_unmarked(self, raw, built, head):
        # a node the parser built may not be folded, so a constructor's node
        # over it is not marked, and fold still reaches the raw node; func
        # may pull signs out of it first, and then builds over what is left
        try:
            fold(raw)
        except ExprError:       # a constant zero denominator
            return
        for e in (add(raw, built), mul(raw, built), func(head, raw)):
            _marks_hold((e,))
            assert fold(e) is _fold_unmarked(e)

    def test_operator_images_of_raw_input_are_folded(self):
        # a subtree free of the variable enters the images as the parser
        # built it; the final folds still reach it
        e = parse_expr("x*(2*3) + sin(1 - 1)*x + exp(x)*(pi + 0)")
        raw, folded = apply_operator(e, symbol("x"), symbol("h")), apply_operator(
            fold(e), symbol("x"), symbol("h"))
        assert raw[:2] == folded[:2]
        assert to_text(raw.cos_part) == "x*6 + cos(h)*exp(x)*pi"
        # a product whose signs cancel and whose value is zero, under an odd
        # and an even head: the images are the folded input's, and no
        # sin(0) or cosh(0) is left marked folded
        for text in ("sin((-x)*((-1)*0))", "cosh(x*((-1)*(-1)*0))"):
            e = parse_expr(text)
            assert apply_operator(e, symbol("x"), symbol("h"))[:2] == apply_operator(
                fold(e), symbol("x"), symbol("h"))[:2]
        assert fold(parse_expr("sin(0)")) is ZERO
        assert fold(parse_expr("cosh(0)")) is ONE

    def test_marks_hold_on_the_golden_rows(self):
        # every node of every pinned output of tests/test_golden.py
        from test_golden import MAP_ROWS, OPERATOR_ROWS
        roots = []
        for family, sum_text, kind, c, *_ in MAP_ROWS:
            S = parse_expr(sum_text)
            try:
                result = (map_fourier(S, c=parse_expr(c) if c else None, kind=kind)
                          if family == "fourier" else map_cospow(S, kind=kind))
            except MappingError:
                continue
            roots += [result.closed_form, *result.singular_points]
        for text, arg, shift, *_ in OPERATOR_ROWS:
            roots += apply_operator(parse_expr(text), parse_expr(arg), parse_expr(shift))[:2]
        assert all(x._fold is True for x in postorder(roots))
        assert _marks_hold(roots) > 300

    def test_marks_hold_on_the_grammar(self, monkeypatch):
        # one pass of the symbolic benchmark's requests for seeds 1 and 7:
        # every node of every printed result
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from wl_symbolic import NoTracer, make_ops, run_op
        roots = []
        for seed in (1, 7):
            for op in make_ops(seed, 0):
                result = run_op(op, NoTracer())
                if hasattr(result, "closed_form"):
                    roots += [result.closed_form, *result.singular_points]
                elif hasattr(result, "cos_part"):
                    roots += [result.cos_part, result.sin_part]
        assert all(x._fold is True for x in postorder(roots))
        assert _marks_hold(roots) > 1000


class TestDeepDags:
    """Every pass walks its own stack: a sum of 5,000 terms (t^1 + ... + t^5,
    1,000 times), built node by node without the parser, is 5,000 deep, and
    each pass runs on it at the default recursion limit."""

    TERMS = 5000

    @pytest.fixture(scope="class")
    def deep(self):
        t = symbol("t")
        total = product = Expr("pow", (t,), 1)
        for k in range(1, self.TERMS):
            power = Expr("pow", (t,), k % 5 + 1)
            total, product = Expr("add", (total, power)), Expr("mul", (product, power))
        assert sys.getrecursionlimit() < self.TERMS
        return total, product

    def test_slot_passes(self, deep):
        total, product = deep
        text = " + ".join(["t^1 + t^2 + t^3 + t^4 + t^5"] * (self.TERMS // 5))
        assert to_text(total) == text
        assert parse_expr(text) is total
        assert free_symbols(total) == frozenset({"t"})
        folded = fold(total)
        assert fold(folded) is folded
        assert to_text(folded).startswith("t + t^2 + t^3 + t^4 + t^5 + t + t^2")
        assert split_rational(product) == (1, ((symbol("t"), 3 * self.TERMS),))
        assert to_text(collect_terms(total)) == (
            "1000*t + 1000*t^2 + 1000*t^3 + 1000*t^4 + 1000*t^5")

    def test_copies_and_pickles_are_the_node(self, deep):
        # nodes are immutable and interned, and a pickle holds the DAG as
        # flat rows, so neither recurses into a deep node
        total, _ = deep
        small = parse_expr("sin(x)^2/(1 - cos(2*x)) + 1/3")
        for e in (total, small):
            assert copy.copy(e) is e and copy.deepcopy(e) is e
            assert pickle.loads(pickle.dumps(e)) is e

    def test_substitute_and_evaluate(self, deep):
        total, _ = deep
        u = substitute(total, {"t": symbol("u")})
        assert free_symbols(u) == frozenset({"u"})
        assert to_text(u).startswith("u + u^2 + u^3")
        [(real,)] = eval_real_batch([total], [{"t": "0.5"}], 30)
        assert real == 1000 * (1 - mp.mpf(2) ** -5)
        [(z,)] = eval_complex_batch([total], [{"t": 1j}], 30)
        assert z == 1000j

    def test_doubling_dag_is_worked_once_per_node(self, monkeypatch):
        # e_{k+1} = e_k + e_k*x: 2k + 1 distinct nodes, 2^(k+2) - 3 in the
        # tree, so a pass that revisits shared subterms does 2^k times the work
        x, y = symbol("x"), symbol("y")
        e, expected = x, y
        for _ in range(12):
            e = Expr("add", (e, Expr("mul", (e, x))))
            expected = add(expected, mul(expected, y))
        worked = []     # holds each node, so none is rebuilt
        rebuild, pair = expr_module.rebuild, operators_module._pair

        def counted_rebuild(node, args):
            worked.append(node)
            return rebuild(node, args)

        def counted_pair(node, *rest):
            worked.append(node)
            return pair(node, *rest)

        monkeypatch.setattr(expr_module, "rebuild", counted_rebuild)
        assert substitute(e, {"x": y}) is expected
        assert len(worked) == len(set(worked)) == 24
        monkeypatch.undo()
        worked.clear()
        monkeypatch.setattr(operators_module, "_pair", counted_pair)
        cos_part, sin_part = apply_operator(e, x, symbol("h"))[:2]
        assert len(worked) == len(set(worked)) == 25
        [(c, s)] = eval_real_batch([cos_part, sin_part], [{"x": "0.1", "h": "0.2"}], 30)
        with mp.workdps(30):
            z = mp.mpc("0.1", "0.2")
            want = z * (1 + z) ** 12
            assert abs(c - want.real) < mp.mpf(10) ** -25
            assert abs(s - want.imag) < mp.mpf(10) ** -25


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
    ("ln(x)", -1, DomainError, "ln of a non-positive value",
     BranchCutError, "ln on its branch cut"),
    ("sqrt(x)", -1, DomainError, "sqrt of a negative value",
     BranchCutError, "sqrt on its branch cut"),
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
        sin, calls, paired = table["sin"], [], []

        def counted(x):
            calls.append(x)
            return sin(x)

        monkeypatch.setitem(table, "sin", counted)
        if field == "real":
            # a real sin node whose argument also has a cos node takes its
            # value from the one kernel call that gives both
            kernel, _ = evaluate._PAIRED["sin"]

            def counted_pair(x, prec, rounding):
                paired.append(x)
                return kernel(x, prec, rounding)

            monkeypatch.setitem(evaluate._PAIRED, "cos", (counted_pair, 0))
            monkeypatch.setitem(evaluate._PAIRED, "sin", (counted_pair, 1))
        evaluator = eval_real if field == "real" else eval_complex
        evaluator(image, {"x": "0.3", "h": "0.2"}, 20)
        assert sin_nodes >= 12
        assert len(calls) + len(paired) == sin_nodes
        assert (len(paired) > 0) == (field == "real")


def _reference_eval(e, bindings, digits, field):
    """The recursive walk that evaluation ran before it compiled programs,
    kept as the reference: each distinct node once, through its own memo."""
    real = field == "real"
    heads = evaluate._REAL_HEADS if real else evaluate._COMPLEX_HEADS
    number = mp.mpf if real else mp.mpc
    memo = {}

    def value(x):
        if x not in memo:
            memo[x] = _reference_value(x, value, vals, number, heads, field)
        return memo[x]

    with mp.workdps(digits):
        vals = {k: (v if isinstance(v, mp.mpf) else mp.mpf(v)) if real
                else mp.mpc(v) for k, v in bindings.items()}
        return +value(e)


def _reference_value(x, value, vals, number, heads, field):
    kind = x.kind
    if kind == "rat":
        return number(mp.mpf(x.value.numerator) / x.value.denominator)
    if kind == "pi":
        return number(mp.pi)
    if kind == "sym":
        if x.value not in vals:
            raise UnboundSymbolError(f"unbound symbol {x.value!r}")
        return vals[x.value]
    if kind == "neg":
        return -value(x.args[0])
    if kind in ("add", "mul"):
        a, b = value(x.args[0]), value(x.args[1])
        return a + b if kind == "add" else a * b
    if kind == "div":
        den = value(x.args[1])
        if den == 0:
            raise PoleError("division by zero")
        return value(x.args[0]) / den
    if kind == "pow":
        base = value(x.args[0])
        if base == 0 and x.value < 0:
            raise PoleError("zero base with negative exponent")
        return base ** x.value
    arg = value(x.args[0])
    if x.value not in heads:
        raise EvalError(f"no {field} evaluator for {x.value!r}")
    return heads[x.value](arg)


def _outcome(compute):
    """A value as its type and exact bits, or an error as class and text."""
    try:
        v = compute()
    except Exception as exc:  # every error must match, whatever its class
        return type(exc), str(exc)
    return type(v), getattr(v, "_mpf_", None) or v._mpc_


_LEAVES = [symbol("x"), symbol("y"), PI, ZERO, ONE, rational(-1),
           rational(1, 2), rational(3)]


def _random_dag(rng):
    """Three roots over one pool of raw nodes (unfolded, so every kind and
    head occurs, constant zero denominators too); later nodes reuse earlier
    ones, so the roots share subterms.  Depth stays at most 3, so that no
    value grows past what a trig head reduces quickly."""
    pool = [(leaf, 0) for leaf in rng.sample(_LEAVES, 5)]
    if rng.random() < 0.05:
        pool.append((symbol("z"), 0))       # never bound
    for _ in range(10):
        (a, da), (b, db) = rng.choice(pool), rng.choice(pool)
        if max(da, db) == 3:
            continue
        kind = rng.choice(("neg", "add", "mul", "div", "pow", "call", "call"))
        if kind == "neg":
            node = Expr("neg", (a,))
        elif kind == "pow":
            node = Expr("pow", (a,), rng.randint(-3, 5))
        elif kind == "call":
            node = Expr("call", (a,), rng.choice(FUNCTIONS))
            partner = _PARTNERS.get(node.value)
            if partner and rng.random() < 0.5:
                # a head whose values come in pairs on the reals, with its
                # partner on the same argument next to it
                pool.append((Expr("call", (a,), partner), 1 + da))
        else:
            node = Expr(kind, (a, b))
        pool.append((node, 1 + max(da, db if kind in ("add", "mul", "div") else 0)))
    return [node for node, _ in pool[-3:]]


_PARTNERS = {"sin": "cos", "cos": "sin", "sinh": "cosh", "cosh": "sinh"}


_POINTS = {
    "real": [{"x": "0.3", "y": -2}, {"x": 0, "y": "1.5"}, {"x": -1, "y": 1},
             {"x": 2, "y": "-0.5"}, {"x": "1e-3", "y": 0}],
    "complex": [{"x": mp.mpc("0.3", "0.7"), "y": -2}, {"x": 0, "y": 1},
                {"x": mp.mpc(0, 1), "y": "0.5"}, {"x": -1, "y": mp.mpc(1, -2)},
                {"x": 2, "y": mp.mpc("-0.5", "1e-3")}],
}


class TestCompiledPrograms:
    """The compiled programs against the reference walk."""

    @pytest.mark.parametrize("digits", [15, 20, 30, 50])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_programs_match_the_reference_walk(self, field, digits):
        one_point = eval_real if field == "real" else eval_complex
        batch = eval_real_batch if field == "real" else eval_complex_batch
        rng = random.Random(f"{field}-{digits}")
        for _ in range(300):
            roots = _random_dag(rng)
            points = rng.sample(_POINTS[field], 3)
            want = [[_outcome(lambda: _reference_eval(e, p, digits, field))
                     for e in roots] for p in points]
            for e, per_point in zip(roots, zip(*want)):
                for p, expected in zip(points, per_point):
                    assert _outcome(lambda: one_point(e, p, digits)) == expected
            # the batch runs point by point, each point's roots in order, so
            # it stops at the first error in that order
            failed = [o for row in want for o in row if issubclass(o[0], Exception)]
            try:
                got = batch(roots, points, digits)
            except Exception as exc:
                assert failed and (type(exc), str(exc)) == failed[0]
            else:
                assert not failed
                assert [[_outcome(lambda: v) for v in row] for row in got] == want

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_zero_denominator_is_checked_before_a_failing_numerator(self, field):
        x = symbol("x")
        e = Expr("div", (Expr("call", (x,), "ln"), Expr("add", (x, Expr("neg", (x,))))))
        for evaluate_at in ((lambda: eval_real(e, {"x": -1}))
                            if field == "real" else
                            (lambda: eval_complex(e, {"x": -1})),
                            lambda: _reference_eval(e, {"x": -1}, 30, field)):
            with pytest.raises(PoleError, match="division by zero"):
                evaluate_at()
        # the numerator's error comes first where the denominator is not zero
        e = Expr("div", (Expr("call", (x,), "ln"), x))
        expected = DomainError if field == "real" else BranchCutError
        with pytest.raises(expected):
            (eval_real if field == "real" else eval_complex)(e, {"x": -1})

    def test_unbound_symbol_after_earlier_roots(self):
        x, z = symbol("x"), symbol("z")
        with pytest.raises(UnboundSymbolError, match="unbound symbol 'z'"):
            eval_real_batch((func("sin", x), Expr("add", (x, z))),
                            [{"x": 1}], 20)
        assert eval_real_batch((func("sin", x),), [], 20) == []

    @pytest.mark.parametrize("t", [0, 2 ** -200, -2 ** -200, 1e30, -1e30,
                                   "-0.7", -3, "2.5"])
    @pytest.mark.parametrize("digits", [15, 30, 50])
    def test_paired_kernels_equal_mpmath(self, t, digits):
        x = symbol("x")
        for pair in (("sin", "cos"), ("cosh", "sinh")):
            roots = tuple(Expr("call", (x,), name) for name in pair)
            [got] = eval_real_batch(roots, [{"x": t}], digits)
            with mp.workdps(digits):
                # the symbol and one step for the pair
                assert len(evaluate._Program(roots, mp.mpf, evaluate._REAL_HEADS,
                                             "real", evaluate._PAIRED).steps) == 2
                want = tuple(getattr(mp, name)(mp.mpf(t)) for name in pair)
            assert [type(v) for v in got] == [mp.mpf, mp.mpf]
            assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


class TestFold:
    def test_rational_arithmetic(self):
        assert fold(parse_expr("1/2 + 1/3")) == rational(5, 6)
        assert fold(parse_expr("(2/3)^2")) == rational(4, 9)

    def test_trig_parity(self):
        x = symbol("x")
        assert func("cos", neg(x)) == func("cos", x)
        assert func("sin", neg(x)) == neg(func("sin", x))
        assert func("sin", mul(rational(-2), x)) == neg(func("sin", mul(rational(2), x)))
        assert func("sin", rational(-2)) == neg(func("sin", rational(2)))
        assert func("cos", rational(-2)) == func("cos", rational(2))

    def test_exact_calls(self):
        assert func("exp", rational(0)) == rational(1)
        assert func("sqrt", rational(9, 4)) == rational(3, 2)
        assert to_text(func("arccot", rational(0))) == "1/2*pi"
