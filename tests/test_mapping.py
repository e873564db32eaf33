"""Summation engine: closed forms, singular points and validity
intervals."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from trigsum.acceptance import EXAMPLE2_SUM
from trigsum.evaluate import eval_complex_batch, eval_real_batch
from trigsum.expr import (PI, EvalError, eval_real, parse_expr, rational,
                          symbol, to_text)
from trigsum.mapping import (MappingError, detect_singularities,
                             map_cospow, map_fourier)

F = Fraction


class TestMapFourier:
    def test_log_series_sine(self):
        r = map_fourier(parse_expr("-ln(1-t)"), kind="sine")
        assert to_text(r.closed_form) == "(-1/2)*c^-1*pi*x + 1/2*pi"
        assert r.validity_ratio == (F(0), F(2))
        assert [to_text(p) for p in r.singular_points] == ["0", "2*c"]

    @pytest.mark.xfail(strict=True, reason="the cosine kind does not report "
                       "the log singularities at 0 and 2c")
    def test_log_series_cosine_singular_points(self):
        # sum cos(n pi x / c) / n = -ln|2 sin(pi x / 2c)| diverges at 0 and 2c
        r = map_fourier(parse_expr("-ln(1-t)"), kind="cosine")
        assert r.validity_ratio == (F(0), F(2))
        assert [to_text(p) for p in r.singular_points] == ["0", "2*c"]

    @pytest.mark.xfail(strict=True, reason="denominators carried as negative "
                       "powers are not searched for zeros")
    def test_geometric_sine_singular_points(self):
        # sum sin(n pi x / c) = 1/2 cot(pi x / 2c) diverges at 0 and 2c
        r = map_fourier(parse_expr("1/(1-t)"), kind="sine")
        assert r.validity_ratio == (F(0), F(2))
        assert [to_text(p) for p in r.singular_points] == ["0", "2*c"]

    @pytest.mark.xfail(strict=True, reason="the zeros of the sin denominator "
                       "inside the ln rule's arccot(u/w), where that closed "
                       "form jumps, are reported as singular points")
    def test_analytic_log_sine_has_no_singular_points(self):
        # sum (-1)^(n-1) sin(n pi x/c)/(n 2^n) = Im ln(1 + e^(i pi x/c)/2)
        # is analytic on the whole line: S(t) = ln(1+t/2) has no
        # singularity on |t| = 1; today 0 and c are reported
        r = map_fourier(parse_expr("ln(1+t/2)"), kind="sine")
        assert r.singular_points == []
        assert r.validity_ratio is None

    def test_alternating_log_sine(self):
        r = map_fourier(parse_expr("ln(1+t)"), kind="sine")
        assert to_text(r.closed_form) == "1/2*c^-1*pi*x"
        assert r.validity_ratio == (F(-1), F(1))

    def test_arctan_cosine_constant(self):
        r = map_fourier(parse_expr("arctan(t)"), kind="cosine")
        assert to_text(r.closed_form) == "1/4*pi"
        assert r.validity_ratio == (F(-1, 2), F(1, 2))

    def test_single_term_entire(self):
        r = map_fourier(parse_expr("t"), kind="cosine")
        assert to_text(r.closed_form) == "cos(c^-1*pi*x)"
        assert r.validity_ratio is None and r.singular_ratios == []

    def test_series_agreement_log_sine(self):
        # partial sums of sin(n theta)/n against the closed form
        r = map_fourier(parse_expr("-ln(1-t)"), kind="sine")
        n = np.arange(1, 200_001, dtype=np.float64)
        for ratio in (0.15, 0.8, 1.3, 1.85):
            theta = np.pi * ratio
            partial = float(np.sum(np.sin(n * theta) / n))
            closed = float(eval_real(r.closed_form, {"x": ratio, "c": 1}, 20))
            assert abs(partial - closed) < 1e-3

    def test_example2(self):
        r = map_fourier(parse_expr(EXAMPLE2_SUM), c=PI, kind="cosine")
        assert to_text(r.closed_form) == "-1/2 + 1/9*cos(x)*pi*sqrt(3)"
        assert r.validity_ratio == (F(-1, 3), F(1, 3))
        pts = detect_singularities(r, window=(F(-1), F(1)))
        assert [to_text(p) for p in pts] == ["(-1)*pi", "(-1/3)*pi", "1/3*pi", "pi"]

    def test_example2_series_agreement(self):
        r = map_fourier(parse_expr(EXAMPLE2_SUM), c=PI, kind="cosine")
        n = np.arange(1, 100_001, dtype=np.float64)
        sign = np.where(n % 2 == 1, 1.0, -1.0)
        for wt in (-0.9, -0.3, 0.0, 0.4, 1.0):
            partial = float(np.sum(sign * np.cos(3 * n * wt) / ((3 * n - 1) * (3 * n + 1))))
            closed = float(eval_real(r.closed_form, {"x": wt}, 20))
            assert abs(partial - closed) < 1e-3, wt


class TestMapCospow:
    def test_example1(self):
        r = map_cospow(parse_expr("-ln(1-t)"), kind="sin")
        assert to_text(r.closed_form) == "1/2*pi - x"
        assert r.validity_ratio == (F(0), F(1))
        assert [to_text(p) for p in r.singular_points] == ["0", "pi"]

    @pytest.mark.xfail(strict=True, reason="denominators carried as negative "
                       "powers are not searched for zeros")
    @pytest.mark.parametrize("kind", ["cos", "sin"])
    @pytest.mark.parametrize("text", ["1/(1-t)", "1/(1-t)^2"])
    def test_pole_sum_singular_points(self, text, kind):
        # t = cos(x) e^(ix) meets the pole of S at t = 1 where x = 0 and x = pi
        r = map_cospow(parse_expr(text), kind=kind)
        assert [to_text(p) for p in r.singular_points] == ["0", "pi"]

    def test_single_term(self):
        # the circle point t = cos(x) e^(ix) = (1 + e^(2ix))/2
        assert to_text(map_cospow(parse_expr("t"), kind="cos").closed_form) == "1/2 + 1/2*cos(2*x)"
        assert to_text(map_cospow(parse_expr("t"), kind="sin").closed_form) == "1/2*sin(2*x)"

    def test_example1_series_agreement(self):
        r = map_cospow(parse_expr("-ln(1-t)"), kind="sin")
        n = np.arange(1, 2001, dtype=np.float64)
        for x in (0.2, 1.0, 2.4, 3.0):
            partial = float(np.sum(np.sin(n * x) * np.power(np.cos(x), n) / n))
            closed = float(eval_real(r.closed_form, {"x": x}, 20))
            assert abs(partial - closed) < 1e-8, x

    def test_endpoint_is_singular(self):
        # at x = 0 every term vanishes; the closed form gives pi/2
        r = map_cospow(parse_expr("-ln(1-t)"), kind="sin")
        closed0 = float(eval_real(r.closed_form, {"x": 0}, 20))
        assert abs(closed0 - np.pi / 2) < 1e-15


class TestDetectSingularities:
    def test_log_form_window(self):
        r = map_fourier(parse_expr("-ln(1-t)"), kind="sine")
        pts = detect_singularities(r)
        assert [to_text(p) for p in pts] == ["0", "2*c"]

    def test_entire_function(self):
        assert detect_singularities(map_fourier(parse_expr("t"), kind="cosine")) == []

    def test_example2_four_points(self):
        r = map_fourier(parse_expr(EXAMPLE2_SUM), c=PI, kind="cosine")
        pts = detect_singularities(r, window=(F(-1), F(1)))
        assert len(pts) == 4

    def test_default_window_is_one_period(self):
        # the cos-power period is pi, so pi is the last point: 2*pi is in
        # the next period
        r = map_cospow(parse_expr("-ln(1-t)"), kind="sin")
        assert [to_text(p) for p in detect_singularities(r)] == ["0", "pi"]

    def test_unsolvable_locus_is_mapping_error(self):
        # the cos-power sine image of arctan(t^2) has a guard factor with no
        # rational cos root; the message is the one the golden row pins
        with pytest.raises(MappingError) as refused:
            map_cospow(parse_expr("arctan(t^2)"), kind="sin")
        assert str(refused.value) == "common factor with no rational cos root"


# Abel's theorem: inside its validity interval a closed form equals Re or Im
# of S at the circle point, t = e^(i pi x/c) for the Fourier kinds (c = 1)
# and t = cos(x) e^(ix) for the cos-power kinds.  Each row maps S and
# compares at the midpoints of 8 equal cells of the validity interval, or of
# one period when the result holds on the entire line.
ABEL_SUMS = [
    "1/(1-t)", "1/(1+t)", "1/(1+t^2)", "1/(1+t+t^2)", "1/(1-t^3)",
    "1/(1+t+t^2+t^3+t^4)", "t/(1-t)^2", "-ln(1-t)", "ln(1+t)", "ln(1-t^2)",
    "ln(1+t+t^2)", "ln(1-t^5)", "arctan(t)", "arctan(t^2)", "ln(1+t^3)",
    "1/(1-t/2+t^2)", "-ln(1-t/2)", "ln(1-t+t^2/2)", "ln(1+t/2)",
    "arctan(t^3)", "arctan(t^4)", EXAMPLE2_SUM, "t^12", "exp(t)^3",
]
ABEL_POINTS = 8
ABEL_DIGITS = 30
ABEL_TOLERANCE = mp.mpf(10) ** -20  # relative to max(1, |Re or Im S|)
_NO_COS_ROOT = "common factor with no rational cos root"
# (S, kind) -> the message of a documented refusal
ABEL_REFUSED = {
    ("ln(1-t^5)", "sine"): _NO_COS_ROOT,
    ("arctan(t^2)", "sin"): _NO_COS_ROOT,
    ("arctan(t^4)", "sin"): _NO_COS_ROOT,
}
_LN_BRANCH = "ROADMAP 3(a): the ln rule takes the wrong branch, off by pi"
_ARCTAN_POWER = ("ROADMAP 3(g): arctan of a power is wrong (a constant off "
                 "by pi/2, or an identically zero denominator)")
# (S, kind) -> the open item whose defect the check catches
ABEL_FAILS = {
    ("-ln(1-t/2)", "sine"): _LN_BRANCH,
    ("ln(1-t+t^2/2)", "sine"): _LN_BRANCH,
    ("ln(1-t^2)", "sin"): _LN_BRANCH,
    ("ln(1-t^5)", "sin"): _LN_BRANCH,
    ("-ln(1-t/2)", "sin"): _LN_BRANCH,
    ("ln(1-t+t^2/2)", "sin"): _LN_BRANCH,
    ("arctan(t^2)", "cosine"): _ARCTAN_POWER,
    ("arctan(t^3)", "cosine"): _ARCTAN_POWER,
    ("arctan(t^4)", "cosine"): _ARCTAN_POWER,
    ("arctan(t^4)", "sine"): ("ROADMAP 10(b'): artanh(sin(4 pi x/c))/2 diverges "
                              "at x = c/8 + kc/4, which is not reported"),
}


def _abel_rows():
    for text in ABEL_SUMS:
        name = "example2" if text == EXAMPLE2_SUM else text
        for kind in ("cosine", "sine", "cos", "sin"):
            reason = ABEL_FAILS.get((text, kind))
            marks = () if reason is None else pytest.mark.xfail(
                strict=True, raises=(AssertionError, EvalError), reason=reason)
            yield pytest.param(text, kind, marks=marks, id=f"{kind}-{name}")


@pytest.mark.parametrize("text,kind", _abel_rows())
def test_abel_check(text, kind):
    S = parse_expr(text)
    fourier = kind in ("cosine", "sine")
    mapper = map_fourier if fourier else map_cospow
    refusal = ABEL_REFUSED.get((text, kind))
    if refusal is not None:
        with pytest.raises(MappingError) as refused:
            mapper(S, kind=kind)
        assert str(refused.value) == refusal
        return
    r = mapper(S, kind=kind)
    lo, hi = r.validity_ratio or (F(0), r.period_ratio)
    cells = [lo + (2 * k + 1) * (hi - lo) / (2 * ABEL_POINTS)
             for k in range(ABEL_POINTS)]
    with mp.workdps(ABEL_DIGITS):
        ratios = [mp.mpf(q.numerator) / q.denominator for q in cells]
        if fourier:
            xs, ts = ratios, [mp.expj(mp.pi * q) for q in ratios]
        else:
            xs = [mp.pi * q for q in ratios]
            ts = [mp.cos(x) * mp.expj(x) for x in xs]
        series = eval_complex_batch([S], [{"t": t} for t in ts], ABEL_DIGITS)
        closed = eval_real_batch([r.closed_form], [{"x": x, "c": 1} for x in xs],
                                 ABEL_DIGITS)
        for x, (value,), (got,) in zip(xs, series, closed):
            want = value.real if kind in ("cosine", "cos") else value.imag
            assert abs(got - want) <= ABEL_TOLERANCE * max(1, abs(want)), x
