"""Summation engine: closed forms, singular points, validity intervals,
and the integral-step mapping."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from trigsum.expr import PI, eval_real, parse_expr, to_text, rational
from trigsum.mapping import (MappingError, detect_singularities,
                             integral_step, map_cospow, map_fourier)

F = Fraction

EXAMPLE2_SUM = ("(t/12 - 1/(12*t))*ln(t^2 - t + 1) - (t/6 - 1/(6*t))*ln(1+t)"
                " + (t/4 + 1/(4*t))*(2/sqrt(3))*(arctan((2*t-1)/sqrt(3)) + pi/6)"
                " - 1/2")


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
        assert to_text(map_cospow(parse_expr("t"), kind="cos").closed_form) == "cos(x)^2"
        assert to_text(map_cospow(parse_expr("t"), kind="sin").closed_form) == "cos(x)*sin(x)"

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
        # the cos-power sine image of arctan(t) has a guard factor with no
        # rational cos root; the message is the one the golden row pins
        with pytest.raises(MappingError) as refused:
            map_cospow(parse_expr("arctan(t)"), kind="sin")
        assert str(refused.value) == "common factor with no rational cos root"


class TestIntegralStep:
    def test_pole_rejected(self):
        with pytest.raises(MappingError):
            integral_step(parse_expr("1/(1-t)"))

    def test_dilog_pipeline(self):
        # S = -ln(1-t)/t: S(e^z) e^z = -ln(1-e^z), so this integral-step
        # route rests on the same operator image as the log-series mapping
        cosine, sine = integral_step(parse_expr("-ln(1-t)/t"), digits=25)
        assert cosine.integral_symbolic is not None  # polynomial sine image
        assert sine.integral_symbolic is None        # log-kernel cosine image
        with mp.workdps(35):
            assert abs(cosine.constant - mp.pi ** 2 / 6) < 1e-22
            for xv in ("0.3", "0.9", "1.5"):
                x = mp.mpf(xv)
                th = mp.pi * x
                want_cos = mp.pi ** 2 / 6 - mp.pi * th / 2 + th ** 2 / 4
                assert abs(cosine.eval(x, 25) - want_cos) < 1e-20
                want_sin = mp.fsum(mp.sin(n * th) / mp.mpf(n) ** 2
                                   for n in range(1, 4000))
                assert abs(sine.eval(x, 25) - want_sin) < 1e-6

    def test_theorem_coherence_both_paths(self):
        # the inner sine image of the integral step equals the direct
        # mapping of the log series (theorem-2 path vs theorem-4 path)
        cosine, _ = integral_step(parse_expr("-ln(1-t)/t"), digits=20)
        direct = map_fourier(parse_expr("-ln(1-t)"), c=rational(1), kind="sine")
        with mp.workdps(25):
            for ratio in (0.1, 0.5, 1.2, 1.9):
                a = eval_real(cosine.inner_image, {"x": ratio, "c": 1}, 25)
                b = eval_real(direct.closed_form, {"x": ratio, "c": 1}, 25)
                assert abs(a - b) < 1e-20

    def test_alternating_dilog_pipeline(self):
        # S = ln(1+t)/t gives the alternating series sum_n (-1)^(n-1) t^n/n^2
        cosine, sine = integral_step(parse_expr("ln(1+t)/t"), digits=20)
        with mp.workdps(30):
            assert abs(cosine.constant - mp.pi ** 2 / 12) < 1e-17
            x = mp.mpf("0.6")
            th = mp.pi * x
            want = mp.fsum((-1) ** (n - 1) * mp.cos(n * th) / mp.mpf(n) ** 2
                           for n in range(1, 5000))
            assert abs(cosine.eval(x, 20) - want) < 1e-6
