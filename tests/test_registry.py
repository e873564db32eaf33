"""Identity catalog: grid verification, exact structural operations,
endpoint laws, and serialization."""

import json
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from trigsum import exact
from trigsum.dirichlet import PrecisionContext, dirichlet_oracle
from trigsum.registry import (LN2, ONE, SQRT2, SQRT3, Coeff, RegistryError,
                              ResidualRule, _blocks, _closed_form_evaluator,
                              _grid_points, _series_partial_float,
                              _zeta_odd_value, closed_form_eval,
                              corollary2_integrate, default_suite,
                              endpoint_suite, get_record, integration_successor,
                              list_identities, partial_sum_eval, poly_at,
                              poly_derivative, theorem23_shift, verify,
                              verify_endpoint)

F = Fraction
CTX = PrecisionContext.for_digits(30)


class TestCatalog:
    def test_count(self):
        assert len(list_identities()) >= 18

    def test_ids_unique(self):
        ids = [rec.id for rec in list_identities()]
        assert len(ids) == len(set(ids))

    def test_records_compare_by_value(self):
        rec = get_record("cor6-lambda")
        assert rec.replace() == rec and rec.replace() is not rec
        relabelled = rec.replace(label="other")
        assert relabelled != rec and relabelled.label == "other"
        assert (relabelled.term, relabelled.poly) == (rec.term, rec.poly)
        with pytest.raises(TypeError):
            hash(rec)

    def test_contains_expected(self):
        ids = {rec.id for rec in list_identities()}
        assert {"thm11-cos", "thm11-sin", "thm21-eta-odd", "example1-cospow",
                "example2-fourier", "cor7-frakd"} <= ids

    def test_thm21_residual_coefficients(self):
        # residuals carry w(n) B_n* / (2n (2r+2n)!), w(n) = 2^(2n)-1 for
        # thm21 and 1 for thm16; eval sums the series of those coefficients
        from math import factorial
        for rid, weight in (("thm21-eta-odd", lambda n: 4 ** n - 1),
                            ("thm16-zeta-odd-cos", lambda n: 1)):
            rule = get_record(rid).residual(1)
            for n in (1, 2, 3):
                want = (F(weight(n)) * exact.bernoulli_star(n)
                        / (2 * n * factorial(2 + 2 * n)))
                assert rule.coeff(n) == want
            for r in (1, 2, 3):
                rule = get_record(rid).residual(r)
                exact_sum = rule.sign * sum(rule.coeff(k) * F(1, 2) ** rule.power(k)
                                            for k in range(1, 40))
                with mp.workdps(40):
                    got = rule.eval(mp.mpf(1) / 2, mp.mpf("1e-32"))
                    want = mp.mpf(exact_sum.numerator) / exact_sum.denominator
                    assert abs(got - want) < 1e-30, (rid, r)

    def test_unknown_id(self):
        with pytest.raises(RegistryError):
            get_record("nope")

    def test_fixed_r_refuses_another_r(self):
        rec = get_record("eq69-frakd-poly")
        assert rec.effective_r(None) == rec.effective_r(2) == 2
        with pytest.raises(RegistryError, match="eq69-frakd-poly has the fixed r = 2"):
            rec.effective_r(5)
        with pytest.raises(RegistryError, match="lemma4-sin-log"):
            verify("lemma4-sin-log", 1)


class TestEvaluation:
    def test_thm11_sin_vanishes_at_c(self):
        v = closed_form_eval("thm11-sin", 1, c=1.0, x=1.0, ctx=CTX)
        assert abs(v) < 1e-25

    def test_thm18_cos_at_zero_is_eta2(self):
        with mp.workdps(30):
            v = closed_form_eval("thm18-cos", 1, c=1.0, x=0.0, ctx=CTX)
            assert abs(v - mp.pi ** 2 / 12) < 1e-25

    def test_eq59_at_half_c_vanishes(self):
        assert poly_at(get_record("eq59-lambda-shift").poly(1), F(1, 2)).is_zero()

    def test_outside_interval_rejected(self):
        with pytest.raises(RegistryError):
            closed_form_eval("cor7-frakd", 1, c=1.0, x=0.6, ctx=CTX)

    def test_partial_sum_example1_at_half_pi(self):
        v = partial_sum_eval("example1-cospow", None, c=float(np.pi),
                             x=float(np.pi / 2), N=50)
        assert abs(v) < 1e-20  # cos x = 0 kills every term

    def test_partial_sum_beta3(self):
        with mp.workdps(30):
            v = partial_sum_eval("cor5-beta", 1, c=1.0, x=0.0, N=100_000)
            assert abs(v - mp.pi ** 3 / 32) < 1e-9

    # (record, r, c, x, N, digits, repr of the value at those digits): the
    # partial sums as the per-term loop gave them before the values that no
    # term changes were taken out of it; cor6-lambda@1/8 is cor6-lambda
    # shifted by Theorem 23
    @pytest.mark.parametrize("rid, r, c, x, N, digits, want", [
        ("example1-cospow", None, np.pi, 0.7, 300, 25,
         "mpf('0.8707963267948966363530399331')"),
        ("thm11-cos", 2, 1.0, 0.3, 300, 25,
         "mpf('0.5544877217303699658734772068')"),
        ("thm11-sin", 2, 1.0, 0.3, 300, 25,
         "mpf('0.8390932248606386726189313852')"),
        ("cor6-lambda@1/8", 1, 1.0, 0.4, 300, 25,
         "mpf('0.246740112444338178439378291')"),
        ("cor7-frakd", 1, 1.0, 0.25, 300, 25,
         "mpf('0.6164336087872192158165390871')"),
        ("example2-fourier", None, np.pi, 1.2, 300, 40,
         "mpf('-0.1215249054521021004084584515790520541178169')"),
        ("eq56-frakd-value", 1, 1.0, 0.0, 50, 25,
         "mpf('0.8723600205763258670761746867')"),
    ])
    def test_partial_sum_golden(self, rid, r, c, x, N, digits, want):
        rec = (theorem23_shift("cor6-lambda", F(1, 8)) if rid == "cor6-lambda@1/8"
               else rid)
        v = partial_sum_eval(rec, r, c=float(c), x=x, N=N, digits=digits)
        with mp.workdps(digits):
            assert repr(v) == want

    def test_thm11_cos_endpoint_value(self):
        # at x = c the series is -eta(2) and the closed form matches exactly
        with mp.workdps(30):
            v = closed_form_eval("thm11-cos", 1, c=1.0, x=1.0, ctx=CTX)
            assert abs(v + mp.pi ** 2 / 12) < 1e-25


    def test_high_precision_context(self):
        # the zeta(odd) coefficients take a 10-digit wider context, built
        # inside the caller's 60 digits
        high = closed_form_eval("thm16-zeta-odd-cos", 2, x=0.5,
                                ctx=PrecisionContext.for_digits(60))
        low = closed_form_eval("thm16-zeta-odd-cos", 2, x=0.5, ctx=CTX)
        assert abs(high - low) < 1e-20


def _residual_reference(rule, w):
    """The residual at u = scale * w from mpmath's own zeta at 60 digits: the
    direct sum for w <= 1/2, where its ratio is at most w^2; at w = 1 the
    quadrature of the Beta integral plus the zeta(2k) - 1 remainder."""
    r = rule.r
    with mp.workdps(60):
        def c(k):
            z = mp.zeta(2 * k)
            return z - z / 4 ** k if rule.alternating else z

        def f(k):
            return mp.factorial(2 * k) / (mp.factorial(2 * r + 2 * k) * k)

        if w < 1:
            total = mp.fsum(c(k) * f(k) * w ** (2 * r + 2 * k)
                            for k in range(1, 120))
        else:
            total = -mp.quad(lambda t: (1 - t) ** (2 * r - 1) * mp.log(1 - t * t),
                             [0, 1]) / mp.factorial(2 * r - 1)
            total += mp.fsum((c(k) - 1) * f(k) for k in range(1, 250))
        scale = mp.pi if rule.alternating else 2 * mp.pi
        return rule.sign * scale ** (2 * r) * total, scale


@pytest.mark.parametrize("alternating", [False, True], ids=["thm16", "thm21"])
@pytest.mark.parametrize("r", range(1, 7))
def test_residual_eval_within_eps(r, alternating):
    rule = ResidualRule(r, alternating)
    for w in ("1e-6", "0.5", "1"):
        want, scale = _residual_reference(rule, mp.mpf(w))
        with mp.workdps(30):
            eps = mp.mpf("1e-20")
            got = rule.eval(scale * mp.mpf(w), eps)
        assert abs(got - want) <= eps, (w, got, want)


class TestVerify:
    def test_example1_documented(self):
        rep = verify("example1-cospow", None, N=2000, tol=1e-8,
                     interval=(0.1, float(np.pi) - 0.1))
        assert rep.passed

    def test_example2_documented(self):
        rep = verify("example2-fourier", None, N=100_000, tol=1e-3,
                     interval=((-np.pi / 3 + 0.1) / np.pi,
                               (np.pi / 3 - 0.1) / np.pi))
        assert rep.passed

    def test_thm16_documented(self):
        rep = verify("thm16-zeta-odd-cos", 1, N=10_000, tol=1e-5,
                     interval=(0.1, 1.9))
        assert rep.passed

    def test_failure_reported_not_raised(self):
        rep = verify("thm11-cos", 1, N=5, tol=1e-12)
        assert not rep.passed

    def test_report_serialization(self):
        rep = verify("cor5-beta", 1, N=500, tol=1e-4)
        payload = json.loads(rep.to_json())
        assert payload["id"] == "cor5-beta" and payload["pass"] is True
        assert rep.csv_row().startswith("cor5-beta,1,")

    def test_deterministic(self):
        a = verify("cor6-lambda", 1, N=800, tol=1e-4)
        b = verify("cor6-lambda", 1, N=800, tol=1e-4)
        assert a == b

    def test_value_record_refuses_grid_and_interval(self):
        # the value record is checked at x = 0 alone: a grid or an interval
        # would be ignored, so either is refused, as the CLI refuses --grid
        for extra in ({"grid": 7}, {"grid": 50}, {"interval": (0.1, 0.2)}):
            with pytest.raises(RegistryError, match="eq56-frakd-value is a value record"):
                verify("eq56-frakd-value", 1, N=10_000, tol=1e-4, **extra)
        rep = verify("eq56-frakd-value", 1, N=10_000, tol=1e-4)
        assert rep.passed and rep.grid == 1 and rep.worst_x == 0.0

    def test_value_record_closed_form_only_at_zero(self):
        with pytest.raises(RegistryError, match="only, got x = 0.5"):
            closed_form_eval("eq56-frakd-value", 1, x=0.5)
        with mp.workdps(40):
            want = mp.sqrt(2) * exact.frakD(1).eval(40)
            assert abs(closed_form_eval("eq56-frakd-value", 1, x=0.0) - want) < 1e-25

    def test_worst_point_and_stage_times(self):
        rep = verify("thm16-zeta-odd-cos", 1, grid=20, N=2000, tol=1e-5)
        xs = _grid_points(get_record("thm16-zeta-odd-cos"), 1.0, 20)
        assert rep.worst_x in xs.tolist()
        closed = float(closed_form_eval("thm16-zeta-odd-cos", 1, x=rep.worst_x,
                                        ctx=CTX, series_eps=mp.mpf(1e-5) / 20))
        partial = float(partial_sum_eval("thm16-zeta-odd-cos", 1, x=rep.worst_x,
                                         N=2000))
        assert abs(abs(closed - partial) - rep.max_error) < 1e-12
        assert rep.partial_s > 0 and rep.closed_s > 0
        # the times neither enter the output nor break equality
        again = verify("thm16-zeta-odd-cos", 1, grid=20, N=2000, tol=1e-5)
        assert again == rep
        assert set(json.loads(rep.to_json())) == {"id", "r", "c", "N", "tol",
                                                  "max_error", "pass"}
        assert rep.csv_row().count(",") == 6


class TestStructural:
    def test_corollary2_both_families(self):
        for src in ("thm11-cos", "thm18-cos"):
            succ = integration_successor(src)
            for r in range(1, 6):
                assert corollary2_integrate(src, r) == get_record(succ).poly(r)

    def test_corollary2_idempotence(self):
        for src in ("thm11-cos", "thm18-cos"):
            for r in (1, 2, 3):
                anti = corollary2_integrate(src, r)
                assert poly_derivative(anti) == get_record(src).poly(r)

    def test_no_successor(self):
        with pytest.raises(RegistryError):
            corollary2_integrate("thm16-zeta-odd-cos", 1)

    def test_theorem23_reproduces_shifted_polys(self):
        sh = theorem23_shift("cor6-lambda", F(1, 4))
        assert sh.poly(1) == get_record("eq59-lambda-shift").poly(1)
        assert sh.poly(2) == get_record("eq69-frakd-poly").poly(2)
        assert sh.interval == (F(1, 4), F(3, 4))

    def test_theorem23_zero_shift_identity(self):
        assert theorem23_shift("cor6-lambda", F(0)) is get_record("cor6-lambda")

    def test_theorem23_range_check(self):
        with pytest.raises(RegistryError):
            theorem23_shift("cor6-lambda", F(1, 2))

    @pytest.mark.parametrize("x0", [F(1, 4), F(1, 8)], ids=["1/4", "1/8"])
    def test_theorem23_shifted_partial_sum(self, x0):
        sh = theorem23_shift("cor6-lambda", x0)
        for x in (0.5, 0.4):
            partial = partial_sum_eval(sh, 1, x=x, N=4000)
            closed = closed_form_eval(sh, 1, x=x, ctx=CTX)
            assert abs(partial - closed) < 1e-6, (x0, x)

    def test_theorem23_shifted_series_verifies(self):
        sh = theorem23_shift("cor6-lambda", F(1, 8))
        rep = verify(sh, 1, N=4000, tol=1e-5)
        assert rep.passed

    def test_special_values(self):
        for r in range(1, 13):
            assert poly_at(get_record("thm11-sin").poly(r), F(1)).is_zero()
            assert poly_at(get_record("thm11-sin").poly(r), F(2)).is_zero()
            assert poly_at(get_record("thm18-sin").poly(r), F(1)).is_zero()
            assert poly_at(get_record("cor5-beta").poly(r), F(1, 2)).is_zero()
            assert poly_at(get_record("cor6-lambda").poly(r), F(1, 2)).is_zero()
            assert (poly_at(get_record("cor7-frakd").poly(r), F(1, 4))
                    == Coeff({ONE: exact.lambda_even(r).scale(F(1, 2))}))
            assert (poly_at(get_record("cor8-cald").poly(r), F(1, 4))
                    == Coeff({ONE: exact.beta_odd(r).scale(F(1, 2))}))
            assert (poly_at(poly_derivative(get_record("cor8-cald").poly(r)), F(1, 4))
                    == Coeff({ONE: exact.lambda_even(r).scale(F(-1, 2))}))

    def test_eq56_specializes_to_frakD(self):
        for r in (1, 2, 3):
            want = Coeff({SQRT2: exact.frakD(r)})
            assert get_record("eq56-frakd-value").poly(r)[0] == want

    def test_rule_needs_a_named_series(self):
        # eq56's pattern lacks frakD's 1/sqrt2 scale, so no rule applies
        from trigsum.registry import IdentityRecord
        rec = get_record("eq56-frakd-value")
        with pytest.raises(RegistryError):
            IdentityRecord(id="x", label="x", kind="fourier", trig="cos",
                           r_fixed=None, interval=(F(0), F(1)),
                           closed=True, period=F(2),
                           n_start=1, term=rec.term)

    def test_eq70_equals_cor7(self):
        assert get_record("eq70-frakd-poly").poly(2) == get_record("cor7-frakd").poly(2)


class TestCoeff:
    """Coeff maps each irrational unit to a PiPolynomial."""

    @pytest.mark.parametrize("digits", [30, 100])
    @pytest.mark.parametrize("coeff,want", [
        (Coeff.of(F(3, 7), 4, SQRT2), lambda: F(3, 7) * mp.sqrt(2) * mp.pi ** 4),
        (Coeff.of(F(-1, 9), 1, SQRT3), lambda: -mp.sqrt(3) * mp.pi / 9),
        (Coeff.of(F(5, 2), unit=LN2), lambda: 5 * mp.log(2) / 2),
        (Coeff.of(1, unit=("zeta", 3)), lambda: mp.zeta(3)),
        (Coeff.of(F(-2, 3), unit=("zeta", 5)), lambda: -2 * mp.zeta(5) / 3),
    ], ids=["sqrt2pi4", "sqrt3pi", "ln2", "zeta3", "zeta5"])
    def test_unit_eval_matches_mpmath(self, coeff, want, digits):
        with mp.workdps(digits + 10):
            ref = want()
        got = coeff.eval(digits)
        with mp.workdps(digits + 10):
            assert abs(got - ref) <= abs(ref) * mp.mpf(10) ** (1 - digits)

    def test_zeta_times_pi_power(self):
        c = Coeff.of(1, unit=("zeta", 3)).mul_pi_power(2)
        assert c == Coeff({("zeta", 3): exact.PiPolynomial.monomial(1, 2)})
        with mp.workdps(40):
            assert abs(c.eval(30) - mp.zeta(3) * mp.pi ** 2) < mp.mpf(10) ** -28

    def test_equal_and_hash_in_either_order(self):
        terms = [Coeff.of(F(1, 3), 2), Coeff.of(2, unit=LN2),
                 Coeff.of(F(-5, 4), unit=("zeta", 5)), Coeff.of(7, 1, SQRT2),
                 Coeff.of(F(1, 6))]
        a = b = Coeff()
        for t in terms:
            a = a + t
        for t in reversed(terms):
            b = b + t
        assert list(a.parts) != list(b.parts)
        assert a == b and hash(a) == hash(b)

    def test_cancelled_sum_holds_no_parts(self):
        c = Coeff.of(F(1, 3), 2) + Coeff.of(1, unit=("zeta", 3)) + Coeff.of(2, 4, SQRT3)
        zero = c + c.scale(-1)
        assert zero.parts == {} and zero.is_zero() and zero == Coeff()
        partly = c + Coeff.of(-1, unit=("zeta", 3))
        assert set(partly.parts) == {ONE, SQRT3}

    @pytest.mark.parametrize("unit", [("zeta", 4), ("zeta", 1), ("sqrt5", 0),
                                      ("ln2", 1), ("1", 2)], ids=str)
    def test_unknown_unit_refused(self, unit):
        with pytest.raises(ValueError):
            Coeff.of(1, unit=unit)

    def test_zeta_odd_cache_bounded(self):
        size = _zeta_odd_value.cache_info().maxsize
        for digits in range(15, 15 + size + 5):
            _zeta_odd_value(3, digits)
        assert _zeta_odd_value.cache_info().currsize == size

    # the rows of acceptance criterion 7, (record, u / pi, exact value)
    _CRITERION_7_ROWS = [
        ("thm11-sin", F(1), lambda r: exact.PiPolynomial()),
        ("thm11-sin", F(2), lambda r: exact.PiPolynomial()),
        ("thm18-sin", F(1), lambda r: exact.PiPolynomial()),
        ("cor5-beta", F(1, 2), lambda r: exact.PiPolynomial()),
        ("cor6-lambda", F(1, 2), lambda r: exact.PiPolynomial()),
        ("cor7-frakd", F(1, 4), lambda r: exact.lambda_even(r).scale(F(1, 2))),
    ]

    @pytest.mark.parametrize("rid,ratio,want", _CRITERION_7_ROWS,
                             ids=[f"{rid}@{ratio}" for rid, ratio, _ in _CRITERION_7_ROWS])
    def test_poly_at_reproduces_criterion_7(self, rid, ratio, want):
        # exactly, and against the closed form summed in floating point
        for r in (1, 2, 3, 12):
            got = poly_at(get_record(rid).poly(r), ratio)
            assert got == Coeff({ONE: want(r)})
            with mp.workdps(30):
                closed = closed_form_eval(rid, r, x=float(ratio), ctx=CTX)
                assert abs(got.eval(30) - closed) < mp.mpf(10) ** -25 * max(1, abs(closed))

    def test_poly_at_over_irrational_units(self):
        # thm16 at u = pi: zeta(3) - 3 pi^2 / 4
        got = poly_at(get_record("thm16-zeta-odd-cos").poly(1), F(1))
        assert got == Coeff.of(1, unit=("zeta", 3)) + Coeff.of(F(-3, 4), 2)


class TestEndpointLaw:
    def test_closed_endpoints_hold(self):
        for rid, r in endpoint_suite():
            rep = verify_endpoint(rid, r)
            assert rep.passed, (rid, r, rep)

    @pytest.mark.parametrize("rid", ["thm16-zeta-odd-cos", "thm21-eta-odd"])
    def test_residual_endpoint_rows_full_terms(self, rid):
        # the residual's closed form leaves the truncation tail of the
        # 200,000-term partial sum, 2 N^-2 / 2, as the only error at r = 1
        rep = verify_endpoint(rid, 1)
        assert (rep.N, rep.tol) == (200_000, 1e-10)
        assert rep.passed and rep.max_error < 2e-11

    def test_open_endpoint_fails(self):
        # the pure-jump open records differ from their series at the endpoint
        for rid, x, c in (("example1-cospow", 0.0, float(np.pi)),
                          ("lemma4-sin-log", 0.0, 1.0),
                          ("lemma4-cos-arctan", 0.5, 1.0)):
            closed = closed_form_eval(rid, None, c=c, x=x, ctx=CTX)
            partial = partial_sum_eval(rid, None, c=c, x=x, N=4000)
            assert abs(closed - partial) > 10 * 1e-8, rid

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_residual_endpoints_match_oracle(self, r):
        # thm16 at x = 2c sums zeta(2r+1); thm21 at x = +-c sums -zeta(2r+1)
        ctx = PrecisionContext.for_digits(30)
        zeta = dirichlet_oracle("zeta", 2 * r + 1, ctx).value
        got = closed_form_eval("thm16-zeta-odd-cos", r, x=2.0, ctx=ctx)
        assert abs(got - zeta) <= ctx.target
        for x in (1.0, -1.0):
            got = closed_form_eval("thm21-eta-odd", r, x=x, ctx=ctx)
            assert abs(got + zeta) <= ctx.target

    def test_suite_covers_catalog(self):
        suite_ids = {entry.id for entry in default_suite()}
        assert suite_ids == {rec.id for rec in list_identities()}


_PARTIAL_SUM_RECORDS = ([rec.id for rec in list_identities()]
                        + ["cor6-lambda@1/4", "cor6-lambda@1/8"])


@pytest.mark.parametrize("name", _PARTIAL_SUM_RECORDS)
def test_partial_sum_paths_agree(name):
    """The mpmath partial sum and the float64 grid partial sum come from the
    same term spec and agree at an interior point."""
    base, _, x0 = name.partition("@")
    rec = theorem23_shift(base, F(x0)) if x0 else get_record(base)
    r = rec.effective_r(1 if rec.r_fixed is None else None)
    if rec.kind == "value":
        c, x = 1.0, 0.0
    else:
        c = float(np.pi) if rec.kind == "cospow" else 1.0
        a, b = rec.interval
        x = float(a + (b - a) * F(3, 7)) * c
    exact_sum = partial_sum_eval(rec, r, c=c, x=x, N=200)
    float_sum = _series_partial_float(rec, r, c, np.array([x]), 200)[0]
    assert abs(exact_sum - float_sum) < 1e-12


_U = 2.0 ** -53


def _direct_partial(rec, r, c, xs, N):
    """The per-term float64 reference: one np.cos/np.sin per term and grid
    point, summed by np.sum, with the grid sums' own amplitudes."""
    amp = rec.term.amplitude(range(rec.n_start, rec.n_start + N), r)
    n = np.arange(rec.n_start, rec.n_start + N, dtype=np.float64)
    m = rec.term.frequency(n)
    if rec.kind == "value":
        return np.full_like(xs, amp.sum()), amp, m, xs
    if rec.kind == "cospow":
        return (np.array([np.sum(amp * np.sin(m * x) * np.cos(x) ** n) for x in xs]),
                amp, m, xs)
    trig = np.cos if rec.trig == "cos" else np.sin
    theta = np.pi * xs / c
    return np.array([np.sum(amp * trig(m * t)) for t in theta]), amp, m, theta


def _rounding_bound(amp, m, angle, N):
    """A priori bound on |grid sum - direct sum| at each point, u = 2^-53.

    Both sums round each angle m t to within u |m t| (in the grid sums the
    parts b_k t and a j t, whose magnitudes add up to |m t| since m0 >= 0);
    that part, twice, is weighted term by term.  The rest scales with
    sum |amp|: the direct sum's function, product and pairwise-summation
    error, at most (6 + log2 N + 8) u; in the grid sums four trig values of
    4 ulp each enter every term (16 u), the two contractions over B add
    2 B u, the products and difference per block 4 u, and the sum over K
    blocks 2 K u.  Together 2 (B + K) + log2 N + 34; the bound takes 40."""
    B, K = _blocks(N)
    weighted = np.array([np.sum(np.abs(amp * m * t)) for t in angle])
    return _U * (2 * weighted
                 + (2 * (B + K) + np.log2(N) + 40) * np.sum(np.abs(amp)))


def _sweep_rows():
    return ([pytest.param(e.id, e.r, False, id=f"{e.id}-r{e.r}")
             for e in default_suite()]
            + [pytest.param(rid, r, True, id=f"{rid}@endpoints-r{r}")
               for rid, r in endpoint_suite()])


@pytest.mark.parametrize("rid,r,endpoints", _sweep_rows())
def test_grid_sums_within_rounding_bound(rid, r, endpoints):
    """Each sweep row's grid sums agree with the direct per-term sums within
    an a priori rounding bound, and that bound stays below half the row's
    tolerance, so the evaluation order cannot turn a pass into a fail."""
    rec = get_record(rid)
    r = rec.effective_r(r)
    if endpoints:
        rep = verify_endpoint(rid, r)
        N, tol = rep.N, rep.tol
        xs = np.array([float(end) for end in rec.interval])
    else:
        entry = next(e for e in default_suite()
                     if e.id == rid and rec.effective_r(e.r) == r)
        N, tol = entry.N, entry.tol
        xs = _grid_points(rec, 1.0, 50)
    if rec.kind == "fourier":
        assert rec.term.frequency(rec.n_start) >= 0 and rec.term.a > 0
    want, amp, m, angle = _direct_partial(rec, r, 1.0, xs, N)
    got = _series_partial_float(rec, r, 1.0, xs, N)
    bound = _rounding_bound(amp, m, angle, N)
    assert np.all(bound < tol / 2), (bound.max(), tol)
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) / bound)


@pytest.mark.parametrize("rid,r,eps", [
    ("thm16-zeta-odd-cos", 2, None), ("thm16-zeta-odd-cos", 1, "5e-7"),
    ("thm21-eta-odd", 1, None), ("thm21-eta-odd", 2, "5e-8"),
    ("thm11-cos", 3, None), ("example2-fourier", None, None),
    ("eq59-lambda-shift", 2, None), ("cor7-frakd", 1, None)])
def test_row_evaluator_matches_single_points(rid, r, eps):
    """One evaluator per row, used point after point (its residual factors
    filled by the points before), gives closed_form_eval's bits."""
    rec = get_record(rid)
    series_eps = None if eps is None else mp.mpf(eps)
    a, b = rec.interval
    xs = [float(a), float(b), float(a + b) / 2, float(a) * 0.9 + float(b) * 0.1]
    at = _closed_form_evaluator(rec, r, 1.0, CTX, series_eps)
    for x in xs:
        want = closed_form_eval(rec, r, x=x, ctx=CTX, series_eps=series_eps)
        got = at(x)
        assert got == want and got._mpf_ == want._mpf_, (rid, x)


# closed_form_eval at single points, pinned as the repr at 30 digits (which
# round-trips the bits); captured before the per-row evaluator came in
_PINNED_VALUES = {
    ('thm16-zeta-odd-cos', 2, 0.5, None): "mpf('-0.0303787428264659158107053517411965')",
    ('thm16-zeta-odd-cos', 1, 1.9, '5e-7'): "mpf('1.0708631911560044280078254309378')",
    ('thm21-eta-odd', 1, 1.0, None): "mpf('-1.20205690315959428540001074531769')",
    ('thm21-eta-odd', 2, -0.3, '5e-8'): "mpf('0.594257926118936315517450153067068')",
    ('thm11-cos', 3, 1.3, None): "mpf('-0.591495686898297243371098064521486')",
    ('example2-fourier', None, 0.2, None): "mpf('-0.0108684966493475334327538060055968')",
    ('eq59-lambda-shift', 2, 0.6, None): "mpf('-0.224243844984526396065016310647519')",
    ('cor7-frakd', 1, 0.125, None): "mpf('0.616850275068084913677155687492232')",
}


@pytest.mark.parametrize("key", list(_PINNED_VALUES), ids=lambda k: f"{k[0]}-{k[2]}")
def test_pinned_closed_form_values(key):
    rid, r, x, eps = key
    v = closed_form_eval(rid, r, x=x, ctx=CTX,
                         series_eps=None if eps is None else mp.mpf(eps))
    with mp.workdps(30):
        assert repr(v) == _PINNED_VALUES[key]


# The closed forms of every record at r = 1..3 (fixed records at their own
# r), pinned as text: power of u, then each basis part as value*kind[index].
# The dict order is pinned too, since closed_form_eval sums in that order.
_PINNED_POLYS = {
    ('cor5-beta', 1): 'u^0: 1/32*pi[3]; u^2: -1/8*pi[1]',
    ('cor5-beta', 2): 'u^0: 5/1536*pi[5]; u^2: -1/64*pi[3]; u^4: 1/96*pi[1]',
    ('cor5-beta', 3): 'u^0: 61/184320*pi[7]; u^2: -5/3072*pi[5]; u^4: 1/768*pi[3]; u^6: -1/2880*pi[1]',
    ('cor6-lambda', 1): 'u^0: 1/8*pi[2]; u^1: -1/4*pi[1]',
    ('cor6-lambda', 2): 'u^0: 1/96*pi[4]; u^2: -1/16*pi[2]; u^3: 1/24*pi[1]',
    ('cor6-lambda', 3): 'u^0: 1/960*pi[6]; u^2: -1/192*pi[4]; u^4: 1/192*pi[2]; u^5: -1/480*pi[1]',
    ('cor7-frakd', 1): 'u^0: 1/16*pi[2]',
    ('cor7-frakd', 2): 'u^0: 11/1536*pi[4]; u^2: -1/32*pi[2]',
    ('cor7-frakd', 3): 'u^0: 361/491520*pi[6]; u^2: -11/3072*pi[4]; u^4: 1/384*pi[2]',
    ('cor8-cald', 1): 'u^0: 3/128*pi[3]; u^2: -1/8*pi[1]',
    ('cor8-cald', 2): 'u^0: 19/8192*pi[5]; u^2: -3/256*pi[3]; u^4: 1/96*pi[1]',
    ('cor8-cald', 3): 'u^0: 307/1310720*pi[7]; u^2: -19/16384*pi[5]; u^4: 1/1024*pi[3]; u^6: -1/2880*pi[1]',
    ('eq56-frakd-value', 1): 'u^0: 1/16*sqrt2pi[2]',
    ('eq56-frakd-value', 2): 'u^0: 11/1536*sqrt2pi[4]',
    ('eq56-frakd-value', 3): 'u^0: 361/491520*sqrt2pi[6]',
    ('eq59-lambda-shift', 1): 'u^0: 1/8*pi[2]; u^1: -1/4*pi[1]',
    ('eq59-lambda-shift', 2): 'u^0: 5/768*pi[4]; u^2: -1/16*pi[2]; u^1: 1/128*pi[3]; u^3: 1/24*pi[1]',
    ('eq59-lambda-shift', 3): 'u^0: 181/245760*pi[6]; u^2: -5/1536*pi[4]; u^4: 1/192*pi[2]; u^1: -1/24576*pi[5]; u^3: -1/768*pi[3]; u^5: -1/480*pi[1]',
    ('eq69-frakd-poly', 2): 'u^0: 5/768*pi[4]; u^1: 1/128*pi[3]; u^2: -1/16*pi[2]; u^3: 1/24*pi[1]',
    ('eq70-frakd-poly', 2): 'u^0: 11/1536*pi[4]; u^2: -1/32*pi[2]',
    ('example1-cospow', 1): 'u^0: 1/2*pi[1]; u^1: -1*pi[0]',
    ('example2-fourier', 1): 'u^0: -1/2*pi[0]',
    ('lemma4-cos-arctan', 0): 'u^0: 1/4*pi[1]',
    ('lemma4-sin-alt', 0): 'u^1: 1/2*pi[0]',
    ('lemma4-sin-log', 0): 'u^0: 1/2*pi[1]; u^1: -1/2*pi[0]',
    ('thm11-cos', 1): 'u^0: 1/6*pi[2]; u^1: -1/2*pi[1]; u^2: 1/4*pi[0]',
    ('thm11-cos', 2): 'u^0: 1/90*pi[4]; u^2: -1/12*pi[2]; u^3: 1/12*pi[1]; u^4: -1/48*pi[0]',
    ('thm11-cos', 3): 'u^0: 1/945*pi[6]; u^2: -1/180*pi[4]; u^4: 1/144*pi[2]; u^5: -1/240*pi[1]; u^6: 1/1440*pi[0]',
    ('thm11-sin', 1): 'u^1: 1/6*pi[2]; u^2: -1/4*pi[1]; u^3: 1/12*pi[0]',
    ('thm11-sin', 2): 'u^1: 1/90*pi[4]; u^3: -1/36*pi[2]; u^4: 1/48*pi[1]; u^5: -1/240*pi[0]',
    ('thm11-sin', 3): 'u^1: 1/945*pi[6]; u^3: -1/540*pi[4]; u^5: 1/720*pi[2]; u^6: -1/1440*pi[1]; u^7: 1/10080*pi[0]',
    ('thm16-zeta-odd-cos', 1): 'u^0: 1*zeta[3]; u^2: -3/4*pi[0]',
    ('thm16-zeta-odd-cos', 2): 'u^0: 1*zeta[5]; u^2: -1/2*zeta[3]; u^4: 25/288*pi[0]',
    ('thm16-zeta-odd-cos', 3): 'u^0: 1*zeta[7]; u^2: -1/2*zeta[5]; u^4: 1/24*zeta[3]; u^6: -49/14400*pi[0]',
    ('thm18-cos', 1): 'u^0: 1/12*pi[2]; u^2: -1/4*pi[0]',
    ('thm18-cos', 2): 'u^0: 7/720*pi[4]; u^2: -1/24*pi[2]; u^4: 1/48*pi[0]',
    ('thm18-cos', 3): 'u^0: 31/30240*pi[6]; u^2: -7/1440*pi[4]; u^4: 1/288*pi[2]; u^6: -1/1440*pi[0]',
    ('thm18-sin', 1): 'u^1: 1/12*pi[2]; u^3: -1/12*pi[0]',
    ('thm18-sin', 2): 'u^1: 7/720*pi[4]; u^3: -1/72*pi[2]; u^5: 1/240*pi[0]',
    ('thm18-sin', 3): 'u^1: 31/30240*pi[6]; u^3: -7/4320*pi[4]; u^5: 1/1440*pi[2]; u^7: -1/10080*pi[0]',
    ('thm21-eta-odd', 1): 'u^0: 3/4*zeta[3]; u^2: -1/2*ln2[0]',
    ('thm21-eta-odd', 2): 'u^0: 15/16*zeta[5]; u^2: -3/8*zeta[3]; u^4: 1/24*ln2[0]',
    ('thm21-eta-odd', 3): 'u^0: 63/64*zeta[7]; u^2: -15/32*zeta[5]; u^4: 1/32*zeta[3]; u^6: -1/720*ln2[0]',
}

_PINNED_LOGS = {
    ('thm16-zeta-odd-cos', 1): ('u^2: 1/2*pi[0]'),
    ('thm16-zeta-odd-cos', 2): ('u^4: -1/24*pi[0]'),
    ('thm16-zeta-odd-cos', 3): ('u^6: 1/720*pi[0]'),
}


def _render_parts(c):
    """(kind, index, rational) of each term of a Coeff: pi[K], sqrt2pi[K] and
    sqrt3pi[K] for 1, sqrt2 and sqrt3 times pi^K, zeta[m] and ln2[0] for the
    units zeta(m) and ln 2, which carry no pi power in the catalog."""
    for (name, m), p in c.parts.items():
        for k, v in p.terms():
            if name in ("zeta", "ln2"):
                assert k == 0
                yield name, m, v
            else:
                yield ("pi" if name == "1" else name + "pi"), k, v


def _render(poly):
    return "; ".join(
        f"u^{p}: " + " + ".join(f"{v}*{kind}[{m}]"
                               for kind, m, v in sorted(_render_parts(c)))
        for p, c in poly.items())


@pytest.mark.parametrize("rid,r", list(_PINNED_POLYS), ids=lambda v: str(v))
def test_pinned_closed_forms(rid, r):
    rec = get_record(rid)
    assert _render(rec.poly(r)) == _PINNED_POLYS[rid, r]
    want_log = _PINNED_LOGS.get((rid, r))
    if rec.log_term is None:
        assert want_log is None
    else:
        coeff, power = rec.log_term(r)
        assert _render({power: coeff}) == want_log
