"""Identity catalog: grid verification, exact structural operations,
endpoint laws, and serialization."""

import json
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from trigsum import exact
from trigsum.dirichlet import PrecisionContext, dirichlet_oracle
from trigsum.registry import (Coeff, RegistryError, ResidualRule,
                              _series_partial_float,
                              closed_form_eval, corollary2_integrate, default_suite,
                              endpoint_suite, get_record, integration_successor,
                              list_identities, partial_sum_eval, poly_derivative,
                              theorem23_shift, verify, verify_endpoint)

F = Fraction
CTX = PrecisionContext.for_digits(30)


def eval_poly_at(poly, ratio):
    """Exact value of a pure pi-polynomial closed form at u = ratio * pi."""
    total = exact.PiPolynomial()
    for p, coeff in poly.items():
        total = total + coeff.as_pipoly().shift_pi(p).scale(ratio ** p)
    return total


class TestCatalog:
    def test_count(self):
        assert len(list_identities()) >= 18

    def test_ids_unique(self):
        ids = [rec.id for rec in list_identities()]
        assert len(ids) == len(set(ids))

    def test_contains_expected(self):
        ids = {rec.id for rec in list_identities()}
        assert {"thm11-cos", "thm11-sin", "thm21-eta-odd", "example1-cospow",
                "example2-fourier", "cor7-frakd"} <= ids

    def test_thm21_residual_coefficients(self):
        # residuals carry w(n) B_n* / (2n (2r+2n)!), w(n) = 2^(2n)-1 for
        # thm21 and 1 for thm16; the float rule agrees with the exact one
        from math import factorial
        for rid, weight in (("thm21-eta-odd", lambda n: 4 ** n - 1),
                            ("thm16-zeta-odd-cos", lambda n: 1)):
            rule = get_record(rid).residual(1)
            for n in (1, 2, 3):
                want = (F(weight(n)) * exact.bernoulli_star(n)
                        / (2 * n * factorial(2 + 2 * n)))
                assert rule.coeff(n) == want
            with mp.workdps(30):
                for k in range(1, 7):
                    want = rule.coeff(k)
                    want = mp.mpf(want.numerator) / want.denominator
                    assert abs(rule.coeff_mpf(k, 30) / want - 1) < 1e-25, (rid, k)

    def test_unknown_id(self):
        with pytest.raises(RegistryError):
            get_record("nope")


class TestEvaluation:
    def test_thm11_sin_vanishes_at_c(self):
        v = closed_form_eval("thm11-sin", 1, c=1.0, x=1.0, ctx=CTX)
        assert abs(v) < 1e-25

    def test_thm18_cos_at_zero_is_eta2(self):
        with mp.workdps(30):
            v = closed_form_eval("thm18-cos", 1, c=1.0, x=0.0, ctx=CTX)
            assert abs(v - mp.pi ** 2 / 12) < 1e-25

    def test_eq59_at_half_c_vanishes(self):
        assert eval_poly_at(get_record("eq59-lambda-shift").poly(1),
                            F(1, 2)) == exact.PiPolynomial()

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
        zero = exact.PiPolynomial()
        for r in range(1, 13):
            assert eval_poly_at(get_record("thm11-sin").poly(r), F(1)) == zero
            assert eval_poly_at(get_record("thm11-sin").poly(r), F(2)) == zero
            assert eval_poly_at(get_record("thm18-sin").poly(r), F(1)) == zero
            assert eval_poly_at(get_record("cor5-beta").poly(r), F(1, 2)) == zero
            assert eval_poly_at(get_record("cor6-lambda").poly(r), F(1, 2)) == zero
            assert (eval_poly_at(get_record("cor7-frakd").poly(r), F(1, 4))
                    == exact.lambda_even(r).scale(F(1, 2)))
            assert (eval_poly_at(get_record("cor8-cald").poly(r), F(1, 4))
                    == exact.beta_odd(r).scale(F(1, 2)))
            assert (eval_poly_at(poly_derivative(get_record("cor8-cald").poly(r)),
                                 F(1, 4))
                    == exact.lambda_even(r).scale(F(-1, 2)))

    def test_eq56_specializes_to_frakD(self):
        for r in (1, 2, 3):
            want = Coeff({("sqrt2pi", 2 * r): exact.frakD(r).coeffs[2 * r]})
            assert get_record("eq56-frakd-value").poly(r)[0] == want

    def test_eq70_equals_cor7(self):
        assert get_record("eq70-frakd-poly").poly(2) == get_record("cor7-frakd").poly(2)


class TestEndpointLaw:
    def test_closed_endpoints_hold(self):
        for rid, r in endpoint_suite():
            rep = verify_endpoint(rid, r)
            assert rep.passed, (rid, r, rep)

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
    r = rec.effective_r(1)
    if rec.kind == "value":
        c, x = 1.0, 0.0
    else:
        c = float(np.pi) if rec.kind == "cospow" else 1.0
        a, b = rec.interval
        x = float(a + (b - a) * F(3, 7)) * c
    exact_sum = partial_sum_eval(rec, r, c=c, x=x, N=200)
    float_sum = _series_partial_float(rec, r, c, np.array([x]), 200)[0]
    assert abs(exact_sum - float_sum) < 1e-12
