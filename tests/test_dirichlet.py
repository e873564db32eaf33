"""Numeric layer: oracle values, tail-bound soundness, the four series
representations at odd integers, Hurwitz zeta, and identity groups."""

from fractions import Fraction

import mpmath as mp
import pytest

from trigsum.dirichlet import (PrecisionContext, PrecisionError,
                               ZETA_ODD_METHODS, dirichlet_oracle, eta_odd,
                               hurwitz_zeta, identity_checks, zeta_odd)
from trigsum.exact import (beta_odd, calD, eta_even, frakD, lambda_even,
                           zeta_even, bernoulli_star)

F = Fraction
CTX40 = PrecisionContext.for_digits(40)


class TestPrecisionContext:
    def test_refusal(self):
        with pytest.raises(PrecisionError):
            PrecisionContext(digits=12, target=1e-20)
        for target in (0.0, -1e-20, float("inf"), float("nan")):
            with pytest.raises(PrecisionError):
                PrecisionContext(digits=30, target=target)

    def test_for_digits_ignores_ambient_precision(self):
        # 10.0**-e lies below 1e-e for e = 16, 17, 21, ...; at 60 ambient
        # digits -log10 resolved that and for_digits refused its own target
        with mp.workdps(60):
            for digits in range(11, 320):
                assert PrecisionContext.for_digits(digits).digits == digits

    def test_for_target(self):
        ctx = PrecisionContext.for_target(1e-25)
        assert ctx.digits >= 35


class TestOracle:
    def test_zeta2(self):
        with mp.workdps(45):
            a = dirichlet_oracle("zeta", 2, CTX40)
            assert abs(a.value - mp.pi ** 2 / 6) < 1e-28
            assert a.tail_bound < 1e-28

    def test_frakD2(self):
        with mp.workdps(45):
            a = dirichlet_oracle("frakD", 2, CTX40)
            assert abs(a.value - mp.pi ** 2 / 16) < 1e-15

    def test_beta1_alternating(self):
        with mp.workdps(45):
            a = dirichlet_oracle("beta", 1, CTX40)
            assert abs(a.value - mp.pi / 4) < 1e-12

    def test_eta1(self):
        with mp.workdps(45):
            a = dirichlet_oracle("eta", 1, CTX40)
            assert abs(a.value - mp.log(2)) < 1e-25

    def test_calD1(self):
        with mp.workdps(45):
            a = dirichlet_oracle("calD", 1, CTX40)
            assert abs(a.value - mp.pi / 4) < 1e-25

    def test_divergent_refused(self):
        with pytest.raises(PrecisionError):
            dirichlet_oracle("zeta", 1, CTX40)

    def test_exact_values_match_oracle(self):
        ctx = PrecisionContext.for_digits(45)
        cases = []
        for r in range(1, 6):
            cases.append((zeta_even(r), "zeta", 2 * r))
            cases.append((eta_even(r), "eta", 2 * r))
            cases.append((lambda_even(r), "lambda", 2 * r))
        for r in range(1, 5):
            cases.append((frakD(r), "frakD", 2 * r))
            cases.append((calD(r), "calD", 2 * r + 1))
        for k in range(4):
            cases.append((beta_odd(k), "beta", 2 * k + 1))
        with mp.workdps(50):
            for poly, name, s in cases:
                oracle = dirichlet_oracle(name, s, ctx)
                assert abs(oracle.value - poly.eval(50)) < 1e-30, (name, s)

    def test_tail_bound_soundness_sweep(self):
        # tightening the target never moves the value by more than the
        # looser run's bound
        for name, s in (("zeta", 2), ("eta", 3), ("beta", 3), ("frakD", 2),
                        ("calD", 3), ("lambda", 4)):
            loose = dirichlet_oracle(name, s, PrecisionContext.for_digits(25))
            tight = dirichlet_oracle(name, s, PrecisionContext.for_digits(40))
            with mp.workdps(45):
                assert abs(loose.value - tight.value) <= loose.tail_bound + mp.mpf(10) ** -23


class TestHurwitz:
    def test_reduces_to_zeta(self):
        for s in range(2, 7):
            a = hurwitz_zeta(s, F(1), CTX40)
            b = dirichlet_oracle("zeta", s, CTX40)
            with mp.workdps(45):
                assert abs(a.value - b.value) < 1e-30

    def test_half_offset(self):
        with mp.workdps(45):
            a = hurwitz_zeta(2, F(1, 2), CTX40)
            assert abs(a.value - mp.pi ** 2 / 2) < 1e-28

    def test_shift_by_one(self):
        with mp.workdps(45):
            a = hurwitz_zeta(3, F(2), CTX40)
            z = dirichlet_oracle("zeta", 3, CTX40)
            assert abs(a.value - (z.value - 1)) < 1e-28

    def test_s_below_two_refused(self):
        with pytest.raises(PrecisionError):
            hurwitz_zeta(1, F(1, 2), CTX40)


ZETA3 = "1.2020569031595942853997381615114499907650"
ZETA5 = "1.0369277551433699263313654864570341680571"
ZETA7 = "1.0083492773819228268397975498497967595999"


class TestZetaOdd:
    @pytest.mark.parametrize("method", ZETA_ODD_METHODS)
    def test_zeta3_all_methods(self, method):
        with mp.workdps(45):
            a = zeta_odd(1, method, CTX40)
            assert abs(a.value - mp.mpf(ZETA3)) < 1e-25

    def test_zeta5_zeta7(self):
        with mp.workdps(45):
            assert abs(zeta_odd(2, "thm15-zeta", CTX40).value - mp.mpf(ZETA5)) < 1e-25
            assert abs(zeta_odd(3, "thm17", CTX40).value - mp.mpf(ZETA7)) < 1e-25

    def test_methods_agree_within_bounds(self):
        for r in range(1, 6):
            approxes = [zeta_odd(r, m, CTX40) for m in ZETA_ODD_METHODS]
            with mp.workdps(45):
                for i in range(len(approxes)):
                    for j in range(i + 1, len(approxes)):
                        gap = abs(approxes[i].value - approxes[j].value)
                        assert gap <= (approxes[i].tail_bound
                                       + approxes[j].tail_bound + mp.mpf(10) ** -38)

    def test_against_oracle(self):
        ctx = PrecisionContext.for_digits(45)
        for r in (1, 2, 3):
            with mp.workdps(50):
                ref = dirichlet_oracle("zeta", 2 * r + 1, ctx).value
                for m in ZETA_ODD_METHODS:
                    assert abs(zeta_odd(r, m, CTX40).value - ref) < 1e-25, (r, m)

    def test_converges_fast(self):
        # 1e-30 from at most 30 residual terms for zeta(3)
        ctx = PrecisionContext.for_target(1e-30)
        a = zeta_odd(1, "thm15-zeta", ctx)
        assert a.terms_used <= 30
        assert a.tail_bound < 1e-30

    def test_example3_literal_formula(self):
        # r = 1 closed form: 6 pi^2/35 - 4 pi^2/35 ln(pi/2)
        #                    + pi^2/35 sum B_k* pi^(2k)/(k 4^(k-1) (2k+2)!)
        from math import factorial
        with mp.workdps(45):
            total = (6 * mp.pi ** 2 / 35
                     - 4 * mp.pi ** 2 / 35 * mp.log(mp.pi / 2))
            k = 1
            while True:
                b = bernoulli_star(k)
                t = (mp.pi ** 2 / 35 * mp.mpf(b.numerator) / b.denominator
                     * mp.pi ** (2 * k)
                     / (k * mp.mpf(4) ** (k - 1) * factorial(2 * k + 2)))
                total += t
                if t < 1e-40:
                    break
                k += 1
            assert abs(total - zeta_odd(1, "thm15", CTX40).value) < 1e-30

    def test_eta_odd(self):
        with mp.workdps(45):
            a = eta_odd(1, CTX40)
            assert abs(a.value - mp.mpf(3) / 4 * mp.mpf(ZETA3)) < 1e-24
            b = eta_odd(2, CTX40)
            assert abs(b.value - mp.mpf(15) / 16 * mp.mpf(ZETA5)) < 1e-24
            ref = dirichlet_oracle("eta", 3, CTX40)
            assert abs(a.value - ref.value) < 1e-20


class TestIdentityGroups:
    @pytest.mark.parametrize("group,count", [("multiplication", 28),
                                             ("connon", 16),
                                             ("corollary3", 3)])
    def test_residuals_tiny(self, group, count):
        res = identity_checks(group, CTX40)
        assert len(res) == count
        assert max(r for _, r in res) < 1e-15

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            identity_checks("nope")


class TestCustomPattern:
    def test_custom_periodic_coefficients(self):
        # sum over n = 1 mod 4 minus n = 2 mod 4 of n^(-3)
        from trigsum.dirichlet import PeriodicPattern
        pattern = PeriodicPattern(4, ((1, F(1)), (2, F(-1))))
        a = dirichlet_oracle(pattern, 3, CTX40)
        with mp.workdps(45):
            direct = mp.fsum((1 if n % 4 == 1 else -1) / mp.mpf(n) ** 3
                             for n in range(1, 20001) if n % 4 in (1, 2))
            assert abs(a.value - direct) < 1e-10
