"""Numeric layer: oracle values, tail-bound soundness, the series
representations at odd integers, Hurwitz zeta, and identity groups."""

import hashlib
from fractions import Fraction

import mpmath as mp
import pytest

from trigsum.dirichlet import (ORACLE_SERIES, PeriodicPattern,
                               PrecisionContext, PrecisionError,
                               ZETA_ODD_METHODS, _B_CLASSICAL,
                               dirichlet_oracle, eta_odd, hurwitz_zeta,
                               identity_checks, zeta_odd)
from trigsum.exact import (beta_odd, calD, eta_even, frakD, harmonic,
                           lambda_even, zeta_even, bernoulli_star)

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

    def test_for_digits_past_the_float_range(self):
        # 10.0**-(d-10) is 0.0 for d >= 334; the decimal target is exact
        for digits in (333, 334, 410, 1000):
            ctx = PrecisionContext.for_digits(digits)
            assert ctx.digits == digits
            assert 0 < ctx.target
            with mp.workdps(digits + 10):
                assert abs(mp.log10(ctx.target) + (digits - 10)) < 1e-12
        with pytest.raises(PrecisionError):
            PrecisionContext(digits=409, target="1e-400")

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

    def test_zeta3_400_digits(self):
        ctx = PrecisionContext.for_digits(400)
        a = dirichlet_oracle("zeta", 3, ctx)
        with mp.workdps(420):
            assert abs(a.value - mp.zeta(3)) <= a.tail_bound
        assert a.tail_bound <= ctx.target

    def test_zeta3_1000_digits(self):
        ctx = PrecisionContext.for_digits(1000)
        a = dirichlet_oracle("zeta", 3, ctx)
        with mp.workdps(1020):
            assert abs(a.value - mp.zeta(3)) <= a.tail_bound
        assert a.tail_bound <= ctx.target

    def test_classical_bernoulli_matches_mpmath(self):
        # the oracle's own recurrence, independent of exact.bernoulli_star
        for j in range(401):
            p, q = mp.bernfrac(2 * j)
            assert _B_CLASSICAL[j] == F(int(p), int(q)), j

    def test_bernoulli_table_concurrent_growth(self):
        # threads that extend one cold table at once must leave the values
        # that one thread computes; a lost rescaling or a doubled row would
        # change them
        import sys
        import threading
        from trigsum.dirichlet import _BernoulliTable
        want = _BernoulliTable()
        want[300]
        table = _BernoulliTable()
        start = threading.Barrier(4)
        seen = [None] * 4

        def grow(i):
            start.wait()
            seen[i] = table[297 + i]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == want.values[297:301]
        assert table.values == want.values[:len(table.values)]

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

    @pytest.mark.parametrize("s,a", [(2, F(1, 3)), (5, F(7, 4))])
    def test_300_digits(self, s, a):
        ctx = PrecisionContext.for_digits(300)
        h = hurwitz_zeta(s, a, ctx)
        with mp.workdps(320):
            ref = mp.zeta(s, mp.mpf(a.numerator) / a.denominator)
            assert abs(h.value - ref) <= h.tail_bound
        assert h.tail_bound <= ctx.target

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

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_400_digits(self, r):
        ctx = PrecisionContext.for_digits(400)
        a = zeta_odd(r, "thm15-zeta", ctx)
        with mp.workdps(420):
            assert abs(a.value - mp.zeta(2 * r + 1)) <= a.tail_bound
        assert a.tail_bound <= ctx.target

    def test_1000_digits(self):
        ctx = PrecisionContext.for_digits(1000)
        a = zeta_odd(1, "thm17-zeta", ctx)
        with mp.workdps(1020):
            assert abs(a.value - mp.zeta(3)) <= a.tail_bound
        assert a.tail_bound <= ctx.target

    def test_300_digits_r6_both_theorems(self):
        ctx = PrecisionContext.for_digits(300)
        for method in ("thm15-zeta", "thm17"):
            a = zeta_odd(6, method, ctx)
            with mp.workdps(320):
                assert abs(a.value - mp.zeta(13)) <= a.tail_bound

    @pytest.mark.parametrize("method", ["thm15-zeta", "thm17-zeta"])
    def test_zeta_form_matches(self, method):
        # the paper's zeta(2k) residual form, with zeta(2k) from the thm12
        # recurrence, powers and factorials taken whole, and the head over
        # the form's own lower levels
        from math import factorial
        m = 2 if method == "thm15-zeta" else 3
        refs = {}
        with mp.workdps(60):
            pi = mp.pi
            for r in (1, 2, 3):
                n = 2 * r
                if m == 2:
                    denom = mp.mpf(2) ** (2 * n + 1) + 2 ** n - 1
                    pref = mp.mpf(2) ** (2 * n + 1) / denom
                else:
                    denom = mp.mpf(3) ** n * (2 ** n + 1) + 2 ** n - 1
                    pref = mp.mpf(2) ** (n + 1) * 3 ** n / denom
                head = sum((-1) ** (k - 1) * pref * (pi / m) ** (2 * k)
                           / factorial(2 * k) * refs[r - k] for k in range(1, r))
                h = harmonic(n)
                log = ((-1) ** (r - 1) * mp.mpf(2) ** (n + 1) * pi ** n
                       / (denom * factorial(n))
                       * (mp.mpf(h.numerator) / h.denominator - mp.log(pi / m)))
                res = mp.mpf(0)
                for k in range(1, 200):
                    z = zeta_even(k, "thm12").eval(60)
                    t = (2 * (2 * pi) ** n * z * factorial(2 * k)
                         / (denom * k * mp.mpf(2 * m) ** (2 * k) * factorial(n + 2 * k)))
                    res += t
                    if t < mp.mpf(10) ** -55:
                        break
                refs[r] = head + log + (-1) ** (r - 1) * res
                a = zeta_odd(r, method, CTX40)
                assert abs(a.value - refs[r]) <= a.tail_bound, r

    def test_both_names_of_a_theorem_share_one_sweep(self, monkeypatch):
        from trigsum import dirichlet
        sums = []
        summer = dirichlet._residual_sum

        def counted(*args):
            sums.append(1)
            return summer(*args)

        monkeypatch.setattr(dirichlet, "_residual_sum", counted)
        monkeypatch.setattr(dirichlet, "_ZETA_ODD_LEVELS", {})
        a = zeta_odd(6, "thm15", CTX40)
        assert zeta_odd(6, "thm15-zeta", CTX40) is a
        assert len(sums) == 6

    def test_one_request_enters_zeta_odd_once(self, monkeypatch):
        from trigsum import dirichlet
        calls = []
        public = dirichlet.zeta_odd

        def counted(*args):
            calls.append(args)
            return public(*args)

        monkeypatch.setattr(dirichlet, "zeta_odd", counted)
        monkeypatch.setattr(dirichlet, "_ZETA_ODD_LEVELS", {})
        dirichlet.zeta_odd(12, "thm17", CTX40)
        assert calls == [(12, "thm17", CTX40)]

    def test_levels_kept_per_target(self, monkeypatch):
        # a looser target at the same digits must not answer a later
        # request for the tighter one
        from trigsum import dirichlet
        monkeypatch.setattr(dirichlet, "_ZETA_ODD_LEVELS", {})
        loose = PrecisionContext(digits=50, target=1e-20)
        tight = PrecisionContext.for_digits(50)
        a = zeta_odd(1, "thm15", loose)
        b = zeta_odd(1, "thm15", tight)
        assert a.tail_bound <= loose.target and b.tail_bound <= tight.target
        assert b.terms_used > a.terms_used
        with mp.workdps(60):
            assert abs(b.value - mp.zeta(3)) <= b.tail_bound

    def test_levels_table_is_bounded(self, monkeypatch):
        # a sweep over more (m, digits, target) keys than the bound keeps
        # the bound, the oldest keys dropped; a repeated key within the
        # bound answers with the level it kept
        from trigsum import dirichlet
        monkeypatch.setattr(dirichlet, "_ZETA_ODD_LEVELS", {})
        size = dirichlet._ZETA_ODD_LEVELS_SIZE
        ctxs = [PrecisionContext.for_digits(d) for d in range(20, 20 + size + 3)]
        first = [zeta_odd(1, "thm15", ctx) for ctx in ctxs]
        table = dirichlet._ZETA_ODD_LEVELS
        assert len(table) == size
        assert [digits for _, digits, _ in table] == list(range(23, 23 + size))
        assert all(zeta_odd(1, "thm15", ctx) is a
                   for ctx, a in zip(ctxs[3:], first[3:]))
        assert len(table) == size and (2, 20, ctxs[0].target) not in table

    def test_stepped_harmonic_leaves_levels_unchanged(self, monkeypatch):
        # the sweep steps H_2q from level to level.  One sweep to r = 60
        # and sixty one-level extensions (each restarting from
        # exact.harmonic) give the same levels, and their listing is the
        # one the sweep gave when it called exact.harmonic(2q) per level
        from trigsum import dirichlet
        ctx = PrecisionContext.for_digits(30)
        lines = []
        for method in ("thm15", "thm17"):
            monkeypatch.setattr(dirichlet, "_ZETA_ODD_LEVELS", {})
            zeta_odd(60, method, ctx)
            (whole,) = dirichlet._ZETA_ODD_LEVELS.values()
            monkeypatch.setattr(dirichlet, "_ZETA_ODD_LEVELS", {})
            stepped = [zeta_odd(r, method, ctx) for r in range(1, 61)]
            assert list(whole) == stepped
            lines += [f"{method} {r} {mp.nstr(a.value, 30)} "
                      f"{mp.nstr(a.tail_bound, 3)} {a.terms_used}"
                      for r, a in enumerate(whole, 1)]
        assert lines[0] == "thm15 1 1.20205690315959428539959947455 1.75e-22 14"
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "c1e67d77d10548a4a5dc041e3ef8a779ccc5e7cfa6007fffe5efddc9b84c8421")

    @pytest.mark.parametrize("method", ZETA_ODD_METHODS)
    def test_terms_used_counts_each_residual_sum_once(self, method, monkeypatch):
        # level r adds its own residual terms to the total of level r - 1,
        # which already holds every level below it
        from trigsum import dirichlet
        own = []
        summer = dirichlet._residual_sum

        def recorded(*args, **kwargs):
            out = summer(*args, **kwargs)
            own.append(out[2])
            return out

        monkeypatch.setattr(dirichlet, "_residual_sum", recorded)
        monkeypatch.setattr(dirichlet, "_ZETA_ODD_LEVELS", {})
        ctx = PrecisionContext.for_digits(30)
        totals = [0] + [zeta_odd(r, method, ctx).terms_used for r in range(1, 41)]
        assert len(own) == 40      # one residual sum per level, in order of r
        assert [totals[r] - totals[r - 1] for r in range(1, 41)] == own

    def test_terms_used_grows_at_most_quadratically(self):
        ctx = PrecisionContext.for_digits(100)
        first = zeta_odd(1, "thm15", ctx).terms_used
        for r in (10, 50, 150):
            assert zeta_odd(r, "thm15", ctx).terms_used <= first * r * r, r

    def test_eta_odd(self):
        with mp.workdps(45):
            a = eta_odd(1, CTX40)
            assert abs(a.value - mp.mpf(3) / 4 * mp.mpf(ZETA3)) < 1e-24
            b = eta_odd(2, CTX40)
            assert abs(b.value - mp.mpf(15) / 16 * mp.mpf(ZETA5)) < 1e-24
            ref = dirichlet_oracle("eta", 3, CTX40)
            assert abs(a.value - ref.value) < 1e-20


class TestResidualSumIntegers:
    """_residual_sum on integer terms counting units of one fixed-point
    scale, as the registry's residual series gives them."""

    ONE = 1 << 200

    def test_geometric_sum(self):
        from itertools import count

        from trigsum.dirichlet import _residual_sum
        terms = (self.ONE >> 3 * k for k in count(1))     # ratio 1/8
        target = self.ONE >> 60
        total, bound, used = _residual_sum(terms, target)
        # the first term t with 8 t <= target is ONE >> 63, the 21st
        assert used == 20 and isinstance(total, int)
        assert total == sum(self.ONE >> 3 * k for k in range(1, 21))
        with mp.workprec(300):
            tail = mp.mpf(self.ONE) / 7 - total      # sum_k>=1 8^-k = 1/7
            assert 0 < tail <= bound <= mp.mpf(target) / 6

    def test_ratio_cap_exact_on_integers(self):
        from trigsum.dirichlet import _residual_sum
        total, _, used = _residual_sum(iter([100, 25, 0]), 0)
        assert (total, used) == (125, 2)    # a ratio of exactly 1/4 passes
        with pytest.raises(PrecisionError, match="ratio 0.260 exceeded cap"):
            _residual_sum(iter([100, 26, 0]), 0)


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

    def test_zeta_is_hurwitz_at_one(self):
        # identity_checks takes zeta(s) as zeta(s, 1): the same bits
        for s in (2, 3, 4, 5, 7):
            assert hurwitz_zeta(s, F(1), CTX40) == dirichlet_oracle("zeta", s, CTX40)

    def test_multiplication_sums_each_value_once(self, monkeypatch):
        import trigsum.dirichlet as dirichlet
        calls = []
        weighted_sum = dirichlet._weighted_sum

        def counted(name, parts, s, scale, ctx):
            calls.append((s, parts[0][1]))
            return weighted_sum(name, parts, s, scale, ctx)

        monkeypatch.setattr(dirichlet, "_weighted_sum", counted)
        got = identity_checks("multiplication", CTX40)
        assert len(calls) == len(set(calls)) == 28
        monkeypatch.undo()
        # the residuals again, from one hurwitz_zeta call per (s, a)
        z = {(s, a): hurwitz_zeta(s, a, CTX40).value for s, a in calls}
        want = []
        with mp.workdps(40):
            for m in (2, 3):
                for s in (2, 3, 4, 5):
                    lhs = mp.mpf(m) ** s * z[s, 1]
                    rhs = mp.fsum(z[s, F(k, m)] for k in range(1, m + 1))
                    want.append((f"mult-m{m}-s{s}", float(abs(lhs - rhs))))
            for m, a in ((2, F(1, 2)), (3, F(1, 3))):
                for s in (2, 3, 4, 5):
                    lhs = mp.fsum(z[s, a + F(k, m)] for k in range(m))
                    rhs = mp.mpf(m) ** s * z[s, m * a]
                    want.append((f"mult-shift-m{m}-s{s}", float(abs(lhs - rhs))))
            for s in (2, 3, 4, 5):
                lhs = z[s, F(1, 3)] + z[s, F(2, 3)]
                rhs = (mp.mpf(3) ** s - 1) * z[s, 1]
                want.append((f"thirds-a-s{s}", float(abs(lhs - rhs))))
                lhs = z[s, F(2, 3)] + z[s, F(4, 3)]
                rhs = mp.mpf(3) ** s * (z[s, 1] - 1) - z[s, 1]
                want.append((f"thirds-b-s{s}", float(abs(lhs - rhs))))
            for s in (2, 3, 4, 5):
                a = F(1, 2)
                phi = mp.mpf(2) ** (-s) * (z[s, a / 2] - z[s, (a + 1) / 2])
                lhs = z[s, a] + phi
                rhs = mp.mpf(2) ** (1 - s) * z[s, a / 2]
                want.append((f"lerch-half-s{s}", float(abs(lhs - rhs))))
        assert got == want


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


def _mpf(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


class TestOneWeightedSum:
    """Every series the oracle evaluates is one weighted sum, convergent at
    s >= 2 and at s = 1 when the weights sum to zero; the references here
    are mpmath's digamma and Hurwitz zeta."""

    S1_NAMES = [name for name, p in ORACLE_SERIES.items()
                if sum(w for _, w in p.weights) == 0]

    @pytest.mark.parametrize("digits", [30, 100, 300])
    def test_s1_patterns_against_digamma(self, digits):
        # sum_r w_r sum_k 1/(k + r/P) = -sum_r w_r psi(r/P) when sum w = 0
        assert {"cos_pi3", "cos_2pi3"} <= set(self.S1_NAMES)
        ctx = PrecisionContext.for_digits(digits)
        for name in self.S1_NAMES:
            pattern = ORACLE_SERIES[name]
            got = dirichlet_oracle(name, 1, ctx)
            assert got.tail_bound <= ctx.target, name
            with mp.workdps(digits + 20):
                P = pattern.period
                ref = -(pattern.scale_value() / P * mp.fsum(
                    _mpf(w) * mp.digamma(mp.mpf(r) / P)
                    for r, w in pattern.weights))
                assert abs(got.value - ref) <= got.tail_bound, name

    @pytest.mark.parametrize("digits", [30, 100])
    @pytest.mark.parametrize("s", [2, 3, 7])
    def test_patterns_against_hurwitz_zeta(self, digits, s):
        ctx = PrecisionContext.for_digits(digits)
        for name, pattern in ORACLE_SERIES.items():
            got = dirichlet_oracle(name, s, ctx)
            assert got.tail_bound <= ctx.target, name
            with mp.workdps(digits + 20):
                P = pattern.period
                ref = pattern.scale_value() * mp.mpf(P) ** (-s) * mp.fsum(
                    _mpf(w) * mp.zeta(s, mp.mpf(r) / P)
                    for r, w in pattern.weights)
                assert abs(got.value - ref) <= got.tail_bound, name
        for a in (F(1, 3), F(7, 4)):
            got = hurwitz_zeta(s, a, ctx)
            with mp.workdps(digits + 20):
                assert abs(got.value - mp.zeta(s, _mpf(a))) <= got.tail_bound

    def test_terms_count_every_direct_term(self):
        ctx = PrecisionContext.for_digits(40)
        one = dirichlet_oracle("zeta", 3, ctx).terms_used
        assert dirichlet_oracle("calD", 3, ctx).terms_used == 4 * one
        assert dirichlet_oracle("eta", 1, ctx).terms_used == 2 * one

    def test_nonzero_weight_sum_refused_at_s1(self):
        # a custom pattern, the named series and a Hurwitz sum alike
        pattern = PeriodicPattern(3, ((1, F(1)), (2, F(-1, 2))))
        with pytest.raises(PrecisionError, match="s = 1"):
            dirichlet_oracle(pattern, 1, CTX40)
        for name in ("zeta", "lambda"):
            with pytest.raises(PrecisionError, match="s = 1"):
                dirichlet_oracle(name, 1, CTX40)
        with pytest.raises(PrecisionError, match="s = 1"):
            dirichlet_oracle("hurwitz", 1, CTX40, a=F(1, 3))

    @pytest.mark.parametrize("s", [0, -1, -4])
    def test_s_at_most_zero_refused(self, s):
        for name in ORACLE_SERIES:
            with pytest.raises(PrecisionError, match=f"s = {s}"):
                dirichlet_oracle(name, s, CTX40)
        with pytest.raises(PrecisionError, match=f"s = {s}"):
            hurwitz_zeta(s, F(1, 2), CTX40)
