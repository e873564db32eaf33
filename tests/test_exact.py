"""Exact rational engine: golden values and cross-recurrence agreement."""

from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from trigsum import exact
from trigsum.exact import (PiPolynomial, bernoulli_star, beta_odd, calD,
                           eta_even, euler_number, frakD, harmonic,
                           lambda_even, zeta_even)

F = Fraction


class TestSequences:
    def test_bernoulli_star_golden(self):
        assert bernoulli_star(1) == F(1, 6)
        assert bernoulli_star(2) == F(1, 30)
        assert bernoulli_star(3) == F(1, 42)
        assert bernoulli_star(4) == F(1, 30)
        assert bernoulli_star(5) == F(5, 66)

    def test_euler_numbers(self):
        assert euler_number(0) == 1
        assert euler_number(2) == -1
        assert euler_number(4) == 5
        assert euler_number(6) == -61
        assert euler_number(8) == 1385

    def test_euler_recurrence_holds(self):
        from math import comb
        for r in range(1, 21):
            total = sum(comb(2 * r, 2 * k) * euler_number(2 * r - 2 * k)
                        for k in range(r))
            assert total == -1, r

    def test_bernoulli_star_matches_mpmath(self):
        for k in range(1, 401):
            p, q = mp.bernfrac(2 * k)
            assert bernoulli_star(k) == abs(F(int(p), int(q))), k

    def test_bernoulli_star_solves_triangular_system(self):
        # the defining system of the docstring
        from math import comb
        for r in range(1, 61):
            total = sum((-1) ** j * comb(2 * r + 1, 2 * j + 1) * bernoulli_star(j + 1)
                        for j in range(r))
            assert total == F(1, 2), r

    def test_euler_number_matches_mpmath(self):
        for n in range(0, 301, 2):
            assert euler_number(n) == int(mp.eulernum(n, exact=True)), n

    def test_zigzag_table_concurrent_growth(self):
        # threads that extend one table at once must leave the values that
        # one thread computes; a lost or doubled row update would shift them
        import sys
        import threading
        from trigsum.exact import _ZigzagTable
        want = _ZigzagTable()
        want[300]
        table = _ZigzagTable()
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

    def test_euler_rejects_odd(self):
        with pytest.raises(ValueError):
            euler_number(3)

    def test_harmonic(self):
        assert harmonic(1) == 1
        assert harmonic(2) == F(3, 2)
        assert harmonic(4) == F(25, 12)
        # against a direct sum, a larger call first, so that no state it
        # leaves can change a smaller value
        for m in (300, 1, 7, 60, 299, 301):
            assert harmonic(m) == sum(F(1, k) for k in range(1, m + 1)), m


class TestZetaFamily:
    def test_zeta_even_golden(self):
        assert zeta_even(1).coeffs == {2: F(1, 6)}
        assert zeta_even(2).coeffs == {4: F(1, 90)}
        assert zeta_even(3).coeffs == {6: F(1, 945)}

    def test_three_paths_identical(self):
        for r in range(1, 16):
            a = zeta_even(r, "euler")
            assert a == zeta_even(r, "thm12") == zeta_even(r, "thm13"), r

    def test_eta_even(self):
        assert eta_even(1).coeffs == {2: F(1, 12)}
        assert eta_even(2).coeffs == {4: F(7, 720)}
        for r in range(1, 11):
            classical = zeta_even(r).scale(1 - F(1, 2 ** (2 * r - 1)))
            assert eta_even(r) == classical, r

    def test_lambda_even(self):
        assert lambda_even(1).coeffs == {2: F(1, 8)}
        assert lambda_even(2).coeffs == {4: F(1, 96)}
        assert lambda_even(3).coeffs == {6: F(1, 960)}

    def test_lambda_recurrence(self):
        # sum_k (-1)^k (pi/2)^(2k) lambda(2r-2k)/(2k)! == (-1)^(r-1)(pi/2)^(2r)/(2(2r-1)!)
        from math import factorial
        for r in range(1, 13):
            acc = PiPolynomial()
            for k in range(r):
                acc = acc + lambda_even(r - k).shift_pi(2 * k).scale(
                    F((-1) ** k, factorial(2 * k) * 4 ** k))
            rhs = PiPolynomial.monomial(
                F((-1) ** (r - 1), 2 * factorial(2 * r - 1) * 4 ** r), 2 * r)
            assert acc == rhs, r

    def test_beta_odd(self):
        assert beta_odd(0).coeffs == {1: F(1, 4)}
        assert beta_odd(1).coeffs == {3: F(1, 32)}
        assert beta_odd(2).coeffs == {5: F(5, 1536)}

    def test_beta_recurrence(self):
        # sum_k (-1)^k (pi/2)^(2k) beta(2r+1-2k)/(2k)! == (-1)^(r-1)(pi/4)(pi/2)^(2r)/(2r)!
        from math import factorial
        for r in range(1, 13):
            acc = PiPolynomial()
            for k in range(r):
                acc = acc + beta_odd(r - k).shift_pi(2 * k).scale(
                    F((-1) ** k, factorial(2 * k) * 4 ** k))
            rhs = PiPolynomial.monomial(
                F((-1) ** (r - 1), 4 * factorial(2 * r) * 4 ** r), 2 * r + 1)
            assert acc == rhs, r

    def test_frakD_golden(self):
        assert frakD(1).coeffs == {2: F(1, 16)}
        assert frakD(2).coeffs == {4: F(11, 1536)}
        assert frakD(3).coeffs == {6: F(361, 491520)}

    def test_frakD_paths_identical(self):
        for r in range(1, 13):
            assert frakD(r, "lambda") == frakD(r, "zeta"), r

    def test_calD_golden(self):
        assert calD(0).coeffs == {1: F(1, 4)}
        assert calD(1).coeffs == {3: F(3, 128)}
        assert calD(2).coeffs == {5: F(57, 24576)}
        assert calD(3).coeffs == {7: F(307, 1310720)}

    def test_calD_paths_identical(self):
        for r in range(13):
            assert calD(r, "direct") == calD(r, "beta"), r

    def test_calD_lambda_identity(self):
        # sum_{k} (-1)^k (pi/4)^(2k+1) calD(2r-1-2k)/(2k+1)! == lambda(2r)/2
        from math import factorial
        for r in range(1, 13):
            acc = PiPolynomial()
            for k in range(r):
                acc = acc + calD(r - 1 - k).shift_pi(2 * k + 1).scale(
                    F((-1) ** k, factorial(2 * k + 1) * 4 ** (2 * k + 1)))
            assert acc == lambda_even(r).scale(F(1, 2)), r


# The recurrences in Fraction arithmetic, term by term as they are stated,
# each giving its rational coefficients for r = 1..n (calD from r = 0): the
# reference for the integer solutions in exact.

def _reference_zeta_even(n, method):
    coeffs = {}
    for rr in range(1, n + 1):
        if method == "thm12":
            acc = F((-1) ** (rr - 1) * rr, factorial(2 * rr + 1))
            for k in range(1, rr):
                acc -= (-1) ** k * coeffs[rr - k] / factorial(2 * k + 1)
        else:
            acc = F((-1) ** (rr - 1) * 4 ** rr * (2 * rr - 1),
                    4 * factorial(2 * rr + 1))
            for k in range(1, rr):
                acc -= (-1) ** k * F(4 ** k) * coeffs[rr - k] / factorial(2 * k + 1)
        coeffs[rr] = acc
    return coeffs


def _reference_eta_even(n):
    coeffs = {}
    for rr in range(1, n + 1):
        acc = F((-1) ** (rr - 1), 2 * factorial(2 * rr + 1))
        for k in range(1, rr):
            acc -= (-1) ** k * coeffs[rr - k] / factorial(2 * k + 1)
        coeffs[rr] = acc
    return coeffs


def _reference_frakD(n, method):
    coeffs = {}
    for rr in range(1, n + 1):
        if method == "lambda":
            acc = lambda_even(rr).coeffs[2 * rr] / 2
        else:
            acc = zeta_even(rr).coeffs[2 * rr] * F(4 ** rr - 1, 2 * 4 ** rr)
        for k in range(1, rr):
            acc -= F((-1) ** k, factorial(2 * k) * 16 ** k) * coeffs[rr - k]
        coeffs[rr] = acc
    return coeffs


def _reference_calD(n):
    coeffs = {0: F(1, 4)}
    for rr in range(1, n + 1):
        acc = beta_odd(rr).coeffs[2 * rr + 1] / 2
        for k in range(1, rr + 1):
            acc -= F((-1) ** k, factorial(2 * k) * 16 ** k) * coeffs[rr - k]
        coeffs[rr] = acc
    return coeffs


REFERENCE_N = 100


class TestScaledRecurrences:
    """Every family and method equals the Fraction recurrence for r <= 100,
    and a wrong right-hand side is caught by an exact division."""

    @pytest.mark.parametrize("method", ["euler", "thm12", "thm13"])
    def test_zeta_even(self, method):
        want = _reference_zeta_even(REFERENCE_N, "thm12" if method == "euler" else method)
        for r in range(1, REFERENCE_N + 1):
            assert zeta_even(r, method).coeffs == {2 * r: want[r]}, r

    def test_eta_even(self):
        want = _reference_eta_even(REFERENCE_N)
        for r in range(1, REFERENCE_N + 1):
            assert eta_even(r).coeffs == {2 * r: want[r]}, r

    @pytest.mark.parametrize("method", ["lambda", "zeta"])
    def test_frakD(self, method):
        want = _reference_frakD(REFERENCE_N, method)
        for r in range(1, REFERENCE_N + 1):
            assert frakD(r, method).coeffs == {2 * r: want[r]}, r

    @pytest.mark.parametrize("method", ["direct", "beta"])
    def test_calD(self, method):
        want = _reference_calD(REFERENCE_N)
        for r in range(REFERENCE_N + 1):
            assert calD(r, method).coeffs == {2 * r + 1: want[r]}, r

    @pytest.mark.parametrize("weight,rhs", [
        (1, lambda j, P: (-1) ** (j - 1) * j * P),                          # thm12
        (4, lambda j, P: (-1) ** (j - 1) * 4 ** (j - 1) * (2 * j - 1) * P),  # thm13
        (1, lambda j, P: (-1) ** (j - 1) * P),                              # eta_even
    ], ids=["thm12", "thm13", "eta"])
    def test_perturbed_odd_rhs_raises(self, weight, rhs):
        # the division by 2j+1 is exact only for the true right-hand side
        P = exact._primorial(41)
        true = [0] + [rhs(j, P) for j in range(1, 21)]
        exact._solve_binomial(true, odd=True, weight=weight)   # no remainder
        for j in (1, 7, 20):
            bad = list(true)
            bad[j] += 1
            with pytest.raises(exact.InexactDivisionError, match=f"row {j}"):
                exact._solve_binomial(bad, odd=True, weight=weight)

    def test_perturbed_scale_raises(self):
        # P Z_j is an integer only when P holds every prime <= 2j+1
        P = exact._primorial(39)        # 41 left out; 2 * 20 + 1 = 41
        rhs = [0] + [(-1) ** (j - 1) * j * P for j in range(1, 21)]
        with pytest.raises(exact.InexactDivisionError, match="row 20"):
            exact._solve_binomial(rhs, odd=True)

    @pytest.mark.parametrize("source,call", [
        ("lambda_even", lambda: frakD(12, "lambda")),
        ("zeta_even", lambda: frakD(12, "zeta")),
        ("beta_odd", lambda: calD(12, "beta")),
    ], ids=["frakD-lambda", "frakD-zeta", "calD-beta"])
    def test_perturbed_even_rhs_raises(self, monkeypatch, source, call):
        # frakD's and calD's right-hand sides must be integers once scaled
        true = getattr(exact, source)

        def perturbed(j, *args):
            value = true(j, *args)
            if j == 7:
                (power, coeff), = value.coeffs.items()
                value = PiPolynomial.monomial(coeff + F(1, 10 ** 40), power)
            return value

        monkeypatch.setattr(exact, source, perturbed)
        with pytest.raises(exact.InexactDivisionError, match="right-hand side 7"):
            call()


class TestPiPolynomial:
    def test_serialization_round_trip(self):
        p = frakD(3)
        assert p.to_json() == '{"terms":[{"power":6,"num":"361","den":"491520"}]}'
        assert PiPolynomial.from_json(p.to_json()) == p

    def test_eval_homomorphism(self):
        a, b = zeta_even(2), lambda_even(1)
        with mp.workdps(40):
            lhs = (a * b).eval(40)
            rhs = a.eval(40) * b.eval(40)
            assert abs(lhs - rhs) < mp.mpf(10) ** -36

    coeff_st = st.dictionaries(st.integers(0, 6),
                               st.fractions(min_value=-10, max_value=10),
                               max_size=4)

    @given(coeff_st, coeff_st, coeff_st)
    @settings(max_examples=100, deadline=None)
    def test_ring_axioms(self, ca, cb, cc):
        a, b, c = PiPolynomial(ca), PiPolynomial(cb), PiPolynomial(cc)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + PiPolynomial() == a

    def test_no_zero_coefficients_stored(self):
        p = PiPolynomial({2: F(1, 2)}) - PiPolynomial({2: F(1, 2)})
        assert p.coeffs == {} and p.is_zero()
