"""The acceptance gate as a library: eight checks covering exact golden
values, cross-recurrence exactness, the odd-zeta representations, the
operator rule table, the worked examples, the identity-registry sweep, the
structural exact operations, and the auxiliary identities.  Each criterion
returns (name, passed, detail); the CLI and the test suite both drive
this module.  A detail names each time gate but not the measured time, so
that it is the same on every run; the CLI reports the times on stderr."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb, factorial
from typing import Callable, List, Tuple

import mpmath as mp
import numpy as np

from . import exact
from .dirichlet import (PrecisionContext, ZETA_ODD_METHODS, dirichlet_oracle,
                        identity_checks, zeta_odd)
from .expr import PI, eval_real, func, parse_expr, symbol
from .mapping import detect_singularities, map_cospow, map_fourier
from .operators import apply_operator, complex_shift_oracle, verify_inverse_system
from .registry import (closed_form_eval, corollary2_integrate, default_suite,
                       endpoint_suite, get_record, integration_successor,
                       partial_sum_eval, poly_derivative, theorem23_shift,
                       verify, verify_endpoint)

F = Fraction

Outcome = Tuple[str, bool, str]

EXAMPLE2_SUM = ("(t/12 - 1/(12*t))*ln(t^2 - t + 1) - (t/6 - 1/(6*t))*ln(1+t)"
                " + (t/4 + 1/(4*t))*(2/sqrt(3))*(arctan((2*t-1)/sqrt(3))"
                " + pi/6) - 1/2")


def criterion_1_exact_golden() -> Outcome:
    t0 = time.perf_counter()
    ok = (exact.frakD(1).coeffs == {2: F(1, 16)}
          and exact.frakD(2).coeffs == {4: F(11, 1536)}
          and exact.frakD(3).coeffs == {6: F(361, 491520)}
          and exact.calD(0).coeffs == {1: F(1, 4)}
          and exact.calD(1).coeffs == {3: F(3, 128)}
          and exact.calD(2).coeffs == {5: F(57, 24576)}
          and exact.calD(3).coeffs == {7: F(307, 1310720)}
          and exact.lambda_even(1).coeffs == {2: F(1, 8)})
    elapsed = time.perf_counter() - t0
    return ("exact-golden-values", ok and elapsed < 1.0,
            "eight golden pi-monomials exact, < 1s")


def criterion_2_cross_recurrences() -> Outcome:
    t0 = time.perf_counter()
    ok = True
    for r in range(1, 16):
        ok &= (exact.zeta_even(r, "euler") == exact.zeta_even(r, "thm12")
               == exact.zeta_even(r, "thm13"))
        ok &= exact.frakD(r, "lambda") == exact.frakD(r, "zeta")
        ok &= exact.calD(r, "direct") == exact.calD(r, "beta")
        ok &= (exact.eta_even(r)
               == exact.zeta_even(r).scale(1 - F(1, 2 ** (2 * r - 1))))
        acc = exact.PiPolynomial()
        for k in range(r):
            acc = acc + exact.beta_odd(r - k).shift_pi(2 * k).scale(
                F((-1) ** k, factorial(2 * k) * 4 ** k))
        ok &= acc == exact.PiPolynomial.monomial(
            F((-1) ** (r - 1), 4 * factorial(2 * r) * 4 ** r), 2 * r + 1)
    for r in range(1, 21):
        ok &= sum(comb(2 * r, 2 * k) * exact.euler_number(2 * r - 2 * k)
                  for k in range(r)) == -1
    elapsed = time.perf_counter() - t0
    return ("cross-recurrence-exactness", ok and elapsed < 1.0,
            "all dual-route recurrences identical for r <= 15, < 1s")


def criterion_3_zeta_odd() -> Outcome:
    t0 = time.perf_counter()
    ctx = PrecisionContext.for_digits(40)
    oracle_ctx = PrecisionContext.for_digits(45)
    ok = True
    notes = []
    with mp.workdps(50):
        for r in (1, 2, 3):
            ref = dirichlet_oracle("zeta", 2 * r + 1, oracle_ctx).value
            approxes = {m: zeta_odd(r, m, ctx) for m in ZETA_ODD_METHODS}
            for m, a in approxes.items():
                if abs(a.value - ref) > mp.mpf("1e-25"):
                    ok = False
                    notes.append(f"r={r} {m} off oracle")
            vals = list(approxes.values())
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    gap = abs(vals[i].value - vals[j].value)
                    if gap > vals[i].tail_bound + vals[j].tail_bound + mp.mpf("1e-38"):
                        ok = False
                        notes.append(f"r={r} method pair gap")
    fast = zeta_odd(1, "thm15-zeta", PrecisionContext.for_target(1e-30))
    if fast.terms_used > 30 or fast.tail_bound > mp.mpf("1e-30"):
        ok = False
        notes.append(f"{fast.terms_used} residual terms")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    return ("zeta-odd-representations", ok,
            f"4 methods x r<=3 agree with the oracle to 1e-25; zeta(3) to "
            f"1e-30 in {fast.terms_used} <= 30 terms; < 5s"
            + ("; " + "; ".join(notes) if notes else ""))


_BOXES = {
    "exp": (0.0, 2.0, 0.05, 1.5), "sin": (0.0, 2.0, 0.05, 1.5),
    "cos": (0.0, 2.0, 0.05, 1.5),
    "tan": (0.1, 1.3, 0.05, 1.0), "cot": (0.1, 1.3, 0.05, 1.0),
    "sec": (0.1, 1.3, 0.05, 1.0), "csc": (0.1, 1.3, 0.05, 1.0),
    "ln": (0.2, 2.0, 0.05, 1.0),
    "arctan": (0.1, 0.6, 0.05, 0.5), "arccot": (0.1, 0.6, 0.05, 0.5),
    "cosh": (0.0, 2.0, 0.05, 1.5), "sinh": (0.0, 2.0, 0.05, 1.5),
    "sqrt": (0.3, 2.0, 0.05, 0.25),
}

_ALGORITHMS = {
    "quotient": ("sin(x)/(2+cos(x))", (0.1, 1.5, 0.05, 0.8)),
    "product": ("sin(x)*exp(x)", (0.1, 1.5, 0.05, 1.0)),
    "composite": ("ln(1+exp(x))", (0.1, 1.0, 0.05, 0.8)),
}


def criterion_4_operator_suite(samples: int = 100) -> Outcome:
    t0 = time.perf_counter()
    rng = random.Random(1234)
    X, H = symbol("x"), symbol("h")
    worst = 0.0
    cases = [(head, func(head, X), box) for head, box in _BOXES.items()]
    cases += [(name, parse_expr(text), box)
              for name, (text, box) in _ALGORITHMS.items()]
    for name, e, (x0, x1, h0, h1) in cases:
        pair = apply_operator(e, X, H)
        count = 0
        while count < samples:
            x, h = rng.uniform(x0, x1), rng.uniform(h0, h1)
            if name in ("arctan", "arccot") and x * x + h * h >= 0.95:
                continue
            count += 1
            re, im = complex_shift_oracle(e, x, h, 20)
            cv = eval_real(pair.cos_part, {"x": x, "h": h}, 20)
            sv = eval_real(pair.sin_part, {"x": x, "h": h}, 20)
            worst = max(worst, abs(float(cv - re)), abs(float(sv - im)))
    pts = [(0.3, 0.2), (0.7, 0.45), (1.4, 0.15)]
    inverses = (
        verify_inverse_system(parse_expr("exp(y)"),
                              apply_operator(func("ln", X), X, H), pts)
        and verify_inverse_system(parse_expr("tan(y)"),
                                  apply_operator(func("arctan", X), X, H),
                                  [(0.2, 0.1), (0.4, 0.3), (0.1, 0.5)])
        and verify_inverse_system(parse_expr("y^2"),
                                  apply_operator(func("sqrt", X), X, H), pts))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and inverses and elapsed < 10.0
    return ("operator-oracle-suite", ok,
            f"{len(cases)} rules/algorithms x {samples} samples, worst "
            f"{worst:.2e} < 1e-12; inverse systems ok; < 10s")


def criterion_5_worked_examples() -> Outcome:
    rep1 = verify("example1-cospow", None, N=2000, tol=1e-8,
                  interval=(0.1, float(np.pi) - 0.1))
    rep2 = verify("example2-fourier", None, N=100_000, tol=1e-3,
                  interval=((-np.pi / 3 + 0.1) / np.pi,
                            (np.pi / 3 - 0.1) / np.pi))
    pts1 = [str(p) for p in
            map_cospow(parse_expr("-ln(1-t)"), kind="sin").singular_points]
    e2 = map_fourier(parse_expr(EXAMPLE2_SUM), c=PI, kind="cosine")
    pts2 = [str(p) for p in detect_singularities(e2, window=(F(-1), F(1)))]
    ok = (rep1.passed and rep2.passed and pts1 == ["0", "pi"]
          and pts2 == ["(-1)*pi", "(-1/3)*pi", "1/3*pi", "pi"])
    return ("worked-examples", ok,
            f"grid errors {rep1.max_error:.2e} (tol 1e-8) and "
            f"{rep2.max_error:.2e} (tol 1e-3); singular sets {{0, pi}} and "
            f"{{-pi, -pi/3, pi/3, pi}} exact")


def criterion_6_registry_sweep() -> Outcome:
    t0 = time.perf_counter()
    failures = []
    count = 0
    for entry in default_suite():
        rep = verify(entry.id, entry.r, N=entry.N, tol=entry.tol)
        count += 1
        if not rep.passed:
            failures.append(rep.id)
    for rid, r in endpoint_suite():
        rep = verify_endpoint(rid, r)
        count += 1
        if not rep.passed:
            failures.append(rep.id + "@endpoints")
    ctx = PrecisionContext.for_digits(30)
    closed0 = closed_form_eval("example1-cospow", None, c=float(np.pi),
                               x=0.0, ctx=ctx)
    partial0 = partial_sum_eval("example1-cospow", None, c=float(np.pi),
                                x=0.0, N=2000)
    gibbs_ok = abs(closed0 - partial0) > 10 * 1e-8
    elapsed = time.perf_counter() - t0
    ok = not failures and gibbs_ok and elapsed < 120.0
    return ("identity-registry-sweep", ok,
            f"{count} grid/endpoint checks pass; open-endpoint failure at the "
            "log-series origin confirmed; < 120s"
            + (f"; failures: {failures}" if failures else ""))


def _eval_poly_at(poly, ratio):
    total = exact.PiPolynomial()
    for p, coeff in poly.items():
        total = total + coeff.as_pipoly().shift_pi(p).scale(ratio ** p)
    return total


def criterion_7_structural_checks() -> Outcome:
    ok = True
    for src in ("thm11-cos", "thm18-cos"):
        succ = integration_successor(src)
        for r in range(1, 6):
            ok &= corollary2_integrate(src, r) == get_record(succ).poly(r)
    sh = theorem23_shift("cor6-lambda", F(1, 4))
    ok &= sh.poly(1) == get_record("eq59-lambda-shift").poly(1)
    ok &= sh.poly(2) == get_record("eq69-frakd-poly").poly(2)
    zero = exact.PiPolynomial()
    for r in range(1, 13):
        ok &= _eval_poly_at(get_record("thm11-sin").poly(r), F(1)) == zero
        ok &= _eval_poly_at(get_record("thm11-sin").poly(r), F(2)) == zero
        ok &= _eval_poly_at(get_record("thm18-sin").poly(r), F(1)) == zero
        ok &= _eval_poly_at(get_record("cor5-beta").poly(r), F(1, 2)) == zero
        ok &= _eval_poly_at(get_record("cor6-lambda").poly(r), F(1, 2)) == zero
        ok &= (_eval_poly_at(get_record("cor7-frakd").poly(r), F(1, 4))
               == exact.lambda_even(r).scale(F(1, 2)))
        ok &= (_eval_poly_at(poly_derivative(get_record("cor8-cald").poly(r)),
                             F(1, 4))
               == exact.lambda_even(r).scale(F(-1, 2)))
    return ("structural-exact-checks", ok,
            "termwise integration, quarter-shift polynomials, and "
            "special-value extraction exact for r <= 12")


def criterion_8_auxiliary_identities() -> Outcome:
    ctx = PrecisionContext.for_digits(40)
    residuals = []
    for group in ("multiplication", "connon", "corollary3"):
        residuals.extend(identity_checks(group, ctx))
    worst = max(r for _, r in residuals)
    quad_ok = True
    with mp.workdps(30):
        for m in range(1, 6):
            for xv in (mp.mpf(1) / 2, mp.mpf(1), mp.mpf(2)):
                if m == 1:
                    got = mp.quad(mp.log, [0, xv])
                else:
                    got = mp.quad(lambda t: (xv - t) ** (m - 1) * mp.log(t),
                                  [0, xv]) / factorial(m - 1)
                h = exact.harmonic(m)
                want = (xv ** m / factorial(m)
                        * (mp.log(xv) - mp.mpf(h.numerator) / h.denominator))
                if abs(got - want) > mp.mpf("1e-12"):
                    quad_ok = False
    ok = worst < 1e-15 and quad_ok
    return ("hurwitz-auxiliary-identities", ok,
            f"{len(residuals)} residuals, worst {worst:.2e} < 1e-15; "
            f"iterated log integral matches quadrature to 1e-12 for m <= 5")


ALL_CRITERIA: List[Callable[[], Outcome]] = [
    criterion_1_exact_golden,
    criterion_2_cross_recurrences,
    criterion_3_zeta_odd,
    criterion_4_operator_suite,
    criterion_5_worked_examples,
    criterion_6_registry_sweep,
    criterion_7_structural_checks,
    criterion_8_auxiliary_identities,
]
