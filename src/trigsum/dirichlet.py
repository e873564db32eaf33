"""High-precision evaluation of Dirichlet-type series.

Two independent layers live here.

The *oracle* layer sums series brute force: a direct partial sum plus an
Euler-Maclaurin tail for monotone integrands ((n+a)^(-s) blocks), with the
(+ + - -)-signed odd-denominator series split into residue classes mod 8
(equivalently, summed in blocks of four) so every block is monotone.  The
E-M remainder is bounded by the first omitted correction term, valid
because (x+a)^(-s) is completely monotone; the local Bernoulli numbers come
from the classical binomial recurrence, independent of everything else in
the package.

The *series-representation* layer evaluates the fast-converging expansions
of zeta at odd integers: residual series whose terms carry
(2k)!/(2r+2k)! factorial decay, truncated when the verified geometric term
ratio pushes the tail below the requested target.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, inf
from typing import Callable, Dict, List, Tuple

import mpmath as mp

from .exact import bernoulli_star, harmonic, zeta_even

__all__ = [
    "PrecisionContext",
    "PrecisionError",
    "SeriesApprox",
    "ZETA_ODD_METHODS",
    "zeta_odd",
    "eta_odd",
    "hurwitz_zeta",
    "dirichlet_oracle",
    "identity_checks",
    "ORACLE_SERIES",
]

GUARD_DIGITS = 10


class PrecisionError(ValueError):
    """The working precision cannot support the requested target error."""


@dataclass(frozen=True)
class PrecisionContext:
    """Explicit working precision: decimal digits and target absolute error.

    digits must exceed ceil(-log10(target)) by at least 10 guard digits;
    a context that cannot deliver its target is refused at construction.
    The logarithm is taken of the decimal the float target stands for (its
    shortest round-trip form), exactly and whatever the ambient mpmath
    precision: 10.0**-60 lies just below 1e-60 but needs 60 digits.
    """
    digits: int
    target: float

    def __post_init__(self):
        if not 0 < self.target < inf:
            raise PrecisionError(
                f"target {self.target} is not a positive finite error")
        needed = _target_decimals(self.target) + GUARD_DIGITS
        if self.digits < needed:
            raise PrecisionError(
                f"{self.digits} digits cannot support target {self.target}"
                f" (need >= {needed})")

    @classmethod
    def for_target(cls, target: float) -> "PrecisionContext":
        return cls(digits=_target_decimals(target) + GUARD_DIGITS, target=target)

    @classmethod
    def for_digits(cls, digits: int) -> "PrecisionContext":
        if digits <= GUARD_DIGITS:
            raise PrecisionError(f"need more than {GUARD_DIGITS} digits")
        return cls(digits=digits, target=10.0 ** -(digits - GUARD_DIGITS))


def _target_decimals(target: float) -> int:
    """ceil(-log10(target)) of the shortest decimal that rounds to the float
    target: m * 10^e with 1 <= m < 10 gives -e."""
    return -Decimal(repr(float(target))).adjusted()


@dataclass(frozen=True)
class SeriesApprox:
    """A numeric value with a rigorous truncation majorant."""
    value: mp.mpf
    tail_bound: mp.mpf
    terms_used: int

    def __float__(self):
        return float(self.value)


# ---------------------------------------------------------------------------
# classical Bernoulli numbers, local to the oracle (binomial recurrence)

_B_CLASSICAL: Dict[int, Fraction] = {0: Fraction(1)}


def _bernoulli_classical_even(j: int) -> Fraction:
    """B_{2j} with the classical sign, via sum_{k<m} C(m+1,k) B_k = 0."""
    if 2 * j in _B_CLASSICAL:
        return _B_CLASSICAL[2 * j]
    top = max(_B_CLASSICAL)
    for m in range(top + 1, 2 * j + 1):
        acc = Fraction(0)
        for k in range(0, m):
            if k > 1 and k % 2 == 1:
                continue
            if k == 1:
                acc += Fraction(-comb(m + 1, 1), 2)
            else:
                acc += comb(m + 1, k) * _B_CLASSICAL.get(k, Fraction(0))
        _B_CLASSICAL[m] = -acc / (m + 1)
    return _B_CLASSICAL[2 * j]


# ---------------------------------------------------------------------------
# Euler-Maclaurin tails

def _em_tail_power(s: int, a: mp.mpf, N: int, target: mp.mpf) -> Tuple[mp.mpf, mp.mpf]:
    """(tail, bound) for sum_{n=N}^inf (n+a)^(-s), s >= 2.

    tail = integral + half-term + Bernoulli corrections; the remainder is
    bounded by the first omitted correction since x^(-s) is completely
    monotone.
    """
    base = N + a
    total = base ** (1 - s) / (s - 1) + base ** (-s) / 2
    prev = mp.inf
    j = 1
    while True:
        b2j = _bernoulli_classical_even(j)
        poch = mp.mpf(1)
        for i in range(2 * j - 1):
            poch *= s + i
        term = (mp.mpf(b2j.numerator) / b2j.denominator / factorial(2 * j)
                * poch * base ** (-s - 2 * j + 1))
        if abs(term) > abs(prev):
            return total, abs(term)  # corrections started growing: stop before
        if abs(term) <= target / 8:
            return total + term, abs(term)
        total += term
        prev = term
        j += 1


def _em_tail_log_pair(a: mp.mpf, b: mp.mpf, N: int,
                      target: mp.mpf) -> Tuple[mp.mpf, mp.mpf]:
    """(tail, bound) for sum_{n=N}^inf [(n+a)^(-1) - (n+b)^(-1)]."""
    xa, xb = N + a, N + b
    total = mp.log(xb / xa) + (1 / xa - 1 / xb) / 2
    prev = mp.inf
    j = 1
    while True:
        b2j = _bernoulli_classical_even(j)
        coeff = mp.mpf(b2j.numerator) / b2j.denominator / (2 * j)
        term = coeff * (xa ** (-2 * j) - xb ** (-2 * j))
        cap = abs(coeff) * (xa ** (-2 * j) + xb ** (-2 * j))
        if cap > prev:
            return total, cap
        if cap <= target / 8:
            return total + term, cap
        total += term
        prev = cap
        j += 1


def _hurwitz_sum(s: int, a: Fraction | mp.mpf, ctx: PrecisionContext) -> Tuple[mp.mpf, mp.mpf, int]:
    """sum_{k=0}^inf (k+a)^(-s) via direct sum plus E-M tail."""
    if s < 2:
        raise PrecisionError("power tail requires s >= 2")
    am = _to_mpf(a)
    target = mp.mpf(ctx.target)
    N = max(16, ctx.digits // 2)
    while True:
        direct = mp.fsum((k + am) ** (-s) for k in range(N))
        tail, bound = _em_tail_power(s, am, N, target)
        if bound <= target / 4 or N > 64 * ctx.digits:
            return direct + tail, bound, N
        N *= 2


def _to_mpf(a) -> mp.mpf:
    if isinstance(a, Fraction):
        return mp.mpf(a.numerator) / a.denominator
    return mp.mpf(a)


# ---------------------------------------------------------------------------
# the oracle: periodic-coefficient Dirichlet series

@dataclass(frozen=True)
class PeriodicPattern:
    """sum over n >= 1 of w(n) n^(-s) with w of period P, plus a constant
    prefactor that may be irrational (1/sqrt2 for the signed odd series)."""
    period: int
    weights: Tuple[Tuple[int, Fraction], ...]  # (residue in 1..P, weight)
    scale: str = "1"  # "1" | "inv_sqrt2" | "sqrt3_half"

    def scale_value(self) -> mp.mpf:
        if self.scale == "1":
            return mp.mpf(1)
        if self.scale == "inv_sqrt2":
            return 1 / mp.sqrt(2)
        if self.scale == "sqrt3_half":
            return mp.sqrt(3) / 2
        raise ValueError(self.scale)


ORACLE_SERIES: Dict[str, PeriodicPattern] = {
    "zeta": PeriodicPattern(1, ((1, Fraction(1)),)),
    "eta": PeriodicPattern(2, ((1, Fraction(1)), (2, Fraction(-1)))),
    "lambda": PeriodicPattern(2, ((1, Fraction(1)),)),
    "beta": PeriodicPattern(4, ((1, Fraction(1)), (3, Fraction(-1)))),
    # (-1)^floor(n/2)/(2n-1)^s over n>=1: residues 1,7 positive, 3,5 negative mod 8
    "frakD": PeriodicPattern(8, ((1, Fraction(1)), (3, Fraction(-1)),
                                 (5, Fraction(-1)), (7, Fraction(1))),
                             scale="inv_sqrt2"),
    # (-1)^floor(n/2)/(2n+1)^s over n>=0: residues 1,3 positive, 5,7 negative mod 8
    "calD": PeriodicPattern(8, ((1, Fraction(1)), (3, Fraction(1)),
                                (5, Fraction(-1)), (7, Fraction(-1))),
                            scale="inv_sqrt2"),
    # cos(n pi / 3) / n^s
    "cos_pi3": PeriodicPattern(6, ((1, Fraction(1, 2)), (2, Fraction(-1, 2)),
                                   (3, Fraction(-1)), (4, Fraction(-1, 2)),
                                   (5, Fraction(1, 2)), (6, Fraction(1)))),
    # cos(2 n pi / 3) / n^s
    "cos_2pi3": PeriodicPattern(3, ((1, Fraction(-1, 2)), (2, Fraction(-1, 2)),
                                    (3, Fraction(1)))),
    # sin(2 n pi / 3) / n^s  (up to the sqrt3/2 prefactor)
    "sin_2pi3": PeriodicPattern(3, ((1, Fraction(1)), (2, Fraction(-1))),
                                scale="sqrt3_half"),
    # cos(n pi / 2) / n^s
    "cos_pi2": PeriodicPattern(4, ((2, Fraction(-1)), (4, Fraction(1)))),
}


def _pattern_value(pattern: PeriodicPattern, s: int,
                   ctx: PrecisionContext) -> SeriesApprox:
    P = pattern.period
    scale = pattern.scale_value()
    if s >= 2:
        total = mp.mpf(0)
        bound = mp.mpf(0)
        terms = 0
        for residue, w in pattern.weights:
            val, b, n = _hurwitz_sum(s, Fraction(residue, P), ctx)
            wm = mp.mpf(w.numerator) / w.denominator
            total += wm * val
            bound += abs(wm) * b
            terms += n
        factor = mp.mpf(P) ** (-s)
        return SeriesApprox(+(scale * factor * total),
                            +(abs(scale) * factor * bound), terms)
    if s == 1:
        if sum(w for _, w in pattern.weights) != 0:
            raise PrecisionError("series diverges at s = 1")
        pos = [r for r, w in pattern.weights for _ in range(int(w)) if w > 0]
        neg = [r for r, w in pattern.weights for _ in range(int(-w)) if w < 0]
        if len(pos) != len(neg) or any(w.denominator != 1 for _, w in pattern.weights):
            raise PrecisionError("cannot pair signs for s = 1")
        target = mp.mpf(ctx.target)
        N = max(32, ctx.digits)
        total = mp.mpf(0)
        bound = mp.mpf(0)
        for rp, rn in zip(sorted(pos), sorted(neg)):
            ap, an = mp.mpf(rp) / P, mp.mpf(rn) / P
            direct = mp.fsum(1 / (k + ap) - 1 / (k + an) for k in range(N))
            tail, b = _em_tail_log_pair(ap, an, N, target)
            total += direct + tail
            bound += b
        return SeriesApprox(+(scale * total / P), +(abs(scale) * bound / P), N)
    raise PrecisionError(f"series not convergent for s = {s}")


def dirichlet_oracle(series: str | PeriodicPattern, s: int,
                     ctx: PrecisionContext | None = None,
                     a: Fraction | None = None) -> SeriesApprox:
    """Brute-force reference value of a named Dirichlet series.

    series is one of zeta|eta|lambda|beta|frakD|calD|hurwitz (with offset
    ``a``), one of the cosine/sine coefficient patterns, or a custom
    PeriodicPattern.  Monotone blocks are summed directly with an
    Euler-Maclaurin tail; alternating patterns are paired first.  This path
    shares nothing with the exact recurrences or the closed-form series
    representations.
    """
    ctx = ctx or PrecisionContext.for_digits(30)
    with mp.workdps(ctx.digits):
        if isinstance(series, PeriodicPattern):
            return _pattern_value(series, s, ctx)
        if series == "hurwitz":
            if a is None or a <= 0:
                raise ValueError("hurwitz requires a positive offset a")
            val, bound, n = _hurwitz_sum(s, a, ctx)
            return SeriesApprox(+val, +bound, n)
        pattern = ORACLE_SERIES.get(series)
        if pattern is None:
            raise ValueError(f"unknown series {series!r}")
        if series in ("zeta", "lambda") and s < 2:
            raise PrecisionError(f"{series} diverges at s = {s}")
        return _pattern_value(pattern, s, ctx)


def hurwitz_zeta(s: int, a: Fraction, ctx: PrecisionContext | None = None) -> SeriesApprox:
    """Hurwitz zeta sum_{n>=0} (n+a)^(-s) for integer s >= 2, a > 0."""
    if s < 2:
        raise PrecisionError("hurwitz_zeta requires s >= 2")
    if a <= 0:
        raise ValueError("a must be positive")
    ctx = ctx or PrecisionContext.for_digits(30)
    with mp.workdps(ctx.digits):
        val, bound, n = _hurwitz_sum(s, a, ctx)
        return SeriesApprox(+val, +bound, n)


# ---------------------------------------------------------------------------
# series representations of zeta at odd integers

ZETA_ODD_METHODS = ("thm15", "thm15-zeta", "thm17", "thm17-zeta")

_zeta_odd_cache: Dict[Tuple[int, str, int], SeriesApprox] = {}


def _residual_sum(term_fn: Callable[[int], mp.mpf], target: mp.mpf,
                  ratio_cap: float = 0.25) -> Tuple[mp.mpf, mp.mpf, int]:
    """Sum a positive series with verified geometric decay.

    Consecutive ratios must stay below ratio_cap (they do for all four
    representations: the asymptotic ratio is (pi/2)^2/16 or (pi/3)^2/36
    times a factorial-decay factor; and for the remainder of the registry's
    Thm 16/21 residual series, whose ratio is at most w^2/4 <= 1/4); the
    tail is then bounded by next_term / (1 - ratio_cap).
    """
    total = mp.mpf(0)
    prev = None
    k = 1
    while True:
        t = term_fn(k)
        if prev is not None:
            ratio = t / prev
            if ratio > ratio_cap:
                raise PrecisionError(
                    f"residual-series ratio {float(ratio):.3f} exceeded cap")
        if t <= target / 8:
            bound = t / (1 - mp.mpf(ratio_cap))
            return total, bound, k - 1
        total += t
        prev = t
        k += 1
        if k > 10_000:
            raise PrecisionError("residual series failed to converge")


def zeta_odd(r: int, method: str = "thm15-zeta",
             ctx: PrecisionContext | None = None) -> SeriesApprox:
    """zeta(2r+1) through the fast-converging series representations.

    The four methods pair a pi/2-based and a pi/3-based expansion, each in
    a Bernoulli-number and an even-zeta residual form; lower odd zeta
    values are resolved recursively by the same method and their bounds
    propagated linearly.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if method not in ZETA_ODD_METHODS:
        raise ValueError(f"unknown method {method!r}")
    ctx = ctx or PrecisionContext.for_digits(40)
    key = (r, method, ctx.digits)
    hit = _zeta_odd_cache.get(key)
    if hit is not None:
        return hit
    with mp.workdps(ctx.digits):
        target = mp.mpf(ctx.target)
        pi = +mp.pi
        if method in ("thm15", "thm15-zeta"):
            m = 2
            denom = mp.mpf(2) ** (4 * r + 1) + 2 ** (2 * r) - 1
            head_pref = mp.mpf(2) ** (4 * r + 1) / denom
        else:
            m = 3
            denom = mp.mpf(3) ** (2 * r) * (2 ** (2 * r) + 1) + 2 ** (2 * r) - 1
            head_pref = mp.mpf(2) ** (2 * r + 1) * 3 ** (2 * r) / denom

        head = mp.mpf(0)
        head_bound = mp.mpf(0)
        terms_used = 0
        for k in range(1, r):
            lower = zeta_odd(r - k, method, ctx)
            coeff = head_pref * (pi / m) ** (2 * k) / factorial(2 * k)
            head += (-1) ** (k - 1) * coeff * lower.value
            head_bound += coeff * lower.tail_bound
            terms_used += lower.terms_used

        h2r = harmonic(2 * r)
        log_term = ((-1) ** (r - 1) * mp.mpf(2) ** (2 * r + 1) * pi ** (2 * r)
                    / (denom * factorial(2 * r))
                    * (mp.mpf(h2r.numerator) / h2r.denominator - mp.log(pi / m)))

        if method == "thm15":
            pref = mp.mpf(2) ** (2 * r) * pi ** (2 * r) / denom

            def term(k: int) -> mp.mpf:
                b = bernoulli_star(k)
                return (pref * mp.mpf(b.numerator) / b.denominator
                        / (k * factorial(2 * r + 2 * k)) * (pi / 2) ** (2 * k))
        elif method == "thm15-zeta":
            pref = mp.mpf(2) ** (2 * r + 1) * pi ** (2 * r) / denom

            def term(k: int) -> mp.mpf:
                z2k = zeta_even(k).eval(ctx.digits)
                return (pref * factorial(2 * k) * z2k
                        / (mp.mpf(4) ** (2 * k) * factorial(2 * r + 2 * k) * k))
        elif method == "thm17":
            pref = 4 * (2 * pi) ** (2 * r) / denom

            def term(k: int) -> mp.mpf:
                z2k = zeta_even(k).eval(ctx.digits)
                return (pref * factorial(2 * k - 1) * z2k
                        / (factorial(2 * r + 2 * k) * mp.mpf(6) ** (2 * k)))
        else:
            pref = (2 * pi) ** (2 * r) / denom

            def term(k: int) -> mp.mpf:
                b = bernoulli_star(k)
                return (pref * mp.mpf(b.numerator) / b.denominator
                        * (pi / 3) ** (2 * k) / (factorial(2 * r + 2 * k) * k))

        res_total, res_bound, res_terms = _residual_sum(term, target)
        value = head + log_term + (-1) ** (r - 1) * res_total
        bound = head_bound + res_bound
        out = SeriesApprox(+value, +bound, terms_used + res_terms)
        _zeta_odd_cache[key] = out
        return out


def eta_odd(r: int, ctx: PrecisionContext | None = None,
            method: str = "thm15-zeta") -> SeriesApprox:
    """eta(2r+1) = (2^(2r)-1)/2^(2r) zeta(2r+1); bound scaled identically."""
    if r < 1:
        raise ValueError("r must be >= 1")
    ctx = ctx or PrecisionContext.for_digits(40)
    z = zeta_odd(r, method, ctx)
    with mp.workdps(ctx.digits):
        factor = mp.mpf(2 ** (2 * r) - 1) / 2 ** (2 * r)
        return SeriesApprox(+(factor * z.value), +(factor * z.tail_bound),
                            z.terms_used)


# ---------------------------------------------------------------------------
# auxiliary identity checks

def _zeta_val(s: int, ctx: PrecisionContext) -> mp.mpf:
    return dirichlet_oracle("zeta", s, ctx).value


def _hz(s: int, a: Fraction, ctx: PrecisionContext) -> mp.mpf:
    return hurwitz_zeta(s, a, ctx).value


def identity_checks(group: str, ctx: PrecisionContext | None = None
                    ) -> List[Tuple[str, float]]:
    """Residuals |LHS - RHS| for the multiplication-theorem, shifted-cosine
    and Hurwitz-combination identities at small arguments."""
    ctx = ctx or PrecisionContext.for_digits(40)
    out: List[Tuple[str, float]] = []
    with mp.workdps(ctx.digits):
        if group == "multiplication":
            for m in (2, 3):
                for s in (2, 3, 4, 5):
                    lhs = mp.mpf(m) ** s * _zeta_val(s, ctx)
                    rhs = mp.fsum(_hz(s, Fraction(k, m), ctx)
                                  for k in range(1, m + 1))
                    out.append((f"mult-m{m}-s{s}", float(abs(lhs - rhs))))
            for m, a in ((2, Fraction(1, 2)), (3, Fraction(1, 3))):
                for s in (2, 3, 4, 5):
                    lhs = mp.fsum(_hz(s, a + Fraction(k, m), ctx)
                                  for k in range(m))
                    rhs = mp.mpf(m) ** s * _hz(s, m * a, ctx)
                    out.append((f"mult-shift-m{m}-s{s}", float(abs(lhs - rhs))))
            for s in (2, 3, 4, 5):
                lhs = _hz(s, Fraction(1, 3), ctx) + _hz(s, Fraction(2, 3), ctx)
                rhs = (mp.mpf(3) ** s - 1) * _zeta_val(s, ctx)
                out.append((f"thirds-a-s{s}", float(abs(lhs - rhs))))
                lhs = _hz(s, Fraction(2, 3), ctx) + _hz(s, Fraction(4, 3), ctx)
                rhs = (mp.mpf(3) ** s * (_zeta_val(s, ctx) - 1)
                       - _zeta_val(s, ctx))
                out.append((f"thirds-b-s{s}", float(abs(lhs - rhs))))
            for s in (2, 3, 4, 5):
                # alternating Hurwitz combination (Lerch at z = -1)
                a = Fraction(1, 2)
                phi = mp.mpf(2) ** (-s) * (_hz(s, a / 2, ctx)
                                           - _hz(s, (a + 1) / 2, ctx))
                lhs = _hz(s, a, ctx) + phi
                rhs = mp.mpf(2) ** (1 - s) * _hz(s, a / 2, ctx)
                out.append((f"lerch-half-s{s}", float(abs(lhs - rhs))))
            return out
        if group == "connon":
            for s in (2, 3, 4, 5):
                z = _zeta_val(s, ctx)
                lhs = dirichlet_oracle("cos_pi3", s, ctx).value
                rhs = (mp.mpf(6) ** (1 - s) - mp.mpf(3) ** (1 - s)
                       - mp.mpf(2) ** (1 - s) + 1) / 2 * z
                out.append((f"cos-pi3-s{s}", float(abs(lhs - rhs))))
                lhs = dirichlet_oracle("cos_2pi3", s, ctx).value
                rhs = (mp.mpf(3) ** (1 - s) - 1) / 2 * z
                out.append((f"cos-2pi3-s{s}", float(abs(lhs - rhs))))
                lhs = dirichlet_oracle("sin_2pi3", s, ctx).value
                rhs = mp.sqrt(3) * ((mp.mpf(3) ** (-s) - 1) / 2 * z
                                    + mp.mpf(3) ** (-s) * _hz(s, Fraction(1, 3), ctx))
                out.append((f"sin-2pi3-s{s}", float(abs(lhs - rhs))))
                lhs = dirichlet_oracle("cos_pi2", s, ctx).value
                rhs = mp.mpf(2) ** (-s) * (mp.mpf(2) ** (1 - s) - 1) * z
                out.append((f"cos-pi2-s{s}", float(abs(lhs - rhs))))
            return out
        if group == "corollary3":
            for r in (1, 2, 3):
                s = 2 * r + 1
                lhs = mp.sqrt(3) * (_hz(s, Fraction(1, 3), ctx)
                                    + (1 - mp.mpf(3) ** s) / 2 * _zeta_val(s, ctx))
                rhs = mp.mpf(0)
                for k in range(r):
                    z = zeta_even(r - k).eval(ctx.digits)
                    rhs += ((-1) ** k * (2 * mp.pi) ** (2 * k + 1)
                            * mp.mpf(3) ** (2 * r - 2 * k) / factorial(2 * k + 1) * z)
                rhs += ((-1) ** r * mp.mpf(2) ** (2 * r - 1) * mp.pi ** (2 * r + 1)
                        * (6 * r + 1) / factorial(2 * r + 1))
                out.append((f"hurwitz-thirds-r{r}", float(abs(lhs - rhs))))
            return out
    raise ValueError(f"unknown identity group {group!r}")
