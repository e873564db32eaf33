"""High-precision evaluation of Dirichlet-type series.

Two independent layers live here.

The *oracle* layer sums series brute force, all as one weighted sum
sum_i w_i sum_{k>=0} (k + a_i)^(-s): a periodic pattern is its residues
r/P as offsets with weights w_r, a Hurwitz sum is one part.  The first N
terms of every part are summed directly and one Euler-Maclaurin tail covers
the weighted rest; its remainder is within sum |w| times each part's first
omitted correction, valid because (x+a)^(-s) is completely monotone.  The
sum converges for s >= 2, and at s = 1 when the weights sum to zero; any
other s is refused.  The local Bernoulli numbers come from the classical
binomial recurrence, independent of everything else in the package.

The *series-representation* layer evaluates the fast-converging expansions
of zeta at odd integers, Thm 15 (about pi/2) and Thm 17 (about pi/3):
residual series whose terms carry (pi/m)^(2k)/(2r+2k)! factorial decay,
truncated when the verified geometric term ratio pushes the tail below the
requested target.  The paper writes each residual with B_k* and again with
zeta(2k); the two forms are equal term by term, so one Bernoulli-form
series serves both, and a method name selects only m = 2 or m = 3.
This layer imports ``trigsum.exact`` (B_k*, harmonic numbers) when it
runs, so the oracle alone never loads the exact recurrences.
"""

from __future__ import annotations

import threading
from decimal import Decimal
from fractions import Fraction
from itertools import count
from math import factorial, gcd
from typing import Dict, Iterable, List, NamedTuple, Tuple

import mpmath as mp

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


class PrecisionContext:
    """Explicit working precision: decimal digits and target absolute error.

    digits must exceed ceil(-log10(target)) by at least 10 guard digits;
    a context that cannot deliver its target is refused at construction.
    The target may be given as a float or as a decimal string (for_digits
    passes "1e-<digits - 10>", which no float can hold past 1e-308).  The
    logarithm is taken of the decimal it stands for (a float's shortest
    round-trip form), exactly and whatever the ambient mpmath precision:
    10.0**-60 lies just below 1e-60 but needs 60 digits.  The target is
    then held as a 53-bit mpf, equal to the float where one was given.
    Two contexts are equal, and hash alike, when digits and target are.
    """
    __slots__ = ("digits", "target")

    def __init__(self, digits: int, target):
        decimal = Decimal(str(target))
        if not (decimal.is_finite() and decimal > 0):
            raise PrecisionError(
                f"target {target} is not a positive finite error")
        needed = _target_decimals(decimal) + GUARD_DIGITS
        if digits < needed:
            raise PrecisionError(
                f"{digits} digits cannot support target {target}"
                f" (need >= {needed})")
        self.digits = digits
        self.target = mp.mpf(str(decimal), prec=53)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.digits, self.target) == (other.digits, other.target)

    def __hash__(self):
        return hash((self.digits, self.target))

    def __repr__(self):
        return f"PrecisionContext(digits={self.digits!r}, target={self.target!r})"

    @classmethod
    def for_target(cls, target: float) -> "PrecisionContext":
        return cls(digits=_target_decimals(target) + GUARD_DIGITS, target=target)

    @classmethod
    def for_digits(cls, digits: int) -> "PrecisionContext":
        if digits <= GUARD_DIGITS:
            raise PrecisionError(f"need more than {GUARD_DIGITS} digits")
        return cls(digits=digits, target=f"1e-{digits - GUARD_DIGITS}")


def _target_decimals(target) -> int:
    """ceil(-log10(target)) of the decimal the target stands for (a float's
    shortest round-trip form): m * 10^e with 1 <= m < 10 gives -e."""
    return -Decimal(str(target)).adjusted()


class SeriesApprox(NamedTuple):
    """A numeric value with a rigorous truncation majorant."""
    value: mp.mpf
    tail_bound: mp.mpf
    terms_used: int

    def __float__(self):
        return float(self.value)


# ---------------------------------------------------------------------------
# classical Bernoulli numbers, local to the oracle (binomial recurrence)

class _BernoulliTable:
    """Classical Bernoulli numbers B_0, B_2, B_4, ... from
    sum_{k<=m} C(m+1, k) B_k = 0 at even m, extended on demand.

    B_1 = -1/2 enters once and the odd B_k beyond it are zero, so only the
    even ones are kept, as the integers B_(2i) P over one scale P, the
    product of the primes met so far as m + 1 (von Staudt-Clausen: the
    denominator of B_m divides the product of the primes <= m + 1).  P
    starts at 2, and when m + 1 is prime every integer is multiplied by it
    first; B_m P = -sum_{k<m} C(m+1, k) B_k P / (m + 1) is then a division
    that must be exact, and a remainder raises ArithmeticError.  Extension
    runs under a lock; values are only appended, so readers of an index
    already filled need none.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._scale = 2
        self._scaled = [2]                      # B_(2i) P
        self.values: List[Fraction] = [Fraction(1)]

    def __getitem__(self, i: int) -> Fraction:
        if i >= len(self.values):
            with self._lock:
                self._extend(i)
        return self.values[i]

    def _extend(self, i: int) -> None:
        scaled = self._scaled
        while len(self.values) <= i:
            m = 2 * len(scaled)
            if gcd(self._scale, m + 1) == 1:    # P holds every prime < m + 1
                scaled[:] = [b * (m + 1) for b in scaled]
                self._scale *= m + 1
            P = self._scale
            acc = (1 - m) * (P // 2)    # the k = 0 and k = 1 terms: 1 - (m+1)/2
            binom = (m + 1) * m // 2    # C(m+1, k), stepped two places at a time
            for k in range(2, m, 2):
                acc += binom * scaled[k // 2]
                binom = binom * (m + 1 - k) * (m - k) // ((k + 1) * (k + 2))
            b, rem = divmod(-acc, m + 1)
            if rem:
                raise ArithmeticError(f"B_{m} P: division by {m + 1} is not exact")
            scaled.append(b)
            self.values.append(Fraction(b, P))


# B_{2j} with the classical sign is _B_CLASSICAL[j]
_B_CLASSICAL = _BernoulliTable()


# ---------------------------------------------------------------------------
# the oracle: one weighted Euler-Maclaurin sum

def _to_mpf(a) -> mp.mpf:
    if isinstance(a, Fraction):
        return mp.mpf(a.numerator) / a.denominator
    return mp.mpf(a)


def _em_tail(ws: List[mp.mpf], bases: List[mp.mpf], s: int,
             target: mp.mpf) -> Tuple[mp.mpf, mp.mpf]:
    """(tail, bound) for sum_i w_i sum_{n>=0} (n + b_i)^(-s), b_i > 0.

    tail = integral + half-term + Bernoulli corrections, each the weighted
    sum over the parts.  The integral is sum w b^(1-s) / (s-1), or
    -sum w ln b at s = 1 (where the weights sum to zero).  Correction j is
    B_{2j} sum w g_j(b) with g_j = s(s+1)...(s+2j-2) b^(1-s-2j) / (2j)!,
    each g from the one before, g_1 = s b^(-s-1) / 2.  Each (x + b)^(-s)
    is completely monotone, so its tail lies between the sums through
    corrections j - 1 and j: with or without correction j the error is
    within that correction's size, and the combination's within sum |w|
    times those (the correction's own size when the weights share a sign).
    """
    powers = [b ** (-s) for b in bases]
    if s == 1:
        total = -mp.fdot(ws, [mp.log(b) for b in bases])
    else:
        total = mp.fdot(ws, [p * b for p, b in zip(powers, bases)]) / (s - 1)
    total += mp.fdot(ws, powers) / 2
    gs = [w * s * p / (2 * b) for w, p, b in zip(ws, powers, bases)]  # w g_1
    inv_sq = [1 / (b * b) for b in bases]
    one_sign = all(w >= 0 for w in ws) or all(w <= 0 for w in ws)
    stop = target / 8
    prev = mp.inf
    j = 1
    while True:
        b2j = _B_CLASSICAL[j]
        term = sum(gs) * b2j.numerator / b2j.denominator
        if one_sign:   # sum |g| = |sum g|: one pass fewer per correction
            cap = abs(term)
        else:
            cap = sum(abs(g) for g in gs) * abs(b2j.numerator) / b2j.denominator
        if cap > prev:
            return total, cap   # corrections started growing: stop before
        if cap <= stop:
            return total + term, cap
        total += term
        prev = cap
        j += 1
        num, den = (s + 2 * j - 3) * (s + 2 * j - 2), (2 * j - 1) * 2 * j
        gs = [g * num / den * q for g, q in zip(gs, inv_sq)]


def _weighted_sum(name: str, parts: List[Tuple[Fraction, Fraction]],
                  s: int, scale: mp.mpf, ctx: PrecisionContext) -> SeriesApprox:
    """scale * sum_i w_i sum_{k>=0} (k + a_i)^(-s) over (w_i, a_i > 0).

    The sum converges for s >= 2, and at s = 1 when the weights sum to
    zero; anything else is a PrecisionError naming s.  The first N terms of
    every part are summed directly, at a = p/q as q^s sum (kq + p)^(-s) over
    integers, and one Euler-Maclaurin tail covers the weighted rest, N
    doubling until the tail's bound is within target / 4.  terms_used
    counts every direct term.
    """
    if not (s >= 2 or (s == 1 and sum(w for w, _ in parts) == 0)):
        raise PrecisionError(f"{name} does not converge at s = {s}")
    ws = [scale * _to_mpf(w) for w, _ in parts]
    offsets = [a for _, a in parts]
    target = ctx.target
    N = max(16, ctx.digits // 2)
    while True:
        tail, bound = _em_tail(ws, [N + _to_mpf(a) for a in offsets], s, target)
        if bound <= target / 4:
            break
        if N > 64 * ctx.digits:
            raise PrecisionError(f"{name} at s = {s}: tail bound {bound} "
                                 f"above target {target}")
        N *= 2
    one = mp.mpf(1)
    direct = mp.fdot(ws, [a.denominator ** s * mp.fsum(
        one / (k * a.denominator + a.numerator) ** s for k in range(N))
        for a in offsets])
    return SeriesApprox(+(direct + tail), +bound, N * len(parts))


class PeriodicPattern(NamedTuple):
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


def dirichlet_oracle(series: str | PeriodicPattern, s: int,
                     ctx: PrecisionContext | None = None,
                     a: Fraction | None = None) -> SeriesApprox:
    """Brute-force reference value of a named Dirichlet series.

    series is one of zeta|eta|lambda|beta|frakD|calD|hurwitz (with offset
    ``a``), one of the cosine/sine coefficient patterns, or a custom
    PeriodicPattern.  A pattern of period P is its residues r / P as
    Hurwitz offsets, weighted by w_r, times P^(-s) and its scale, and summed
    as one weighted Euler-Maclaurin sum; it converges for s >= 2, and at
    s = 1 when its weights sum to zero.  This path shares nothing with the
    exact recurrences or the closed-form series representations.
    """
    ctx = ctx or PrecisionContext.for_digits(30)
    if series == "hurwitz":
        return hurwitz_zeta(s, a, ctx)
    if isinstance(series, PeriodicPattern):
        name, pattern = "pattern", series
    else:
        name, pattern = series, ORACLE_SERIES.get(series)
        if pattern is None:
            names = ", ".join(sorted({*ORACLE_SERIES, "hurwitz"}))
            raise ValueError(f"unknown series {series!r}; expected one of {names}")
    P = pattern.period
    with mp.workdps(ctx.digits):
        return _weighted_sum(name, [(w, Fraction(r, P)) for r, w in pattern.weights],
                             s, pattern.scale_value() * mp.mpf(P) ** (-s), ctx)


def hurwitz_zeta(s: int, a: Fraction | None,
                 ctx: PrecisionContext | None = None) -> SeriesApprox:
    """Hurwitz zeta sum_{n>=0} (n+a)^(-s) for integer s >= 2, a > 0: the
    weighted sum with one part, so an s below 2 is a PrecisionError."""
    if a is None or a <= 0:
        raise ValueError("hurwitz requires a positive offset a")
    ctx = ctx or PrecisionContext.for_digits(30)
    with mp.workdps(ctx.digits):
        return _weighted_sum("hurwitz", [(Fraction(1), Fraction(a))], s,
                             mp.mpf(1), ctx)


# ---------------------------------------------------------------------------
# series representations of zeta at odd integers

ZETA_ODD_METHODS = ("thm15", "thm15-zeta", "thm17", "thm17-zeta")

# the largest term ratio _residual_sum accepts (see there)
_RATIO_CAP = Fraction(1, 4)

# zeta(3), zeta(5), ..., zeta(2q+1) as one tuple per (m, digits, target),
# for at most _ZETA_ODD_LEVELS_SIZE keys: a new key past that evicts the
# oldest.  A tuple is only replaced by a longer one, so no caller sees a
# partial one and readers need no lock; stores take the lock, so that two
# new keys cannot both pass the size check.
_ZETA_ODD_LEVELS_SIZE = 64
_ZETA_ODD_LEVELS_LOCK = threading.Lock()
_ZETA_ODD_LEVELS: Dict[Tuple[int, int, mp.mpf], Tuple[SeriesApprox, ...]] = {}


def _residual_sum(terms: Iterable[mp.mpf | int],
                  target: mp.mpf | int) -> Tuple[mp.mpf | int, mp.mpf, int]:
    """Sum a positive series, given as its terms k = 1, 2, ... in order,
    with verified geometric decay.

    Consecutive ratios must stay below _RATIO_CAP = 1/4 (they do for both
    odd-zeta representations: the asymptotic ratio is (pi/2)^2/16 or
    (pi/3)^2/36 times a factorial-decay factor; and for the remainder of
    the registry's Thm 16/21 residual series, whose ratio is at most
    w^2/4 <= 1/4); the sum stops at the first term t <= target / 8, and the
    tail is then bounded by t / (1 - 1/4).  The terms and the target are
    mpfs, or integers counting units of one fixed-point scale; the ratio
    and stop tests multiply by integers only, so they are exact either way.
    """
    cap_num, cap_den = _RATIO_CAP.numerator, _RATIO_CAP.denominator
    total = 0
    prev = None
    for used, t in enumerate(terms):
        if prev is not None and t * cap_den > prev * cap_num:
            raise PrecisionError(
                f"residual-series ratio {float(t / prev):.3f} exceeded cap")
        if 8 * t <= target:
            bound = t * cap_den / mp.mpf(cap_den - cap_num)
            return total, bound, used
        total += t
        prev = t
        if used + 1 >= 10_000:
            raise PrecisionError("residual series failed to converge")


def zeta_odd(r: int, method: str = "thm15-zeta",
             ctx: PrecisionContext | None = None) -> SeriesApprox:
    """zeta(2r+1) through the fast-converging series representations.

    Thm 15 (m = 2) and Thm 17 (m = 3) write zeta(2r+1) as a head over the
    lower odd zeta values, a log term and a residual series with terms
    (2pi)^(2r)/denom times B_k* (pi/m)^(2k) / (k (2r+2k)!), or, in the
    paper's zeta form, 2 zeta(2k) (2k)! / (k (2m)^(2k) (2r+2k)!).  Since
    zeta(2k) = 2^(2k-1) B_k* pi^(2k) / (2k)!, the two forms are equal term
    by term, so the method selects m only: both names of a theorem return
    the same value, summed in the Bernoulli form.  The levels q = 1..r are
    computed in one forward sweep, each head reading the levels below it
    and adding their bounds linearly, and kept per (m, digits, target).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if method not in ZETA_ODD_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of "
                         f"{', '.join(ZETA_ODD_METHODS)}")
    ctx = ctx or PrecisionContext.for_digits(40)
    m = 2 if method.startswith("thm15") else 3
    key = (m, ctx.digits, ctx.target)
    levels = _ZETA_ODD_LEVELS.get(key, ())
    if len(levels) >= r:
        return levels[r - 1]
    from .exact import bernoulli_star, harmonic
    out = list(levels)
    with mp.workdps(ctx.digits):
        target = mp.mpf(ctx.target)
        pi = +mp.pi
        sq = (pi / m) ** 2
        log_pi_m = mp.log(pi / m)
        coeffs = [mp.mpf(1)]            # (pi/m)^(2k) / (2k)!
        for k in range(1, r):
            coeffs.append(coeffs[-1] * sq / ((2 * k - 1) * 2 * k))
        signed = [c if k % 2 else -c for k, c in enumerate(coeffs)]  # (-1)^(k-1)
        h = harmonic(2 * len(out)) if out else Fraction(0)     # H_(2q), stepped
        for q in range(len(out) + 1, r + 1):
            n = 2 * q
            h += Fraction(2 * n - 1, (n - 1) * n)              # 1/(n-1) + 1/n
            if m == 2:
                denom = mp.mpf(2) ** (2 * n + 1) + 2 ** n - 1
                head_pref = mp.mpf(2) ** (2 * n + 1) / denom
            else:
                denom = mp.mpf(3) ** n * (2 ** n + 1) + 2 ** n - 1
                head_pref = mp.mpf(2) ** (n + 1) * 3 ** n / denom

            # out holds the levels below q; level q - k carries coeffs[k]
            lower = out[::-1]
            head = head_pref * mp.fdot(signed[1:q], [a.value for a in lower])
            head_bound = head_pref * mp.fdot(coeffs[1:q],
                                             [a.tail_bound for a in lower])

            log_term = ((-1) ** (q - 1) * mp.mpf(2) ** (n + 1) * pi ** n
                        / (denom * factorial(n))
                        * (mp.mpf(h.numerator) / h.denominator - log_pi_m))

            def terms():
                f = (2 * pi) ** n / denom / factorial(n)
                for k in count(1):
                    f = f * sq / ((n + 2 * k - 1) * (n + 2 * k))
                    b = bernoulli_star(k)
                    yield f * b.numerator / (b.denominator * k)

            res_total, res_bound, res_terms = _residual_sum(terms(), target)
            value = head + log_term + (-1) ** (q - 1) * res_total
            # level q - 1's count already holds every level below it
            terms_below = out[-1].terms_used if out else 0
            out.append(SeriesApprox(+value, +(head_bound + res_bound),
                                    terms_below + res_terms))
    with _ZETA_ODD_LEVELS_LOCK:
        if len(out) > len(_ZETA_ODD_LEVELS.get(key, ())):
            if (key not in _ZETA_ODD_LEVELS
                    and len(_ZETA_ODD_LEVELS) >= _ZETA_ODD_LEVELS_SIZE):
                del _ZETA_ODD_LEVELS[next(iter(_ZETA_ODD_LEVELS))]
            _ZETA_ODD_LEVELS[key] = tuple(out)
    return out[r - 1]


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

def identity_checks(group: str, ctx: PrecisionContext | None = None
                    ) -> List[Tuple[str, float]]:
    """Residuals |LHS - RHS| for the multiplication-theorem, shifted-cosine
    and Hurwitz-combination identities at small arguments.

    Each distinct Hurwitz value zeta(s, a) is summed once per call, with
    zeta(s) taken as zeta(s, 1) (the same weighted sum as the zeta oracle);
    the memo ends with the call, so the oracle itself keeps none."""
    ctx = ctx or PrecisionContext.for_digits(40)
    memo: Dict[Tuple[int, Fraction], mp.mpf] = {}

    def hz(s: int, a: Fraction | int) -> mp.mpf:
        key = (s, Fraction(a))
        if key not in memo:
            memo[key] = hurwitz_zeta(*key, ctx).value
        return memo[key]

    out: List[Tuple[str, float]] = []
    with mp.workdps(ctx.digits):
        if group == "multiplication":
            for m in (2, 3):
                for s in (2, 3, 4, 5):
                    lhs = mp.mpf(m) ** s * hz(s, 1)
                    rhs = mp.fsum(hz(s, Fraction(k, m))
                                  for k in range(1, m + 1))
                    out.append((f"mult-m{m}-s{s}", float(abs(lhs - rhs))))
            for m, a in ((2, Fraction(1, 2)), (3, Fraction(1, 3))):
                for s in (2, 3, 4, 5):
                    lhs = mp.fsum(hz(s, a + Fraction(k, m)) for k in range(m))
                    rhs = mp.mpf(m) ** s * hz(s, m * a)
                    out.append((f"mult-shift-m{m}-s{s}", float(abs(lhs - rhs))))
            for s in (2, 3, 4, 5):
                lhs = hz(s, Fraction(1, 3)) + hz(s, Fraction(2, 3))
                rhs = (mp.mpf(3) ** s - 1) * hz(s, 1)
                out.append((f"thirds-a-s{s}", float(abs(lhs - rhs))))
                lhs = hz(s, Fraction(2, 3)) + hz(s, Fraction(4, 3))
                rhs = mp.mpf(3) ** s * (hz(s, 1) - 1) - hz(s, 1)
                out.append((f"thirds-b-s{s}", float(abs(lhs - rhs))))
            for s in (2, 3, 4, 5):
                # alternating Hurwitz combination (Lerch at z = -1)
                a = Fraction(1, 2)
                phi = mp.mpf(2) ** (-s) * (hz(s, a / 2) - hz(s, (a + 1) / 2))
                lhs = hz(s, a) + phi
                rhs = mp.mpf(2) ** (1 - s) * hz(s, a / 2)
                out.append((f"lerch-half-s{s}", float(abs(lhs - rhs))))
            return out
        if group == "connon":
            for s in (2, 3, 4, 5):
                z = hz(s, 1)
                lhs = dirichlet_oracle("cos_pi3", s, ctx).value
                rhs = (mp.mpf(6) ** (1 - s) - mp.mpf(3) ** (1 - s)
                       - mp.mpf(2) ** (1 - s) + 1) / 2 * z
                out.append((f"cos-pi3-s{s}", float(abs(lhs - rhs))))
                lhs = dirichlet_oracle("cos_2pi3", s, ctx).value
                rhs = (mp.mpf(3) ** (1 - s) - 1) / 2 * z
                out.append((f"cos-2pi3-s{s}", float(abs(lhs - rhs))))
                lhs = dirichlet_oracle("sin_2pi3", s, ctx).value
                rhs = mp.sqrt(3) * ((mp.mpf(3) ** (-s) - 1) / 2 * z
                                    + mp.mpf(3) ** (-s) * hz(s, Fraction(1, 3)))
                out.append((f"sin-2pi3-s{s}", float(abs(lhs - rhs))))
                lhs = dirichlet_oracle("cos_pi2", s, ctx).value
                rhs = mp.mpf(2) ** (-s) * (mp.mpf(2) ** (1 - s) - 1) * z
                out.append((f"cos-pi2-s{s}", float(abs(lhs - rhs))))
            return out
        if group == "corollary3":
            from .exact import zeta_even
            for r in (1, 2, 3):
                s = 2 * r + 1
                lhs = mp.sqrt(3) * (hz(s, Fraction(1, 3))
                                    + (1 - mp.mpf(3) ** s) / 2 * hz(s, 1))
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
