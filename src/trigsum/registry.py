"""Catalog of the closed-form trigonometric-series identities.

Each record pairs a series term rule with an exact closed form: a
polynomial in u = pi x / c whose coefficients are Coeffs, maps from an
irrational unit (1, sqrt2, sqrt3, ln 2 or zeta(m) for odd m >= 3) to a
PiPolynomial, so that a coefficient is a sum of rational * unit * pi^K and
exact.PiPolynomial does all its Q[pi] arithmetic; poly_at gives such a
polynomial's exact value at u = ratio * pi.  Where needed, a closed form
adds a u^p * ln(u) term and a residual series with exact rational
coefficients (see ResidualRule).  A Fourier record over a named
Dirichlet series states only its TermSpec (and residual rule): its
polynomial and log term follow from the spec by one Taylor rule
(_taylor_poly), u^(2k+p) carrying (-1)^k D(s-2k-p) / (2k+p)!, plus the
singular term of D's pole.  Records off that rule give poly explicitly.
Because coefficients are exact,
endpoint specialization, termwise integration and the cosh-shift act as
exact rational arithmetic; only log terms, residual tails and the final
grid comparison are numeric.

Grid verification compares the closed form against brute-force partial
sums on interior grids (0.05-period margins around singular points), in
float64 for the documented tolerances (all >= 1e-8) with mpmath behind the
exact coefficients.  Only that float path imports numpy, so the catalog and
the exact evaluations load without it.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count
from math import comb, factorial, isqrt
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Tuple

import mpmath as mp

from . import exact
from .catalog import IDENTITIES
from .dirichlet import (GUARD_DIGITS, ORACLE_SERIES, PeriodicPattern,
                        PrecisionContext, _residual_sum, _to_mpf,
                        dirichlet_oracle)
from .exact import PiPolynomial, bernoulli_star, harmonic

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Coeff",
    "poly_at",
    "IdentityRecord",
    "ResidualRule",
    "VerificationReport",
    "RegistryError",
    "list_identities",
    "get_record",
    "closed_form_eval",
    "partial_sum_eval",
    "verify",
    "corollary2_integrate",
    "theorem23_shift",
    "default_suite",
    "endpoint_suite",
    "suite_reports",
]


class RegistryError(Exception):
    pass


# ---------------------------------------------------------------------------
# exact coefficients

# An irrational unit of the coefficient basis: (name, m), with m the odd
# argument >= 3 of zeta(m) and 0 for the other units.
Unit = Tuple[str, int]
ONE, SQRT2, SQRT3, LN2 = ("1", 0), ("sqrt2", 0), ("sqrt3", 0), ("ln2", 0)

# (m, digits) pairs whose zeta(m) is kept
_ZETA_ODD_CACHE_SIZE = 64


@lru_cache(maxsize=_ZETA_ODD_CACHE_SIZE)
def _zeta_odd_value(m: int, digits: int) -> mp.mpf:
    ctx = PrecisionContext.for_digits(digits + 10)
    return dirichlet_oracle("zeta", m, ctx).value


# each unit's value at the given digits, from its argument m
_UNIT_VALUES: Dict[str, Callable[[int, int], mp.mpf]] = {
    "1": lambda m, digits: mp.mpf(1),
    "sqrt2": lambda m, digits: mp.sqrt(2),
    "sqrt3": lambda m, digits: mp.sqrt(3),
    "ln2": lambda m, digits: mp.log(2),
    "zeta": _zeta_odd_value,
}


class Coeff:
    """An exact value sum_unit unit * P_unit(pi): each irrational unit maps
    to a PiPolynomial, which does the Q[pi] arithmetic."""

    __slots__ = ("parts",)

    def __init__(self, parts: Dict[Unit, PiPolynomial] | None = None):
        self.parts = {unit: p for unit, p in (parts or {}).items() if not p.is_zero()}

    @classmethod
    def of(cls, q, power: int = 0, unit: Unit = ONE) -> "Coeff":
        """q * unit * pi^power."""
        name, m = unit
        known = m >= 3 and m % 2 == 1 if name == "zeta" else name in _UNIT_VALUES and m == 0
        if not known:
            raise ValueError(f"unknown unit {unit!r}")
        return cls({unit: PiPolynomial.monomial(q, power)})

    def __add__(self, other: "Coeff") -> "Coeff":
        out = dict(self.parts)
        for unit, p in other.parts.items():
            out[unit] = out[unit] + p if unit in out else p
        return Coeff(out)

    def scale(self, q) -> "Coeff":
        return Coeff({unit: p.scale(q) for unit, p in self.parts.items()})

    def mul_pi_power(self, j: int) -> "Coeff":
        return Coeff({unit: p.shift_pi(j) for unit, p in self.parts.items()})

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other) -> bool:
        return isinstance(other, Coeff) and self.parts == other.parts

    def __hash__(self):
        return hash(tuple(sorted(self.parts.items())))

    def eval(self, digits: int = 30) -> mp.mpf:
        with mp.workdps(digits):
            total = mp.mpf(0)
            for (name, m), p in sorted(self.parts.items()):
                total += _UNIT_VALUES[name](m, digits) * p.eval(digits)
            return +total

    def __repr__(self):
        return f"Coeff({self.parts})"


def poly_at(poly: Dict[int, Coeff], ratio: Fraction) -> Coeff:
    """The exact value of a closed-form polynomial sum_p c_p u^p at
    u = ratio * pi."""
    total = Coeff()
    for p, coeff in poly.items():
        total = total + coeff.mul_pi_power(p).scale(ratio ** p)
    return total


# ---------------------------------------------------------------------------
# residual series

def _fact_ratio_inv(a: int, b: int) -> mp.mpf:
    """a! / b! for a <= b, as 1 / ((a+1) ... b)."""
    out = mp.mpf(1)
    for i in range(a + 1, b + 1):
        out /= i
    return out


class ResidualRule(NamedTuple):
    """sign * sum_{k>=1} coeff(k) u^(power(k)), the residual series of the
    Thm 16 (alternating=False) and Thm 21 (alternating=True) closed forms,
    with coeff(k) = weight(k) B*_k / (2k (2r+2k)!) > 0, weight(k) = 1 for
    Thm 16 and 4^k - 1 for Thm 21.

    coeff gives the exact rational coefficient (used by the structural
    tests).  In w = u / scale (scale = 2 pi for Thm 16, pi for Thm 21, so
    0 <= w <= 1 on the closed interval) the series is
    sign * scale^(2r) * sum_k c_k f_k w^(2r+2k) with f_k = (2k)! / ((2r+2k)! k)
    and c_k = zeta(2k) (Thm 16) or lambda(2k) (Thm 21).  eval splits c_k = 1 + (c_k - 1):
    the "1" part is closed_part(w), elementary in w; the remainder terms
    (c_k - 1) f_k w^(2r+2k) are positive and their ratio is at most w^2/4,
    since c_k - 1 sums n^(-2k) over n >= 2 (odd n >= 3 for lambda) and
    f_(k+1) < f_k.
    """
    r: int
    alternating: bool

    @property
    def sign(self) -> int:
        return (-1) ** (self.r + self.alternating)

    @property
    def scale(self) -> mp.mpf:
        return +mp.pi if self.alternating else 2 * mp.pi

    def power(self, k: int) -> int:
        return 2 * self.r + 2 * k

    def coeff(self, k: int) -> Fraction:
        weight = 4 ** k - 1 if self.alternating else 1
        return weight * bernoulli_star(k) / (2 * k * factorial(self.power(k)))

    def _c(self, k: int, digits: int) -> mp.mpf:
        value = exact.lambda_even(k) if self.alternating else exact.zeta_even(k)
        return value.eval(digits)

    def _f(self, k: int) -> mp.mpf:
        return _fact_ratio_inv(2 * k, self.power(k)) / k

    def closed_part(self, w: mp.mpf) -> mp.mpf:
        """sum_k f_k w^(2r+2k) = -w^(2r)/(2r-1)! int_0^1 (1-t)^(2r-1)
        ln(1 - w^2 t^2) dt for 0 <= w <= 1, from the Beta integral after one
        polynomial division; (1-w)^(2r) ln(1-w) takes its limit 0 at w = 1."""
        n = 2 * self.r
        total = mp.mpf(0)
        for v in (w, -w):
            if v != 1:
                total += (1 - v) ** n * mp.log(1 - v)
            total -= mp.fsum((-v) ** i * (1 - v) ** (n - i) / i
                             for i in range(1, n + 1))
        return -total / factorial(n)

    def eval(self, u: mp.mpf, eps: mp.mpf) -> mp.mpf:
        """The residual at u to absolute error eps (|u| <= scale): closed_part
        plus the remainder summed by the geometric-ratio summer, whose tail
        bound keeps it within eps / 6.  Guard digits cover the cancellation
        in closed_part, whose terms reach 4^r while the result is scaled by
        scale^(2r) / (2r)!."""
        return self.evaluator(eps)(u)

    def evaluator(self, eps: mp.mpf) -> Callable[[mp.mpf], mp.mpf]:
        """eval at a fixed eps and the current working precision, for many
        u: the factors (c_k - 1) f_k of the remainder are computed once, as
        far as a call first needs them, and kept."""
        dps = mp.mp.dps
        digits = max(dps, int(mp.ceil(-mp.log10(eps)))) + GUARD_DIGITS
        with mp.workdps(digits):
            scale = self.scale ** (2 * self.r)
            budget = eps / scale
        factors: List[mp.mpf] = []

        def remainder(w):
            for k in count(1):
                if k > len(factors):
                    factors.append((self._c(k, digits) - 1) * self._f(k))
                yield factors[k - 1] * w ** self.power(k)

        def at(u: mp.mpf) -> mp.mpf:
            with mp.workdps(dps):
                w = abs(u) / self.scale
                if w > 1 + mp.mpf(10) ** (5 - dps):
                    raise RegistryError(
                        f"residual series needs |u| / scale <= 1, got {mp.nstr(w, 8)}")
                w = min(w, mp.mpf(1))
            with mp.workdps(digits):
                rest, _, _ = _residual_sum(remainder(w), budget)
                return +(self.sign * scale * (self.closed_part(w) + rest))
        return at


# ---------------------------------------------------------------------------
# identity records

@lru_cache(maxsize=32)
def _sign_weights(pattern: PeriodicPattern) -> Tuple[Fraction, ...]:
    """The sign weights w(m) of a pattern, indexed by m mod its period."""
    P = pattern.period
    table = dict(pattern.weights)
    return tuple(table.get(j or P, Fraction(0)) for j in range(P))


class TermSpec(NamedTuple):
    """The n-th series term as one fact: amplitude w(m) m^(-s(r)) times
    cos(m pi x0) for each Theorem 23 shift x0, at frequency m = a n + b.

    ``pattern`` gives the periodic sign weights w over m; its scale carries
    the 1/sqrt2 of the signed odd-denominator series.  ``s`` is the pair
    (s1, s0) of s(r) = s1 r + s0, which is also the decay exponent of the
    amplitudes.  A nonzero ``pole`` p replaces m^(-s) by (m^2 - p^2)^(-s/2)
    for even s, the base 1/(m^2 - 1) of Example 2.
    """
    a: int
    b: int
    pattern: PeriodicPattern
    s: Tuple[int, int]
    shifts: Tuple[Fraction, ...] = ()
    pole: int = 0

    def frequency(self, n):
        return self.a * n + self.b

    def exponent(self, r: int) -> int:
        return self.s[0] * r + self.s[1]

    def amplitude(self, n: range, r: int):
        """The float64 amplitudes of the terms n in a range (grid partial
        sums), whose sign weights tile the first period, since m mod P
        repeats with period P in n."""
        import numpy as np
        P = self.pattern.period
        weights = _sign_weights(self.pattern)
        m = self.frequency(np.arange(n.start, n.stop, dtype=np.float64))
        with mp.workprec(53):  # round each step as float64 does
            scale = float(self.pattern.scale_value())
        period = scale * np.array([float(weights[self.frequency(j) % P])
                                   for j in range(n.start, n.start + P)])
        coef = np.tile(period, -(-len(n) // P))[:len(n)]
        return self._decay(coef, m, r, np.cos, np.pi,
                           [float(x0) for x0 in self.shifts])

    def mp_amplitudes(self, n: range, r: int):
        """(m, amplitude) of each term n in a range at the working precision
        (exact partial sums); the scale and the shifts are converted once,
        each frequency once per term."""
        P = self.pattern.period
        weights = _sign_weights(self.pattern)
        scale, x0s = self.pattern.scale_value(), [_to_mpf(x0) for x0 in self.shifts]
        for j in n:
            freq = self.frequency(j)
            w = weights[freq % P]
            coef = scale * w.numerator
            if w.denominator != 1:
                coef /= w.denominator
            m = mp.mpf(freq)
            yield m, self._decay(coef, m, r, mp.cos, mp.pi, x0s)

    def _decay(self, coef, m, r: int, cos, pi, x0s):
        """coef m^(-s), or coef (m^2 - p^2)^(-s/2) with a pole, times
        cos(m pi x0) for each shift: the amplitude from its weight, in
        float64 or at the working precision."""
        s = self.exponent(r)
        if self.pole:
            amp = coef * (1 / (m * m - self.pole ** 2) ** (s // 2))
        else:
            amp = coef * m ** -s
        for x0 in x0s:
            amp = amp * cos(m * pi * x0)
        return amp


class IdentityRecord:
    """One catalogued identity: series term spec plus exact closed form.

    ``kind`` is fourier, cospow or value, and ``trig`` cos, sin or None.
    Intervals are in units of c (Fourier records, including the pinned
    c = pi examples), closed at both endpoints (``closed``) or at neither;
    ``term`` gives the frequency multiplier of pi x/c and the exact
    amplitude of the n-th term for n >= n_start.  kind "value" records have
    no x-dependence.  Without ``poly`` the closed form (poly and log_term)
    is derived from ``term`` and ``trig``.  Records are equal when all
    their fields are; ``replace`` gives a copy with some fields changed.
    """
    __slots__ = ("id", "label", "kind", "trig", "r_fixed", "interval",
                 "closed", "period", "n_start", "term", "poly", "log_term",
                 "residual", "cos_coeff")

    def __init__(self, id: str, label: str, kind: str, trig: Optional[str],
                 r_fixed: Optional[int],
                 interval: Optional[Tuple[Fraction, Fraction]], closed: bool,
                 period: Fraction, n_start: int, term: TermSpec,
                 poly: Optional[Callable[[int], Dict[int, Coeff]]] = None,
                 log_term: Optional[Callable[[int], Tuple[Coeff, int]]] = None,
                 residual: Optional[Callable[[int], ResidualRule]] = None,
                 cos_coeff: Optional[Callable[[int], Coeff]] = None):
        if poly is None:
            poly, log_term = _taylor_closed_form(term, trig)
        self.id, self.label, self.kind, self.trig = id, label, kind, trig
        self.r_fixed, self.interval, self.closed = r_fixed, interval, closed
        self.period, self.n_start, self.term = period, n_start, term
        self.poly, self.log_term = poly, log_term
        self.residual, self.cos_coeff = residual, cos_coeff

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None   # compared by value, and mutable: never hashed

    def __repr__(self):
        return "IdentityRecord(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"

    def replace(self, **changes) -> "IdentityRecord":
        fields = {name: getattr(self, name) for name in self.__slots__}
        return IdentityRecord(**{**fields, **changes})

    def effective_r(self, r: Optional[int]) -> int:
        if self.r_fixed is not None:
            if r is not None and r != self.r_fixed:
                raise RegistryError(
                    f"record {self.id} has the fixed r = {self.r_fixed}, got r = {r}")
            return self.r_fixed
        if r is None:
            raise RegistryError(f"record {self.id} needs a parameter r")
        if r < 1:
            raise RegistryError(f"record {self.id} needs r >= 1")
        return r


class VerificationReport:
    """One grid or endpoint comparison.  worst_x is the grid point of
    max_error, and partial_s and closed_s the seconds spent on the partial
    sums and on the closed forms: where and why, kept out of the output and
    out of equality and hashing."""
    __slots__ = ("id", "r", "c", "grid", "N", "tol", "max_error", "passed",
                 "worst_x", "partial_s", "closed_s")

    def __init__(self, id: str, r: int, c: float, grid: int, N: int,
                 tol: float, max_error: float, passed: bool,
                 worst_x: Optional[float] = None, partial_s: float = 0.0,
                 closed_s: float = 0.0):
        self.id, self.r, self.c, self.grid, self.N = id, r, c, grid, N
        self.tol, self.max_error, self.passed = tol, max_error, passed
        self.worst_x, self.partial_s, self.closed_s = worst_x, partial_s, closed_s

    def _key(self) -> tuple:
        return (self.id, self.r, self.c, self.grid, self.N, self.tol,
                self.max_error, self.passed, self.worst_x)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "VerificationReport(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"

    def to_json(self) -> str:
        return json.dumps({"id": self.id, "r": self.r, "c": self.c,
                           "N": self.N, "tol": self.tol,
                           "max_error": self.max_error, "pass": self.passed},
                          separators=(",", ":"))

    def csv_row(self) -> str:
        return (f"{self.id},{self.r},{self.c},{self.N},{self.tol},"
                f"{self.max_error},{str(self.passed).lower()}")


# --- closed forms from the term spec ---------------------------------------

_EVEN_VALUES = {"zeta": exact.zeta_even, "eta": exact.eta_even,
                "lambda": exact.lambda_even, "frakD": exact.frakD}
_ODD_VALUES = {"beta": exact.beta_odd, "calD": exact.calD}
_VALUES_AT_0 = {"zeta": Fraction(-1, 2), "eta": Fraction(1, 2),
                "lambda": Fraction(0), "frakD": Fraction(0)}
_POLE_RESIDUES = {"zeta": Fraction(1), "lambda": Fraction(1, 2)}


def _series_value(name: str, t: int) -> Optional[Coeff]:
    """The exact value D(t), t >= 0, of the named Dirichlet series, or None
    where there is none (the pole of zeta at 1, and the parities no record
    reaches)."""
    if t == 0:
        q = _VALUES_AT_0.get(name)
        return None if q is None else Coeff.of(q)
    if t % 2 == 0 and name in _EVEN_VALUES:
        return Coeff({ONE: _EVEN_VALUES[name](t // 2)})
    if t % 2 == 1 and name in _ODD_VALUES:
        return Coeff({ONE: _ODD_VALUES[name](t // 2)})
    if name == "eta" and t == 1:
        return Coeff.of(1, unit=LN2)
    if name == "eta" and t % 2 == 1:   # eta(t) = (1 - 2^(1-t)) zeta(t)
        return Coeff.of(1 - Fraction(1, 2 ** (t - 1)), unit=("zeta", t))
    if name == "zeta" and t % 2 == 1 and t > 1:
        return Coeff.of(1, unit=("zeta", t))
    return None


def _taylor_poly(name: str, term: TermSpec, p: int, r: int) -> Dict[int, Coeff]:
    """The polynomial part of sum_m w(m) m^(-s) cos(m u) (p = 0) or sin (p = 1)
    with w the pattern of the series D: u^(2k+p) carries (-1)^k D(s-2k-p) /
    (2k+p)!, and where D has a pole at 1 with residue rho, s - p even adds
    rho (-1)^floor(s/2) pi u^(s-1) / (2 (s-1)!) and s - p odd (the log case)
    adds rho (-1)^((s-1)/2) H_(s-1) u^(s-1) / (s-1)!.  Powers ascend."""
    s = term.exponent(r)
    out: Dict[int, Coeff] = {}
    for k in range((s - p) // 2 + 1):
        value = _series_value(name, s - 2 * k - p)
        if value is not None and not value.is_zero():
            out[2 * k + p] = value.scale(Fraction((-1) ** k, factorial(2 * k + p)))
    rho = _POLE_RESIDUES.get(name)
    if rho is not None:
        if (s - p) % 2 == 0:
            pole = Coeff.of(rho * (-1) ** (s // 2) / (2 * factorial(s - 1)), 1)
        else:
            pole = Coeff.of(rho * (-1) ** ((s - 1) // 2) * harmonic(s - 1)
                            / factorial(s - 1))
        out[s - 1] = out.get(s - 1, Coeff()) + pole
    return dict(sorted(out.items()))


def _taylor_log(name: str, term: TermSpec, r: int) -> Tuple[Coeff, int]:
    """The u^(s-1) ln(u) term of the log case: rho (-1)^((s+1)/2) / (s-1)!."""
    s = term.exponent(r)
    rho = _POLE_RESIDUES[name]
    return Coeff.of(rho * (-1) ** ((s + 1) // 2) / factorial(s - 1)), s - 1


def _taylor_closed_form(term: TermSpec, trig: Optional[str]):
    """poly and log_term of a Fourier record derived from its term spec."""
    name = next((k for k, v in ORACLE_SERIES.items() if v == term.pattern), None)
    if name is None or trig is None or term.pole or term.shifts or term.s[0] % 2:
        raise RegistryError("a closed form is derived only for a cos or sin "
                            "series of a named Dirichlet pattern with "
                            "n^(-s(r)) amplitudes, s(r) of one parity")
    p = int(trig == "sin")
    log = None
    if name in _POLE_RESIDUES and (term.s[1] - p) % 2:
        log = partial(_taylor_log, name, term)
    return partial(_taylor_poly, name, term, p), log


def _poly_eq56(r: int) -> Dict[int, Coeff]:
    total = Fraction(0)
    for k in range(r):
        lam = exact.lambda_even(r - k).coeffs[2 * (r - k)]
        total += Fraction((-1) ** k, factorial(2 * k)) * Fraction(1, 4 ** (2 * k)) * lam
    total += Fraction((-1) ** r, factorial(2 * r - 1)) * Fraction(1, 4 ** (2 * r))
    return {0: Coeff.of(total, 2 * r, SQRT2)}


def _shifted_poly(poly: Dict[int, Coeff], x0: Fraction) -> Dict[int, Coeff]:
    """Average of the polynomial at u - theta0 and u + theta0, theta0 = x0 pi."""
    out: Dict[int, Coeff] = {}
    for p, coeff in poly.items():
        for j in range(p + 1):
            if (p - j) % 2 != 0:
                continue  # odd shift powers cancel in the average
            shifted = coeff.scale(comb(p, j) * x0 ** (p - j)).mul_pi_power(p - j)
            out[j] = out.get(j, Coeff()) + shifted
    return {p: c for p, c in out.items() if not c.is_zero()}


def _poly_eq69(_r: int) -> Dict[int, Coeff]:
    return {0: Coeff.of(Fraction(5, 768), 4),
            1: Coeff.of(Fraction(1, 128), 3),
            2: Coeff.of(Fraction(-1, 16), 2),
            3: Coeff.of(Fraction(1, 24), 1)}


def _poly_eq70(_r: int) -> Dict[int, Coeff]:
    return {0: Coeff.of(Fraction(11, 1536), 4),
            2: Coeff.of(Fraction(-1, 32), 2)}


def _poly_example1(_r: int) -> Dict[int, Coeff]:
    return {0: Coeff.of(Fraction(1, 2), 1), 1: Coeff.of(-1)}


def _poly_example2(_r: int) -> Dict[int, Coeff]:
    return {0: Coeff.of(Fraction(-1, 2))}


def theorem23_shift(identity_id: str | IdentityRecord,
                    x0: Fraction) -> IdentityRecord:
    """Shifted identity: the term spec gains the shift x0 (in units of c),
    so each amplitude gains the factor cos(m pi x0); the closed form becomes
    the average of the source at x -+ x0 (exact on the pi-monomial
    polynomial part), and the interval shrinks to (a + x0, b - x0)."""
    rec = identity_id if isinstance(identity_id, IdentityRecord) else get_record(identity_id)
    if rec.kind != "fourier" or rec.interval is None:
        raise RegistryError(f"{rec.id} does not support the cosh shift")
    if rec.log_term is not None or rec.residual is not None or rec.cos_coeff is not None:
        raise RegistryError(f"{rec.id} has non-polynomial closed-form parts")
    a, b = rec.interval
    if not (0 <= x0 < (b - a) / 2):
        raise RegistryError(f"x0 = {x0} outside [0, {(b - a) / 2})")
    if x0 == 0:
        return rec
    base_poly = rec.poly
    return rec.replace(
        id=f"{rec.id}@{x0}", label=f"{rec.label} shifted by {x0} c",
        interval=(a + x0, b - x0),
        term=rec.term._replace(shifts=rec.term.shifts + (x0,)),
        poly=lambda rr: _shifted_poly(base_poly(rr), x0))


def _make_records() -> Dict[str, IdentityRecord]:
    """The records, each with the id, kind and label of its catalog row."""
    f = Fraction
    rows = {rid: {"id": rid, "kind": kind, "label": label}
            for rid, kind, label in IDENTITIES}
    zeta, eta, lam, beta, frakD, calD = (ORACLE_SERIES[k] for k in (
        "zeta", "eta", "lambda", "beta", "frakD", "calD"))
    even, odd = (2, 0), (2, 1)   # s(r) = 2r, 2r + 1
    thm16_residual = partial(ResidualRule, alternating=False)
    thm21_residual = partial(ResidualRule, alternating=True)
    cor6 = IdentityRecord(
        **rows["cor6-lambda"], trig="cos", r_fixed=None,
        interval=(f(0), f(1)), closed=True,
        period=f(2), n_start=1, term=TermSpec(2, -1, lam, even))
    records = [
        IdentityRecord(
            **rows["thm11-cos"], trig="cos", r_fixed=None,
            interval=(f(0), f(2)), closed=True,
            period=f(2), n_start=1, term=TermSpec(1, 0, zeta, even)),
        IdentityRecord(
            **rows["thm11-sin"], trig="sin", r_fixed=None,
            interval=(f(0), f(2)), closed=True,
            period=f(2), n_start=1, term=TermSpec(1, 0, zeta, odd)),
        IdentityRecord(
            **rows["thm16-zeta-odd-cos"], trig="cos", r_fixed=None,
            interval=(f(0), f(2)), closed=True,
            period=f(2), n_start=1, term=TermSpec(1, 0, zeta, odd),
            residual=thm16_residual),
        IdentityRecord(
            **rows["thm18-cos"], trig="cos", r_fixed=None,
            interval=(f(-1), f(1)), closed=True,
            period=f(2), n_start=1, term=TermSpec(1, 0, eta, even)),
        IdentityRecord(
            **rows["thm18-sin"], trig="sin", r_fixed=None,
            interval=(f(-1), f(1)), closed=True,
            period=f(2), n_start=1, term=TermSpec(1, 0, eta, odd)),
        IdentityRecord(
            **rows["thm21-eta-odd"], trig="cos", r_fixed=None,
            interval=(f(-1), f(1)), closed=True,
            period=f(2), n_start=1, term=TermSpec(1, 0, eta, odd),
            residual=thm21_residual),
        IdentityRecord(
            **rows["cor5-beta"], trig="cos", r_fixed=None,
            interval=(f(-1, 2), f(1, 2)), closed=True,
            period=f(2), n_start=0, term=TermSpec(2, 1, beta, odd)),
        cor6,
        IdentityRecord(
            **rows["cor7-frakd"], trig="cos", r_fixed=None,
            interval=(f(0), f(1, 4)), closed=True,
            period=f(2), n_start=1, term=TermSpec(2, -1, frakD, even)),
        IdentityRecord(
            **rows["cor8-cald"], trig="cos", r_fixed=None,
            interval=(f(0), f(1, 4)), closed=True,
            period=f(2), n_start=0, term=TermSpec(2, 1, calD, odd)),
        IdentityRecord(
            **rows["eq56-frakd-value"], trig=None, r_fixed=None,
            interval=None, closed=False,
            period=f(2), n_start=1,
            term=TermSpec(2, -1, PeriodicPattern(frakD.period, frakD.weights), even),
            poly=_poly_eq56),
        IdentityRecord(
            **rows["eq69-frakd-poly"], trig="cos", r_fixed=2,
            interval=(f(1, 4), f(3, 4)), closed=True,
            period=f(2), n_start=1, term=TermSpec(2, -1, frakD, even),
            poly=_poly_eq69),
        IdentityRecord(
            **rows["eq70-frakd-poly"], trig="cos", r_fixed=2,
            interval=(f(0), f(1, 4)), closed=True,
            period=f(2), n_start=1, term=TermSpec(2, -1, frakD, even),
            poly=_poly_eq70),
        IdentityRecord(
            **rows["example1-cospow"], trig="sin", r_fixed=1,
            interval=(f(0), f(1)), closed=False,
            period=f(1), n_start=1, term=TermSpec(1, 0, zeta, (0, 1)),
            poly=_poly_example1),
        IdentityRecord(
            **rows["example2-fourier"], trig="cos", r_fixed=1,
            interval=(f(-1, 3), f(1, 3)), closed=False,
            period=f(2, 3), n_start=1, term=TermSpec(3, 0, eta, even, pole=1),
            poly=_poly_example2,
            cos_coeff=lambda r: Coeff.of(Fraction(1, 9), 1, SQRT3)),
        IdentityRecord(
            **rows["lemma4-sin-log"], trig="sin", r_fixed=0,
            interval=(f(0), f(2)), closed=False,
            period=f(2), n_start=1, term=TermSpec(1, 0, zeta, odd)),
        IdentityRecord(
            **rows["lemma4-sin-alt"], trig="sin", r_fixed=0,
            interval=(f(-1), f(1)), closed=False,
            period=f(2), n_start=1, term=TermSpec(1, 0, eta, odd)),
        IdentityRecord(
            **rows["lemma4-cos-arctan"], trig="cos", r_fixed=0,
            interval=(f(-1, 2), f(1, 2)), closed=False,
            period=f(2), n_start=0, term=TermSpec(2, 1, beta, odd)),
    ]
    records.append(theorem23_shift(cor6, f(1, 4)).replace(
        **rows["eq59-lambda-shift"]))
    return {rec.id: rec for rec in records}


_RECORDS = _make_records()


def list_identities() -> List[IdentityRecord]:
    """The complete immutable catalog."""
    return [_RECORDS[k] for k in sorted(_RECORDS)]


def get_record(identity_id: str) -> IdentityRecord:
    rec = _RECORDS.get(identity_id)
    if rec is None:
        raise RegistryError(f"unknown identity {identity_id!r}")
    return rec


# ---------------------------------------------------------------------------
# evaluation

def closed_form_eval(identity_id: str | IdentityRecord, r: Optional[int],
                     c: float = 1.0, x: float = 0.0,
                     ctx: PrecisionContext | None = None,
                     series_eps: Optional[float | mp.mpf] = None) -> mp.mpf:
    """Exact-coefficient closed form at x: polynomial part at high precision
    plus the log term (limit value 0 at u = 0) and the residual series
    within the precision budget.

    series_eps loosens the residual-series budget below the context target;
    verify passes it as an mpf, since a float tol / 20 underflows to 0.0
    below about 1e-322.  A value record has its value at x = 0 only; any
    other x is a RegistryError."""
    rec = identity_id if isinstance(identity_id, IdentityRecord) else get_record(identity_id)
    if rec.kind == "value" and x != 0:
        raise RegistryError(f"{rec.id} is a value record, defined at x = 0 "
                            f"only, got x = {x}")
    return _closed_form_evaluator(rec, r, c, ctx, series_eps)(x)


def _closed_form_evaluator(rec: IdentityRecord, r: Optional[int], c: float,
                           ctx: PrecisionContext | None,
                           series_eps: Optional[float | mp.mpf]
                           ) -> Callable[[float], mp.mpf]:
    """closed_form_eval as a function of x alone: the closed form and its
    coefficients at the context's digits, and the residual's factors, are
    built once for all the points of a grid."""
    r_eff = rec.effective_r(r)
    ctx = ctx or PrecisionContext.for_digits(30)
    digits = ctx.digits
    with mp.workdps(digits):
        cm = mp.mpf(c)
        poly = [(coeff.eval(digits), p) for p, coeff in rec.poly(r_eff).items()]
        log = None
        if rec.log_term is not None:
            coeff, p = rec.log_term(r_eff)
            log = coeff.eval(digits), p
        residual = None
        if rec.residual is not None:
            eps = mp.mpf(series_eps) if series_eps is not None else mp.mpf(ctx.target)
            residual = rec.residual(r_eff).evaluator(eps)
        cos_coeff = None if rec.cos_coeff is None else rec.cos_coeff(r_eff).eval(digits)
        if rec.interval is not None:
            lo, hi = rec.interval
            eps_edge = mp.mpf(10) ** (-digits + 5)
            lo_edge = mp.mpf(lo.numerator) / lo.denominator - eps_edge
            hi_edge = mp.mpf(hi.numerator) / hi.denominator + eps_edge

    def at(x: float) -> mp.mpf:
        with mp.workdps(digits):
            u = mp.pi * mp.mpf(x) / cm
            if rec.interval is not None:
                ratio = mp.mpf(x) / cm
                if ratio < lo_edge or ratio > hi_edge:
                    raise RegistryError(
                        f"x/c = {float(ratio)} outside the validity interval of {rec.id}")
            total = mp.mpf(0)
            for coeff, p in poly:
                total += coeff * u ** p
            if log is not None and u != 0:
                total += log[0] * u ** log[1] * mp.log(u)
            if residual is not None and u != 0:
                total += residual(abs(u))
            if cos_coeff is not None:
                total += cos_coeff * mp.cos(u)
            return +total
    return at


def partial_sum_eval(identity_id: str | IdentityRecord, r: Optional[int],
                     c: float = 1.0, x: float = 0.0, N: int = 1000,
                     digits: int = 25) -> mp.mpf:
    """Exact-term partial sum at working precision (single point)."""
    rec = identity_id if isinstance(identity_id, IdentityRecord) else get_record(identity_id)
    r_eff = rec.effective_r(r)
    term = rec.term
    with mp.workdps(digits):
        # what no term changes is computed once: pi, pi x/c and, for
        # cospow, cos(pi x/c)
        pi = +mp.pi
        xc = mp.mpf(x) / mp.mpf(c)
        x_pi = pi * xc
        cos_x = mp.cos(x_pi)
        trig = mp.cos if rec.trig == "cos" else mp.sin
        total = mp.mpf(0)
        ns = range(rec.n_start, rec.n_start + N)
        for n, (m, amp) in zip(ns, term.mp_amplitudes(ns, r_eff)):
            if rec.kind == "value":
                total += amp
            elif rec.kind == "cospow":
                total += amp * mp.sin(m * x_pi) * cos_x ** n
            else:
                total += amp * trig(m * pi * xc)
        return +total


# ---------------------------------------------------------------------------
# grid verification

# verify's default number of grid points, the share of a period that its
# default grid leaves out at each end of the interval, and the digits at
# which it evaluates the closed form
DEFAULT_GRID = 50
GRID_MARGIN = 0.05
COMPARE_DIGITS = 30


def _blocks(N: int) -> Tuple[int, int]:
    """The two levels of the grid sums: N terms as K blocks of B,
    B = ceil(sqrt N) and K = ceil(N / B)."""
    B = isqrt(N - 1) + 1
    return B, -(-N // B)


def _series_partial_float(rec: IdentityRecord, r: int, c: float,
                          xs: np.ndarray, N: int) -> np.ndarray:
    """The float64 N-term partial sums at the grid points xs.

    A Fourier record's frequencies m = m0 + a i, i = k B + j, split by angle
    addition into b_k = m0 + a B k and a j, so that with the amplitudes as a
    zero-padded K x B array A, sum amp cos(m t) is
    sum_k cos(b_k t) (A cos(a j t))_k - sin(b_k t) (A sin(a j t))_k (and a
    sine sum takes sin(b_k t) and cos(b_k t) in turn): 2 (B + K) trig
    evaluations per point instead of N.  The products are numpy's own
    einsum loops, not BLAS, whose result would depend on its thread count.
    Beyond the rounding of u |m t| in each angle, which a per-term sum has
    too, the error is the accumulation over B and K terms, about
    (B + K) u sum |amp| with u = 2^-53."""
    import numpy as np
    amp = rec.term.amplitude(range(rec.n_start, rec.n_start + N), r)
    if rec.kind == "value":
        return np.full_like(xs, float(amp.sum()))
    if rec.kind == "cospow":
        n = np.arange(rec.n_start, rec.n_start + N, dtype=np.float64)
        m = rec.term.frequency(n)
        out = np.empty_like(xs)
        for i, x in enumerate(xs):
            out[i] = float(np.sum(amp * np.sin(m * x) * np.power(np.cos(x), n)))
        return out
    B, K = _blocks(N)
    A = np.zeros(K * B)
    A[:N] = amp
    A = A.reshape(K, B)
    a = rec.term.a
    theta = np.pi * xs / c
    inner = np.multiply.outer(theta, a * np.arange(B, dtype=np.float64))
    outer = np.multiply.outer(rec.term.frequency(rec.n_start)
                              + a * B * np.arange(K, dtype=np.float64), theta)
    ac = np.einsum("kb,gb->kg", A, np.cos(inner))
    as_ = np.einsum("kb,gb->kg", A, np.sin(inner))
    cb, sb = np.cos(outer), np.sin(outer)
    if rec.trig == "cos":
        return (cb * ac - sb * as_).sum(axis=0)
    return (sb * ac + cb * as_).sum(axis=0)


def _grid_points(rec: IdentityRecord, c: float, grid: int,
                 interval: Optional[Tuple[float, float]] = None) -> np.ndarray:
    """verify's grid: grid points strictly inside the interval (by default
    the record's, less GRID_MARGIN periods at each end, where partial-sum
    convergence degrades); x = 0 alone for a value record."""
    import numpy as np
    if rec.kind == "value":
        return np.array([0.0])
    a, b = rec.interval
    unit = np.pi if rec.kind == "cospow" else c
    lo = float(a) * unit
    hi = float(b) * unit
    if interval is not None:
        lo, hi = interval
    else:
        m = GRID_MARGIN * float(rec.period) * unit
        lo, hi = lo + m, hi - m
    return np.linspace(lo, hi, grid + 2)[1:-1]


def verify(identity_id: str | IdentityRecord, r: Optional[int] = None,
           c: float = 1.0, grid: Optional[int] = None, N: int = 2000,
           tol: float = 1e-6, interval: Optional[Tuple[float, float]] = None
           ) -> VerificationReport:
    """Compare closed form against the N-term partial sum on an interior
    grid; deterministic given inputs.  Failures are reported, not raised.

    The grid holds DEFAULT_GRID points unless ``grid`` says otherwise, and
    excludes GRID_MARGIN periods around the interval endpoints, where
    partial-sum convergence degrades; the closed form is evaluated at
    COMPARE_DIGITS digits.  A value record is checked at x = 0 alone, so a
    grid or an interval given for it is a RegistryError.
    """
    rec = identity_id if isinstance(identity_id, IdentityRecord) else get_record(identity_id)
    if rec.kind == "value" and (grid is not None or interval is not None):
        raise RegistryError(f"{rec.id} is a value record checked at x = 0 "
                            "only; grid and interval do not apply")
    r_eff = rec.effective_r(r)
    xs = _grid_points(rec, c, DEFAULT_GRID if grid is None else grid, interval)
    return _compare(rec, r_eff, c, xs, N, tol, rec.id)


def _compare(rec: IdentityRecord, r: int, c: float, xs: np.ndarray, N: int,
             tol: float, report_id: str) -> VerificationReport:
    """The float64 N-term partial sums against the closed form at xs."""
    import numpy as np
    t0 = time.perf_counter()
    partial = _series_partial_float(rec, r, c, xs, N)
    t1 = time.perf_counter()
    closed_at = _closed_form_evaluator(
        rec, r, np.pi if rec.kind == "cospow" else c,
        PrecisionContext.for_digits(COMPARE_DIGITS), mp.mpf(tol) / 20)
    closed = np.array([float(closed_at(x)) for x in xs])
    t2 = time.perf_counter()
    errors = np.abs(closed - partial)
    worst = int(np.argmax(errors))
    max_err = float(errors[worst])
    return VerificationReport(id=report_id, r=r, c=c, grid=len(xs), N=N,
                              tol=tol, max_error=max_err,
                              passed=bool(max_err <= tol),
                              worst_x=float(xs[worst]),
                              partial_s=t1 - t0, closed_s=t2 - t1)


# ---------------------------------------------------------------------------
# structural operations

_INTEGRATION_SUCCESSOR = {"thm11-cos": "thm11-sin", "thm18-cos": "thm18-sin"}


def corollary2_integrate(identity_id: str, r: int) -> Dict[int, Coeff]:
    """Termwise integration of a cosine record: the exact antiderivative of
    its polynomial part in u, which must coincide coefficient-by-coefficient
    with the stored successor record.  Raises when no successor is defined.
    """
    rec = get_record(identity_id)
    integration_successor(identity_id)
    poly = rec.poly(rec.effective_r(r))
    return {p + 1: coeff.scale(Fraction(1, p + 1)) for p, coeff in poly.items()}


def integration_successor(identity_id: str) -> str:
    successor_id = _INTEGRATION_SUCCESSOR.get(identity_id)
    if successor_id is None:
        raise RegistryError(f"no integration successor defined for {identity_id}")
    return successor_id


def poly_derivative(poly: Dict[int, Coeff]) -> Dict[int, Coeff]:
    return {p - 1: coeff.scale(p) for p, coeff in poly.items() if p >= 1}


# ---------------------------------------------------------------------------
# documented verification suite

class SuiteEntry(NamedTuple):
    id: str
    r: Optional[int]
    N: int
    tol: float


def default_suite() -> List[SuiteEntry]:
    """Every record at its documented (N, tol); >= 18 distinct records."""
    out: List[SuiteEntry] = []
    for r in (1, 2):
        out.append(SuiteEntry("thm11-cos", r, 4000, 1e-5))
        out.append(SuiteEntry("thm11-sin", r, 2000, 1e-6))
        out.append(SuiteEntry("thm16-zeta-odd-cos", r, 10_000, 1e-5))
        out.append(SuiteEntry("thm18-cos", r, 4000, 1e-5))
        out.append(SuiteEntry("thm18-sin", r, 2000, 1e-6))
        out.append(SuiteEntry("thm21-eta-odd", r, 2000, 1e-6))
        out.append(SuiteEntry("cor5-beta", r, 2000, 1e-6))
        out.append(SuiteEntry("cor6-lambda", r, 4000, 1e-5))
        out.append(SuiteEntry("cor7-frakd", r, 4000, 1e-5))
        out.append(SuiteEntry("cor8-cald", r, 2000, 1e-6))
        out.append(SuiteEntry("eq59-lambda-shift", r, 4000, 1e-5))
    for r in (1, 2, 3):
        out.append(SuiteEntry("eq56-frakd-value", r, 10_000, 1e-4))
    out.append(SuiteEntry("eq69-frakd-poly", None, 2000, 1e-6))
    out.append(SuiteEntry("eq70-frakd-poly", None, 2000, 1e-6))
    out.append(SuiteEntry("example1-cospow", None, 2000, 1e-8))
    out.append(SuiteEntry("example2-fourier", None, 100_000, 1e-3))
    out.append(SuiteEntry("lemma4-sin-log", None, 200_000, 1e-3))
    out.append(SuiteEntry("lemma4-sin-alt", None, 200_000, 1e-3))
    out.append(SuiteEntry("lemma4-cos-arctan", None, 200_000, 1e-3))
    return out


def endpoint_suite() -> List[Tuple[str, int]]:
    """Closed-endpoint record instances (r >= 1 families)."""
    out = []
    for entry in default_suite():
        rec = get_record(entry.id)
        if rec.kind == "fourier" and rec.closed and rec.interval is not None:
            out.append((entry.id, rec.effective_r(entry.r)))
    return sorted(set(out))


def verify_endpoint(identity_id: str, r: Optional[int], c: float = 1.0,
                    N: int = 200_000) -> VerificationReport:
    """Closed-endpoint check: the identity holds at the interval endpoints
    within the partial-sum truncation bound (absolute-convergence tail)."""
    import numpy as np
    rec = get_record(identity_id)
    r_eff = rec.effective_r(r)
    a, b = rec.interval
    d = rec.term.exponent(r_eff)
    if d < 2:
        raise RegistryError("endpoint verification needs absolute convergence")
    tail = 2.0 * N ** (1 - d) / (d - 1)
    tol = max(4 * tail, 1e-12)
    xs = np.array([float(a) * c, float(b) * c])
    return _compare(rec, r_eff, c, xs, N, tol, rec.id + "@endpoints")


def suite_reports() -> List[VerificationReport]:
    """The registry sweep: each default_suite row on its grid, then each
    endpoint_suite row at its endpoints."""
    reports = [verify(entry.id, entry.r, N=entry.N, tol=entry.tol)
               for entry in default_suite()]
    return reports + [verify_endpoint(rid, r) for rid, r in endpoint_suite()]
