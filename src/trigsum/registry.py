"""Catalog of the closed-form trigonometric-series identities.

Each record pairs a series term rule with an exact closed form: a
polynomial in u = pi x / c whose coefficients live in the exact basis
{ rational * pi^K,  rational * zeta(odd),  rational * ln 2,
  rational * sqrt2 * pi^K,  rational * sqrt3 * pi^K },
plus, where needed, a u^p * ln(u) term and a residual series with exact
rational coefficients (see ResidualRule).  Because coefficients are exact,
endpoint specialization, termwise integration and the cosh-shift act as
exact rational arithmetic; only log terms, residual tails and the final
grid comparison are numeric.

Grid verification compares the closed form against brute-force partial
sums on interior grids (0.05-period margins around singular points), in
float64 for the documented tolerances (all >= 1e-8) with mpmath behind the
exact coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from math import comb, factorial
from typing import Callable, Dict, List, Optional, Tuple

import mpmath as mp
import numpy as np

from . import exact
from .dirichlet import (GUARD_DIGITS, ORACLE_SERIES, PeriodicPattern,
                        PrecisionContext, _residual_sum, _to_mpf,
                        dirichlet_oracle)
from .exact import PiPolynomial, bernoulli_star, harmonic

__all__ = [
    "Coeff",
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
]


class RegistryError(Exception):
    pass


# ---------------------------------------------------------------------------
# exact coefficients

_BasisKey = Tuple[str, int]  # ("pi", K) | ("zeta", m) | ("ln2", 0) | ("sqrt2pi", K) | ("sqrt3pi", K)

_zeta_odd_cache: Dict[Tuple[int, int], mp.mpf] = {}


def _zeta_odd_value(m: int, digits: int) -> mp.mpf:
    key = (m, digits)
    if key not in _zeta_odd_cache:
        ctx = PrecisionContext.for_digits(digits + 10)
        _zeta_odd_cache[key] = dirichlet_oracle("zeta", m, ctx).value
    return _zeta_odd_cache[key]


class Coeff:
    """Exact linear combination over the coefficient basis."""

    __slots__ = ("parts",)

    def __init__(self, parts: Dict[_BasisKey, Fraction] | None = None):
        clean: Dict[_BasisKey, Fraction] = {}
        for k, v in (parts or {}).items():
            v = Fraction(v)
            if v != 0:
                clean[k] = v
        self.parts = clean

    @classmethod
    def rational(cls, q) -> "Coeff":
        return cls({("pi", 0): Fraction(q)})

    @classmethod
    def pi_monomial(cls, q, power: int) -> "Coeff":
        return cls({("pi", power): Fraction(q)})

    @classmethod
    def from_pipoly(cls, p: PiPolynomial) -> "Coeff":
        return cls({("pi", k): v for k, v in p.coeffs.items()})

    @classmethod
    def zeta_odd(cls, q, m: int) -> "Coeff":
        if m < 3 or m % 2 == 0:
            raise ValueError("zeta basis keys are odd integers >= 3")
        return cls({("zeta", m): Fraction(q)})

    @classmethod
    def ln2(cls, q) -> "Coeff":
        return cls({("ln2", 0): Fraction(q)})

    def __add__(self, other: "Coeff") -> "Coeff":
        out = dict(self.parts)
        for k, v in other.parts.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Coeff(out)

    def __neg__(self) -> "Coeff":
        return Coeff({k: -v for k, v in self.parts.items()})

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def scale(self, q) -> "Coeff":
        q = Fraction(q)
        return Coeff({k: v * q for k, v in self.parts.items()})

    def mul_pi_power(self, j: int) -> "Coeff":
        out = {}
        for (kind, m), v in self.parts.items():
            if kind in ("pi", "sqrt2pi", "sqrt3pi"):
                out[(kind, m + j)] = v
            else:
                raise RegistryError(
                    f"cannot multiply a {kind} coefficient by a pi power exactly")
        return Coeff(out)

    def is_zero(self) -> bool:
        return not self.parts

    def is_pure_pi(self) -> bool:
        return all(kind == "pi" for kind, _ in self.parts)

    def as_pipoly(self) -> PiPolynomial:
        if not self.is_pure_pi():
            raise RegistryError("not a pure pi-polynomial coefficient")
        return PiPolynomial({m: v for (_, m), v in self.parts.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Coeff) and self.parts == other.parts

    def __hash__(self):
        return hash(tuple(sorted(self.parts.items())))

    def eval(self, digits: int = 30) -> mp.mpf:
        with mp.workdps(digits):
            pi = +mp.pi
            total = mp.mpf(0)
            for (kind, m), v in sorted(self.parts.items()):
                vq = mp.mpf(v.numerator) / v.denominator
                if kind == "pi":
                    total += vq * pi ** m
                elif kind == "zeta":
                    total += vq * _zeta_odd_value(m, digits)
                elif kind == "ln2":
                    total += vq * mp.log(2)
                elif kind == "sqrt2pi":
                    total += vq * mp.sqrt(2) * pi ** m
                elif kind == "sqrt3pi":
                    total += vq * mp.sqrt(3) * pi ** m
                else:
                    raise RegistryError(f"unknown basis kind {kind!r}")
            return +total

    def __repr__(self):
        return f"Coeff({self.parts})"


def _eta_odd_coeff(m: int, q: Fraction) -> Coeff:
    """eta(m) for odd m as an exact Coeff: (1 - 2^(1-m)) zeta(m) for m >= 3,
    ln 2 for m = 1."""
    if m == 1:
        return Coeff.ln2(q)
    return Coeff.zeta_odd(q * (Fraction(2) ** (m - 1) - 1) / Fraction(2) ** (m - 1), m)


# ---------------------------------------------------------------------------
# residual series

def _fact_ratio_inv(a: int, b: int) -> mp.mpf:
    """a! / b! for a <= b, as 1 / ((a+1) ... b)."""
    out = mp.mpf(1)
    for i in range(a + 1, b + 1):
        out /= i
    return out


@dataclass(frozen=True)
class ResidualRule:
    """sign * sum_{k>=1} coeff(k) u^(power(k)), the residual series of the
    Thm 16 (alternating=False) and Thm 21 (alternating=True) closed forms,
    with coeff(k) = weight(k) B*_k / (2k (2r+2k)!) > 0, weight(k) = 1 for
    Thm 16 and 4^k - 1 for Thm 21.

    coeff gives the exact rational coefficient (used by the structural
    tests).  In w = u / scale (scale = 2 pi for Thm 16, pi for Thm 21, so
    0 <= w <= 1 on the closed interval) the series is
    sign * scale^(2r) * sum_k c_k f_k w^(2r+2k) with f_k = (2k)! / ((2r+2k)! k)
    and c_k = zeta(2k) (Thm 16) or lambda(2k) (Thm 21); coeff_mpf is
    c_k f_k / scale^(2k) in floating point.  eval splits c_k = 1 + (c_k - 1):
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

    def coeff_mpf(self, k: int, digits: int) -> mp.mpf:
        with mp.workdps(digits):
            return self._c(k, digits) * self._f(k) / self.scale ** (2 * k)

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
        w = abs(u) / self.scale
        if w > 1 + mp.mpf(10) ** (5 - mp.mp.dps):
            raise RegistryError(
                f"residual series needs |u| / scale <= 1, got {mp.nstr(w, 8)}")
        w = min(w, mp.mpf(1))
        digits = max(mp.mp.dps, int(mp.ceil(-mp.log10(eps)))) + GUARD_DIGITS
        with mp.workdps(digits):
            scale = self.scale ** (2 * self.r)
            rest, _, _ = _residual_sum(
                lambda k: ((self._c(k, digits) - 1) * self._f(k)
                           * w ** self.power(k)), eps / scale)
            return +(self.sign * scale * (self.closed_part(w) + rest))


# ---------------------------------------------------------------------------
# identity records

@dataclass(frozen=True)
class TermSpec:
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

    @cached_property
    def _weights(self) -> Tuple[Fraction, ...]:
        """The sign weights w(m), indexed by m mod the pattern period."""
        P = self.pattern.period
        table = dict(self.pattern.weights)
        return tuple(table.get(j or P, Fraction(0)) for j in range(P))

    def amplitude(self, m, r: int):
        """Amplitude at frequency m: m is a float64 array (grid partial sums,
        computed in float64) or one mpf (exact partial sums, computed at the
        working precision)."""
        P = self.pattern.period
        if isinstance(m, np.ndarray):
            cos, pi, num = np.cos, np.pi, float
            with mp.workprec(53):  # round each step as float64 does
                scale = float(self.pattern.scale_value())
            table = scale * np.array([float(w) for w in self._weights])
            coef = table[(m % P).astype(np.intp)]
        else:
            cos, pi, num = mp.cos, mp.pi, _to_mpf
            w = self._weights[int(m) % P]
            coef = self.pattern.scale_value() * w.numerator
            if w.denominator != 1:
                coef /= w.denominator
        s = self.exponent(r)
        if self.pole:
            amp = coef * (1 / (m * m - self.pole ** 2) ** (s // 2))
        else:
            amp = coef * m ** -s
        for x0 in self.shifts:
            amp = amp * cos(m * pi * num(x0))
        return amp


@dataclass
class IdentityRecord:
    """One catalogued identity: series term spec plus exact closed form.

    Intervals are in units of c (Fourier records, including the pinned
    c = pi examples) with open/closed endpoint flags; ``term`` gives the
    frequency multiplier of pi x/c and the exact amplitude of the n-th term
    for n >= n_start.  kind "value" records have no x-dependence.
    """
    id: str
    label: str
    kind: str                                   # fourier | cospow | value
    trig: Optional[str]                         # cos | sin | None
    r_min: int
    r_fixed: Optional[int]
    interval: Optional[Tuple[Fraction, Fraction]]
    closed_left: bool
    closed_right: bool
    period: Fraction
    n_start: int
    term: TermSpec
    poly: Callable[[int], Dict[int, Coeff]]
    log_term: Optional[Callable[[int], Tuple[Coeff, int]]] = None
    residual: Optional[Callable[[int], ResidualRule]] = None
    cos_coeff: Optional[Callable[[int], Coeff]] = None

    def effective_r(self, r: Optional[int]) -> int:
        if self.r_fixed is not None:
            return self.r_fixed
        if r is None:
            raise RegistryError(f"record {self.id} needs a parameter r")
        if r < self.r_min:
            raise RegistryError(f"record {self.id} needs r >= {self.r_min}")
        return r


@dataclass(frozen=True)
class VerificationReport:
    id: str
    r: int
    c: float
    grid: int
    N: int
    tol: float
    max_error: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps({"id": self.id, "r": self.r, "c": self.c,
                           "N": self.N, "tol": self.tol,
                           "max_error": self.max_error, "pass": self.passed},
                          separators=(",", ":"))

    def csv_row(self) -> str:
        return (f"{self.id},{self.r},{self.c},{self.N},{self.tol},"
                f"{self.max_error},{str(self.passed).lower()}")


# --- closed-form polynomial builders ---------------------------------------

def _poly_thm11_cos(r: int) -> Dict[int, Coeff]:
    out: Dict[int, Coeff] = {}
    for k in range(r):
        out[2 * k] = Coeff.from_pipoly(exact.zeta_even(r - k)).scale(
            Fraction((-1) ** k, factorial(2 * k)))
    out[2 * r - 1] = Coeff.pi_monomial(Fraction((-1) ** r, 2 * factorial(2 * r - 1)), 1)
    out[2 * r] = Coeff.rational(Fraction((-1) ** (r + 1), 2 * factorial(2 * r)))
    return out


def _poly_thm11_sin(r: int) -> Dict[int, Coeff]:
    out: Dict[int, Coeff] = {}
    for k in range(1, r + 1):
        out[2 * k - 1] = Coeff.from_pipoly(exact.zeta_even(r + 1 - k)).scale(
            Fraction((-1) ** (k - 1), factorial(2 * k - 1)))
    out[2 * r] = _coeff_add(out.get(2 * r),
                            Coeff.pi_monomial(Fraction((-1) ** r, 2 * factorial(2 * r)), 1))
    out[2 * r + 1] = Coeff.rational(Fraction((-1) ** (r + 1), 2 * factorial(2 * r + 1)))
    return out


def _coeff_add(a: Optional[Coeff], b: Coeff) -> Coeff:
    return b if a is None else a + b


def _poly_thm16(r: int) -> Dict[int, Coeff]:
    out: Dict[int, Coeff] = {}
    for k in range(r):
        out[2 * k] = Coeff.zeta_odd(Fraction((-1) ** k, factorial(2 * k)),
                                    2 * r + 1 - 2 * k)
    h = harmonic(2 * r)
    out[2 * r] = Coeff.rational(Fraction((-1) ** r) * h / factorial(2 * r))
    return out


def _poly_thm18_cos(r: int) -> Dict[int, Coeff]:
    out: Dict[int, Coeff] = {}
    for k in range(r):
        out[2 * k] = Coeff.from_pipoly(exact.eta_even(r - k)).scale(
            Fraction((-1) ** k, factorial(2 * k)))
    out[2 * r] = Coeff.rational(Fraction((-1) ** r, 2 * factorial(2 * r)))
    return out


def _poly_thm18_sin(r: int) -> Dict[int, Coeff]:
    out: Dict[int, Coeff] = {}
    for k in range(1, r + 1):
        out[2 * k - 1] = Coeff.from_pipoly(exact.eta_even(r + 1 - k)).scale(
            Fraction((-1) ** (k - 1), factorial(2 * k - 1)))
    out[2 * r + 1] = Coeff.rational(Fraction((-1) ** r, 2 * factorial(2 * r + 1)))
    return out


def _poly_thm21(r: int) -> Dict[int, Coeff]:
    out: Dict[int, Coeff] = {}
    for k in range(r + 1):
        out[2 * k] = _eta_odd_coeff(2 * r + 1 - 2 * k,
                                    Fraction((-1) ** k, factorial(2 * k)))
    return out


def _poly_cor5(r: int) -> Dict[int, Coeff]:
    out: Dict[int, Coeff] = {}
    for k in range(r):
        out[2 * k] = Coeff.from_pipoly(exact.beta_odd(r - k)).scale(
            Fraction((-1) ** k, factorial(2 * k)))
    out[2 * r] = _coeff_add(out.get(2 * r),
                            Coeff.pi_monomial(Fraction((-1) ** r, 4 * factorial(2 * r)), 1))
    return out


def _poly_cor6(r: int) -> Dict[int, Coeff]:
    out: Dict[int, Coeff] = {}
    for k in range(r):
        out[2 * k] = Coeff.from_pipoly(exact.lambda_even(r - k)).scale(
            Fraction((-1) ** k, factorial(2 * k)))
    out[2 * r - 1] = _coeff_add(out.get(2 * r - 1),
                                Coeff.pi_monomial(Fraction((-1) ** r, 4 * factorial(2 * r - 1)), 1))
    return out


def _poly_cor7(r: int) -> Dict[int, Coeff]:
    return {2 * k: Coeff.from_pipoly(exact.frakD(r - k)).scale(
        Fraction((-1) ** k, factorial(2 * k))) for k in range(r)}


def _poly_cor8(r: int) -> Dict[int, Coeff]:
    return {2 * k: Coeff.from_pipoly(exact.calD(r - k)).scale(
        Fraction((-1) ** k, factorial(2 * k))) for k in range(r + 1)}


def _poly_eq56(r: int) -> Dict[int, Coeff]:
    total = Fraction(0)
    for k in range(r):
        lam = exact.lambda_even(r - k).coeffs[2 * (r - k)]
        total += Fraction((-1) ** k, factorial(2 * k)) * Fraction(1, 4 ** (2 * k)) * lam
    total += Fraction((-1) ** r, factorial(2 * r - 1)) * Fraction(1, 4 ** (2 * r))
    return {0: Coeff({("sqrt2pi", 2 * r): total})}


def _shifted_poly(poly: Dict[int, Coeff], x0: Fraction) -> Dict[int, Coeff]:
    """Average of the polynomial at u - theta0 and u + theta0, theta0 = x0 pi;
    exact on pure pi-monomial coefficients."""
    out: Dict[int, Coeff] = {}
    for p, coeff in poly.items():
        for j in range(p + 1):
            if (p - j) % 2 != 0:
                continue  # odd shift powers cancel in the average
            shifted = coeff.scale(comb(p, j) * x0 ** (p - j)).mul_pi_power(p - j)
            out[j] = _coeff_add(out.get(j), shifted)
    return {p: c for p, c in out.items() if not c.is_zero()}


def _poly_eq69(_r: int) -> Dict[int, Coeff]:
    return {0: Coeff.pi_monomial(Fraction(5, 768), 4),
            1: Coeff.pi_monomial(Fraction(1, 128), 3),
            2: Coeff.pi_monomial(Fraction(-1, 16), 2),
            3: Coeff.pi_monomial(Fraction(1, 24), 1)}


def _poly_eq70(_r: int) -> Dict[int, Coeff]:
    return {0: Coeff.pi_monomial(Fraction(11, 1536), 4),
            2: Coeff.pi_monomial(Fraction(-1, 32), 2)}


def _poly_example1(_r: int) -> Dict[int, Coeff]:
    return {0: Coeff.pi_monomial(Fraction(1, 2), 1), 1: Coeff.rational(-1)}


def _poly_example2(_r: int) -> Dict[int, Coeff]:
    return {0: Coeff.rational(Fraction(-1, 2))}


def _log_thm16(r: int) -> Tuple[Coeff, int]:
    return Coeff.rational(Fraction((-1) ** (r + 1), factorial(2 * r))), 2 * r


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
    return replace(
        rec, id=f"{rec.id}@{x0}", label=f"{rec.label} shifted by {x0} c",
        interval=(a + x0, b - x0),
        term=replace(rec.term, shifts=rec.term.shifts + (x0,)),
        poly=lambda rr: _shifted_poly(base_poly(rr), x0))


def _make_records() -> Dict[str, IdentityRecord]:
    f = Fraction
    zeta, eta, lam, beta, frakD, calD = (ORACLE_SERIES[k] for k in (
        "zeta", "eta", "lambda", "beta", "frakD", "calD"))
    even, odd = (2, 0), (2, 1)   # s(r) = 2r, 2r + 1
    thm16_residual = partial(ResidualRule, alternating=False)
    thm21_residual = partial(ResidualRule, alternating=True)
    cor6 = IdentityRecord(
        id="cor6-lambda", label="odd-denominator cosine series over [0, c]",
        kind="fourier", trig="cos", r_min=1, r_fixed=None,
        interval=(f(0), f(1)), closed_left=True, closed_right=True,
        period=f(2), n_start=1, term=TermSpec(2, -1, lam, even),
        poly=_poly_cor6)
    records = [
        IdentityRecord(
            id="thm11-cos", label="cosine series of n^(-2r) over [0, 2c]",
            kind="fourier", trig="cos", r_min=1, r_fixed=None,
            interval=(f(0), f(2)), closed_left=True, closed_right=True,
            period=f(2), n_start=1, term=TermSpec(1, 0, zeta, even),
            poly=_poly_thm11_cos),
        IdentityRecord(
            id="thm11-sin", label="sine series of n^(-2r-1) over [0, 2c]",
            kind="fourier", trig="sin", r_min=1, r_fixed=None,
            interval=(f(0), f(2)), closed_left=True, closed_right=True,
            period=f(2), n_start=1, term=TermSpec(1, 0, zeta, odd),
            poly=_poly_thm11_sin),
        IdentityRecord(
            id="thm16-zeta-odd-cos",
            label="cosine series of n^(-2r-1) with log and residual terms",
            kind="fourier", trig="cos", r_min=1, r_fixed=None,
            interval=(f(0), f(2)), closed_left=True, closed_right=True,
            period=f(2), n_start=1, term=TermSpec(1, 0, zeta, odd),
            poly=_poly_thm16, log_term=_log_thm16, residual=thm16_residual),
        IdentityRecord(
            id="thm18-cos", label="alternating cosine series of n^(-2r) over [-c, c]",
            kind="fourier", trig="cos", r_min=1, r_fixed=None,
            interval=(f(-1), f(1)), closed_left=True, closed_right=True,
            period=f(2), n_start=1, term=TermSpec(1, 0, eta, even),
            poly=_poly_thm18_cos),
        IdentityRecord(
            id="thm18-sin", label="alternating sine series of n^(-2r-1) over [-c, c]",
            kind="fourier", trig="sin", r_min=1, r_fixed=None,
            interval=(f(-1), f(1)), closed_left=True, closed_right=True,
            period=f(2), n_start=1, term=TermSpec(1, 0, eta, odd),
            poly=_poly_thm18_sin),
        IdentityRecord(
            id="thm21-eta-odd",
            label="alternating cosine series of n^(-2r-1) with Bernoulli residual",
            kind="fourier", trig="cos", r_min=1, r_fixed=None,
            interval=(f(-1), f(1)), closed_left=True, closed_right=True,
            period=f(2), n_start=1, term=TermSpec(1, 0, eta, odd),
            poly=_poly_thm21, residual=thm21_residual),
        IdentityRecord(
            id="cor5-beta", label="beta-family cosine series over [-c/2, c/2]",
            kind="fourier", trig="cos", r_min=1, r_fixed=None,
            interval=(f(-1, 2), f(1, 2)), closed_left=True, closed_right=True,
            period=f(2), n_start=0, term=TermSpec(2, 1, beta, odd),
            poly=_poly_cor5),
        cor6,
        IdentityRecord(
            id="cor7-frakd", label="signed odd-denominator cosine series over [0, c/4]",
            kind="fourier", trig="cos", r_min=1, r_fixed=None,
            interval=(f(0), f(1, 4)), closed_left=True, closed_right=True,
            period=f(2), n_start=1, term=TermSpec(2, -1, frakD, even),
            poly=_poly_cor7),
        IdentityRecord(
            id="cor8-cald", label="signed odd-denominator odd-power cosine series over [0, c/4]",
            kind="fourier", trig="cos", r_min=1, r_fixed=None,
            interval=(f(0), f(1, 4)), closed_left=True, closed_right=True,
            period=f(2), n_start=0, term=TermSpec(2, 1, calD, odd),
            poly=_poly_cor8),
        IdentityRecord(
            id="eq56-frakd-value", label="signed odd-denominator Dirichlet value",
            kind="value", trig=None, r_min=1, r_fixed=None,
            interval=None, closed_left=False, closed_right=False,
            period=f(2), n_start=1,
            term=TermSpec(2, -1, PeriodicPattern(frakD.period, frakD.weights), even),
            poly=_poly_eq56),
        IdentityRecord(
            id="eq69-frakd-poly", label="cubic closed form on [c/4, 3c/4]",
            kind="fourier", trig="cos", r_min=2, r_fixed=2,
            interval=(f(1, 4), f(3, 4)), closed_left=True, closed_right=True,
            period=f(2), n_start=1, term=TermSpec(2, -1, frakD, even),
            poly=_poly_eq69),
        IdentityRecord(
            id="eq70-frakd-poly", label="quadratic closed form on [0, c/4]",
            kind="fourier", trig="cos", r_min=2, r_fixed=2,
            interval=(f(0), f(1, 4)), closed_left=True, closed_right=True,
            period=f(2), n_start=1, term=TermSpec(2, -1, frakD, even),
            poly=_poly_eq70),
        IdentityRecord(
            id="example1-cospow", label="sin(nx) cos^n x / n over (0, pi)",
            kind="cospow", trig="sin", r_min=1, r_fixed=1,
            interval=(f(0), f(1)), closed_left=False, closed_right=False,
            period=f(1), n_start=1, term=TermSpec(1, 0, zeta, (0, 1)),
            poly=_poly_example1),
        IdentityRecord(
            id="example2-fourier",
            label="alternating cos(3 n x) over (-pi/3, pi/3), c = pi",
            kind="fourier", trig="cos", r_min=1, r_fixed=1,
            interval=(f(-1, 3), f(1, 3)), closed_left=False, closed_right=False,
            period=f(2, 3), n_start=1, term=TermSpec(3, 0, eta, even, pole=1),
            poly=_poly_example2,
            cos_coeff=lambda r: Coeff({("sqrt3pi", 1): Fraction(1, 9)})),
        IdentityRecord(
            id="lemma4-sin-log", label="sine series of 1/n over (0, 2c)",
            kind="fourier", trig="sin", r_min=0, r_fixed=0,
            interval=(f(0), f(2)), closed_left=False, closed_right=False,
            period=f(2), n_start=1, term=TermSpec(1, 0, zeta, odd),
            poly=_poly_thm11_sin),
        IdentityRecord(
            id="lemma4-sin-alt", label="alternating sine series of 1/n over (-c, c)",
            kind="fourier", trig="sin", r_min=0, r_fixed=0,
            interval=(f(-1), f(1)), closed_left=False, closed_right=False,
            period=f(2), n_start=1, term=TermSpec(1, 0, eta, odd),
            poly=_poly_thm18_sin),
        IdentityRecord(
            id="lemma4-cos-arctan",
            label="alternating odd cosine series of 1/(2n+1) over (-c/2, c/2)",
            kind="fourier", trig="cos", r_min=0, r_fixed=0,
            interval=(f(-1, 2), f(1, 2)), closed_left=False, closed_right=False,
            period=f(2), n_start=0, term=TermSpec(2, 1, beta, odd),
            poly=_poly_cor5),
    ]
    records.append(replace(
        theorem23_shift(cor6, f(1, 4)), id="eq59-lambda-shift",
        label="quarter-shifted odd-denominator cosine series over [c/4, 3c/4]"))
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
                     series_eps: Optional[float] = None) -> mp.mpf:
    """Exact-coefficient closed form at x: polynomial part at high precision
    plus the log term (limit value 0 at u = 0) and the residual series
    within the precision budget.

    series_eps loosens the residual-series budget below the context target."""
    rec = identity_id if isinstance(identity_id, IdentityRecord) else get_record(identity_id)
    r_eff = rec.effective_r(r)
    ctx = ctx or PrecisionContext.for_digits(30)
    with mp.workdps(ctx.digits):
        u = mp.pi * mp.mpf(x) / mp.mpf(c)
        if rec.interval is not None:
            lo, hi = rec.interval
            ratio = mp.mpf(x) / mp.mpf(c)
            eps_edge = mp.mpf(10) ** (-ctx.digits + 5)
            lo_v = mp.mpf(lo.numerator) / lo.denominator
            hi_v = mp.mpf(hi.numerator) / hi.denominator
            if ratio < lo_v - eps_edge or ratio > hi_v + eps_edge:
                raise RegistryError(
                    f"x/c = {float(ratio)} outside the validity interval of {rec.id}")
        total = mp.mpf(0)
        for p, coeff in rec.poly(r_eff).items():
            total += coeff.eval(ctx.digits) * u ** p
        if rec.log_term is not None and u != 0:
            coeff, p = rec.log_term(r_eff)
            total += coeff.eval(ctx.digits) * u ** p * mp.log(u)
        if rec.residual is not None and u != 0:
            eps = mp.mpf(series_eps) if series_eps is not None else mp.mpf(ctx.target)
            total += rec.residual(r_eff).eval(abs(u), eps)
        if rec.cos_coeff is not None:
            total += rec.cos_coeff(r_eff).eval(ctx.digits) * mp.cos(u)
        return +total


def partial_sum_eval(identity_id: str | IdentityRecord, r: Optional[int],
                     c: float = 1.0, x: float = 0.0, N: int = 1000,
                     digits: int = 25) -> mp.mpf:
    """Exact-term partial sum at working precision (single point)."""
    rec = identity_id if isinstance(identity_id, IdentityRecord) else get_record(identity_id)
    r_eff = rec.effective_r(r)
    with mp.workdps(digits):
        total = mp.mpf(0)
        xc = mp.mpf(x) / mp.mpf(c)
        for n in range(rec.n_start, rec.n_start + N):
            total += _term_mp(rec, r_eff, n, xc)
        return +total


def _term_mp(rec: IdentityRecord, r: int, n: int, xc: mp.mpf) -> mp.mpf:
    m = mp.mpf(rec.term.frequency(n))
    amp = rec.term.amplitude(m, r)
    if rec.kind == "value":
        return amp
    if rec.kind == "cospow":
        x = mp.pi * xc
        return amp * mp.sin(m * x) * mp.cos(x) ** n
    angle = m * mp.pi * xc
    return amp * (mp.cos(angle) if rec.trig == "cos" else mp.sin(angle))


# ---------------------------------------------------------------------------
# grid verification

def _series_partial_float(rec: IdentityRecord, r: int, c: float,
                          xs: np.ndarray, N: int) -> np.ndarray:
    n = np.arange(rec.n_start, rec.n_start + N, dtype=np.float64)
    m = rec.term.frequency(n)
    amp = rec.term.amplitude(m, r)
    if rec.kind == "value":
        return np.full_like(xs, float(amp.sum()))
    out = np.empty_like(xs)
    if rec.kind == "cospow":
        for i, x in enumerate(xs):
            out[i] = float(np.sum(amp * np.sin(m * x) * np.power(np.cos(x), n)))
        return out
    for i, x in enumerate(xs):
        angle = m * (np.pi * x / c)
        tr = np.cos(angle) if rec.trig == "cos" else np.sin(angle)
        out[i] = float(np.sum(amp * tr))
    return out


def verify(identity_id: str | IdentityRecord, r: Optional[int] = None,
           c: float = 1.0, grid: int = 50, N: int = 2000, tol: float = 1e-6,
           interval: Optional[Tuple[float, float]] = None,
           margin: Optional[float] = None,
           digits: int = 30) -> VerificationReport:
    """Compare closed form against the N-term partial sum on an interior
    grid; deterministic given inputs.  Failures are reported, not raised.

    The grid excludes a margin (default 0.05 * period) around the interval
    endpoints, where partial-sum convergence degrades.
    """
    rec = identity_id if isinstance(identity_id, IdentityRecord) else get_record(identity_id)
    r_eff = rec.effective_r(r)
    if rec.kind == "value":
        xs = np.array([0.0])
    else:
        a, b = rec.interval
        unit = np.pi if rec.kind == "cospow" else c
        lo = float(a) * unit
        hi = float(b) * unit
        if interval is not None:
            lo, hi = interval
        else:
            m = margin if margin is not None else 0.05 * float(rec.period) * unit
            lo, hi = lo + m, hi - m
        # grid points strictly inside the open interval
        xs = np.linspace(lo, hi, grid + 2)[1:-1]
    partial = _series_partial_float(rec, r_eff, c, xs, N)
    ctx = PrecisionContext.for_digits(digits)
    closed = np.array([
        float(closed_form_eval(rec, r_eff, c=(np.pi if rec.kind == "cospow" else c),
                               x=x, ctx=ctx, series_eps=tol / 20))
        for x in xs])
    max_err = float(np.max(np.abs(closed - partial)))
    return VerificationReport(id=rec.id, r=r_eff, c=c, grid=len(xs), N=N,
                              tol=tol, max_error=max_err,
                              passed=bool(max_err <= tol))


# ---------------------------------------------------------------------------
# structural operations

_INTEGRATION_SUCCESSOR = {"thm11-cos": "thm11-sin", "thm18-cos": "thm18-sin"}


def corollary2_integrate(identity_id: str, r: int) -> Dict[int, Coeff]:
    """Termwise integration of a cosine record: the exact antiderivative of
    its polynomial part in u, which must coincide coefficient-by-coefficient
    with the stored successor record.  Raises when no successor is defined.
    """
    rec = get_record(identity_id)
    successor_id = _INTEGRATION_SUCCESSOR.get(identity_id)
    if successor_id is None:
        raise RegistryError(f"no integration successor defined for {identity_id}")
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

@dataclass(frozen=True)
class SuiteEntry:
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
        if rec.kind == "fourier" and rec.closed_left and rec.interval is not None:
            out.append((entry.id, rec.effective_r(entry.r)))
    return sorted(set(out))


def verify_endpoint(identity_id: str, r: Optional[int], c: float = 1.0,
                    N: int = 200_000) -> VerificationReport:
    """Closed-endpoint check: the identity holds at the interval endpoints
    within the partial-sum truncation bound (absolute-convergence tail)."""
    rec = get_record(identity_id)
    r_eff = rec.effective_r(r)
    a, b = rec.interval
    d = rec.term.exponent(r_eff)
    if d < 2:
        raise RegistryError("endpoint verification needs absolute convergence")
    if rec.residual is not None:
        N = min(N, 20_000)  # residual tails at the endpoint decay polynomially
    tail = 2.0 * N ** (1 - d) / (d - 1)
    tol = max(4 * tail, 1e-12)
    xs = np.array([float(a) * c, float(b) * c])
    partial = _series_partial_float(rec, r_eff, c, xs, N)
    ctx = PrecisionContext.for_digits(30)
    closed = np.array([float(closed_form_eval(rec, r_eff, c=c, x=x, ctx=ctx,
                                              series_eps=tol / 20))
                       for x in xs])
    max_err = float(np.max(np.abs(closed - partial)))
    return VerificationReport(id=rec.id + "@endpoints", r=r_eff, c=c, grid=2,
                              N=N, tol=tol, max_error=max_err,
                              passed=bool(max_err <= tol))
