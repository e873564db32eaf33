"""Exact rational engine: Bernoulli/Euler/harmonic numbers, pi-polynomials,
and the triangular recurrences for the even zeta family and the two signed
odd-denominator Dirichlet series.  Bernoulli and Euler numbers come from one
integer table of zigzag numbers (Seidel's boustrophedon), and the
triangular recurrences are solved in integers over one denominator.

Every value here is exact.  ``PiPolynomial`` carries sums of a_K * pi^K with
arbitrary-precision rational a_K; evaluation at a numeric pi is a ring
homomorphism.  Memo tables are write-once caches (idempotent fills) and the
zigzag table grows under a lock, so concurrent use is safe.
"""

from __future__ import annotations

import json
import threading
from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import TYPE_CHECKING, Dict, List, Tuple

__all__ = [
    "ExactRational",
    "PiPolynomial",
    "bernoulli_star",
    "euler_number",
    "harmonic",
    "zeta_even",
    "eta_even",
    "lambda_even",
    "beta_odd",
    "frakD",
    "calD",
]

if TYPE_CHECKING:  # PiPolynomial.eval imports it itself
    import mpmath as mp

# Arbitrary-precision rational in canonical form (gcd 1, positive denominator);
# fractions.Fraction guarantees both invariants.
ExactRational = Fraction


class PiPolynomial:
    """An exact value sum(a_K * pi^K) with rational a_K, K >= 0.

    Zero coefficients are never stored.  Supports ring arithmetic, exact
    comparison, scalar multiplication by rationals, and evaluation at a
    numeric pi.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, Fraction] | None = None):
        clean: Dict[int, Fraction] = {}
        for k, v in (coeffs or {}).items():
            if k < 0:
                raise ValueError("pi powers must be non-negative")
            v = Fraction(v)
            if v != 0:
                clean[int(k)] = v
        self.coeffs = clean

    @classmethod
    def monomial(cls, coeff: Fraction | int, power: int) -> "PiPolynomial":
        return cls({power: Fraction(coeff)})

    def __add__(self, other: "PiPolynomial") -> "PiPolynomial":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return PiPolynomial(out)

    def __sub__(self, other: "PiPolynomial") -> "PiPolynomial":
        return self + (-other)

    def __neg__(self) -> "PiPolynomial":
        return PiPolynomial({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, PiPolynomial):
            out: Dict[int, Fraction] = {}
            for k1, v1 in self.coeffs.items():
                for k2, v2 in other.coeffs.items():
                    out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + v1 * v2
            return PiPolynomial(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, q) -> "PiPolynomial":
        q = Fraction(q)
        return PiPolynomial({k: v * q for k, v in self.coeffs.items()})

    def shift_pi(self, j: int) -> "PiPolynomial":
        """Multiply by pi^j (j may be negative if every power admits it)."""
        out = {}
        for k, v in self.coeffs.items():
            if k + j < 0:
                raise ValueError("pi power would become negative")
            out[k + j] = v
        return PiPolynomial(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, PiPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, digits: int = 30) -> mp.mpf:
        import mpmath as mp
        with mp.workdps(digits):
            pi = +mp.pi
            total = mp.mpf(0)
            for k, v in sorted(self.coeffs.items()):
                total += mp.mpf(v.numerator) / v.denominator * pi ** k
            return +total

    def terms(self) -> List[Tuple[int, Fraction]]:
        return sorted(self.coeffs.items())

    def to_json(self) -> str:
        payload = {"terms": [
            {"power": k, "num": str(v.numerator), "den": str(v.denominator)}
            for k, v in self.terms()
        ]}
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "PiPolynomial":
        payload = json.loads(text)
        return cls({int(t["power"]): Fraction(int(t["num"]), int(t["den"]))
                    for t in payload["terms"]})

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, v in self.terms():
            if k == 0:
                parts.append(f"{v}")
            elif k == 1:
                parts.append(f"({v})*pi")
            else:
                parts.append(f"({v})*pi^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"PiPolynomial({self})"


# ---------------------------------------------------------------------------
# number sequences

class _ZigzagTable:
    """Zigzag numbers A_n (the alternating permutations of n letters) from
    the Seidel-Entringer-Arnold boustrophedon, extended on demand.

    One row of Entringer numbers is kept and updated in place: row n + 1 is
    the running sum of row n read in the opposite direction, so the row is
    stored alternately reversed, and each step costs n + 1 integer
    additions.  Extension runs under a lock; values are only appended, so
    readers of an index already filled need none.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._row = [1]
        self.values: List[int] = [1]

    def __getitem__(self, n: int) -> int:
        if n >= len(self.values):
            with self._lock:
                self._extend(n)
        return self.values[n]

    def _extend(self, n: int) -> None:
        row = self._row
        while len(self.values) <= n:
            if len(row) % 2:        # row n even, stored forwards: sum from the right
                row.append(0)
                for i in range(len(row) - 2, -1, -1):
                    row[i] += row[i + 1]
                self.values.append(row[0])
            else:                   # row n odd, stored reversed: sum from the left
                row.insert(0, 0)
                for i in range(1, len(row)):
                    row[i] += row[i - 1]
                self.values.append(row[-1])


_ZIGZAG = _ZigzagTable()
_BERNOULLI_STAR: Dict[int, Fraction] = {}


def bernoulli_star(k: int) -> Fraction:
    """B_k* (positive Bernoulli convention, B_1* = 1/6), the solution of the
    triangular system sum_{j=0}^{r-1} (-1)^j C(2r+1, 2j+1) B_{j+1}* = 1/2,
    r = 1..k, taken from the tangent number T_k = A_{2k-1}:
    B_k* = 2k T_k / (4^k (4^k - 1)).

    B_k* equals |B_{2k}| of the classical signed convention.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    value = _BERNOULLI_STAR.get(k)
    if value is None:
        value = Fraction(2 * k * _ZIGZAG[2 * k - 1], 4 ** k * (4 ** k - 1))
        _BERNOULLI_STAR[k] = value
    return value


def euler_number(n: int) -> int:
    """Euler number E_n for even n, which solves
    sum_{k=0}^{r-1} C(2r, 2k) E_{2r-2k} = -1 with the seed E_0 = 1, taken
    from the secant number A_n: E_n = (-1)^(n/2) A_n."""
    if n < 0 or n % 2 != 0:
        raise ValueError("n must be even and >= 0")
    return (-1) ** (n // 2) * _ZIGZAG[n]


def harmonic(m: int) -> Fraction:
    """Exact harmonic number H_m = sum_{k=1}^m 1/k, summed as integers
    over L = lcm(1, ..., m): H_m = sum_k (L // k) / L."""
    if m < 1:
        raise ValueError("m must be >= 1")
    L = lcm(*range(1, m + 1))
    return Fraction(sum(L // k for k in range(1, m + 1)), L)


# ---------------------------------------------------------------------------
# triangular recurrences in scaled integers
#
# Each recurrence sum_k (-1)^k (pi/m)^(2k) x_(r-k) / (2k+delta)! = rhs_r is
# multiplied through by a factorial and a power of m, which turns its
# coefficients into binomials C(2j+delta, 2k+delta) and its unknowns into
# integers over one denominator.  The system is then solved in Python
# integers, and a Fraction is built for the returned value only.


class InexactDivisionError(ArithmeticError):
    """A division in a scaled recurrence left a remainder: its unknowns are
    not integers over the chosen scale, so the recurrence or its right-hand
    side is wrong."""


def _exact_quotient(num: int, den: int, where: str) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise InexactDivisionError(f"{where}: the division leaves a remainder")
    return q


def _primorial(n: int) -> int:
    """The product of the primes <= n."""
    sieve = bytearray([1]) * (n + 1)
    out = 1
    for p in range(2, n + 1):
        if sieve[p]:
            out *= p
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return out


def _solve_binomial(rhs: List[int], odd: bool, weight: int = 1) -> int:
    """x_r of the integer triangular system, for j = 0..r = len(rhs) - 1,
        sum_{k=0}^{j} (-1)^k weight^k C(2j+o, 2k+o) x_(j-k) = rhs[j],
    o = 1 if odd else 0.  The leading coefficient C(2j+o, o) is 2j+1 or 1;
    a division by it that leaves a remainder raises InexactDivisionError.
    Row j's binomials are stepped two places at a time from C(2j+o, o).
    """
    o = 1 if odd else 0
    x: List[int] = []
    for j, b in enumerate(rhs):
        n = 2 * j + o
        lead = c = n if odd else 1
        w = 1
        coeffs = []             # (-weight)^k C(n, 2k+o), k = 1..j
        for m in range(2 + o, n + 1, 2):
            c = c * (n - m + 2) * (n - m + 1) // ((m - 1) * m)
            w *= -weight
            coeffs.append(w * c)
        acc = b - sum(map(mul, coeffs, reversed(x)))
        x.append(_exact_quotient(acc, lead, f"row {j}"))
    return x[-1]


def _scaled_rhs(q: Fraction, scale: int, j: int) -> int:
    """q * scale, which must be an integer."""
    return _exact_quotient(q.numerator * scale, q.denominator,
                           f"right-hand side {j}")


# ---------------------------------------------------------------------------
# even zeta family

_ZETA_EVEN_METHODS = ("euler", "thm12", "thm13")


def zeta_even(r: int, method: str = "euler") -> PiPolynomial:
    """Exact zeta(2r) = a * pi^(2r).

    method selects the computation path: "euler" uses
    zeta(2n) = 2^(2n-1) B_n* pi^(2n) / (2n)!, "thm12" the recurrence
    sum (-1)^k pi^(2k) zeta(2r-2k)/(2k+1)! = (-1)^(r-1) r pi^(2r)/(2r+1)!,
    "thm13" its x=2c analogue with 2pi powers.  All paths agree exactly.

    The two recurrences are solved for Z_j = (2j)! a_j, which gives
    sum_k (-1)^k C(2j+1, 2k+1) Z_(j-k) = (-1)^(j-1) j (thm12) and
    sum_k (-1)^k 4^k C(2j+1, 2k+1) Z_(j-k) = (-1)^(j-1) 4^(j-1) (2j-1)
    (thm13).  Z_j = 2^(2j-1) B_j* has a squarefree odd denominator made of
    primes <= 2j+1 (von Staudt-Clausen), so P Z_j is an integer for the
    product P of the primes <= 2r+1.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if method not in _ZETA_EVEN_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "euler":
        a = Fraction(2 ** (2 * r - 1), factorial(2 * r)) * bernoulli_star(r)
        return PiPolynomial.monomial(a, 2 * r)
    P = _primorial(2 * r + 1)
    if method == "thm12":
        rhs = [0] + [(-1) ** (j - 1) * j * P for j in range(1, r + 1)]
        z = _solve_binomial(rhs, odd=True)
    else:
        rhs = [0] + [(-1) ** (j - 1) * 4 ** (j - 1) * (2 * j - 1) * P
                     for j in range(1, r + 1)]
        z = _solve_binomial(rhs, odd=True, weight=4)
    return PiPolynomial.monomial(Fraction(z, P * factorial(2 * r)), 2 * r)


def eta_even(r: int) -> PiPolynomial:
    """Exact eta(2r) from the triangular recurrence
    sum_{k=0}^{r-1} (-1)^k pi^(2k) eta(2r-2k)/(2k+1)! = (-1)^(r-1) pi^(2r)/(2 (2r+1)!).

    With eta(2j) = b_j pi^(2j) it is solved for E_j = 2 (2j)! b_j, which
    gives sum_k (-1)^k C(2j+1, 2k+1) E_(j-k) = (-1)^(j-1); like zeta_even's
    Z_j, P E_j is an integer for the product P of the primes <= 2r+1.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    P = _primorial(2 * r + 1)
    rhs = [0] + [(-1) ** (j - 1) * P for j in range(1, r + 1)]
    e = _solve_binomial(rhs, odd=True)
    return PiPolynomial.monomial(Fraction(e, 2 * P * factorial(2 * r)), 2 * r)


def lambda_even(r: int) -> PiPolynomial:
    """Exact lambda(2r) = (1 - 2^(-2r)) zeta(2r) (odd-denominator zeta)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return zeta_even(r).scale(Fraction(4 ** r - 1, 4 ** r))


def beta_odd(k: int) -> PiPolynomial:
    """Exact beta(2k+1) = (-1)^k E_{2k} pi^(2k+1) / (4^(k+1) (2k)!)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    a = Fraction((-1) ** k * euler_number(2 * k), 4 ** (k + 1) * factorial(2 * k))
    return PiPolynomial.monomial(a, 2 * k + 1)


def _quarter_pi_pow(j: int) -> Fraction:
    # rational coefficient of (pi/4)^j as a pi^j monomial
    return Fraction(1, 4 ** j)


def frakD(r: int, method: str = "lambda") -> PiPolynomial:
    """Exact frakD(2r) = (1/sqrt2) sum (-1)^floor(n/2) (2n-1)^(-2r).

    The 1/sqrt2 normalization makes the value a pure pi-monomial.
    method "lambda" solves sum_{k=0}^{r-1} (-1)^k (pi/4)^(2k)
    frakD(2r-2k)/(2k)! = lambda(2r)/2; method "zeta" the equivalent form
    with (2^(2r)-1)/2^(2r+1) zeta(2r) on the right.  Both agree exactly.

    With frakD(2j) = d_j pi^(2j) the recurrence is solved for the integers
    F_j = (2j)! 16^j d_j: F_j = RHS_j - sum_{k>=1} (-1)^k C(2j, 2k) F_(j-k),
    where RHS_j = (2j)! 16^j [pi^(2j)] rhs_j = 2^(4j-2) (4^j - 1) B_j* is an
    integer (checked).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if method not in ("lambda", "zeta"):
        raise ValueError(f"unknown method {method!r}")
    rhs = [0]
    for j in range(1, r + 1):
        scale = factorial(2 * j) << (4 * j)
        if method == "lambda":
            q = lambda_even(j).coeffs[2 * j] / 2
        else:
            q = zeta_even(j).coeffs[2 * j] * Fraction(4 ** j - 1, 2 * 4 ** j)
        rhs.append(_scaled_rhs(q, scale, j))
    f = _solve_binomial(rhs, odd=False)
    return PiPolynomial.monomial(Fraction(f, factorial(2 * r) << (4 * r)), 2 * r)


def calD(r: int, method: str = "direct") -> PiPolynomial:
    """Exact calD(2r+1) = (1/sqrt2) sum_{n>=0} (-1)^floor(n/2) (2n+1)^(-2r-1).

    calD(1) = pi/4.  method "direct" uses
    calD(2r+1) = sum_{k=0}^{r-1} (-1)^k (pi/4)^(2k+1) lambda(2r-2k)/(2k+1)!
                 + (-1)^r (pi/4)^(2r+1)/(2r)!;
    method "beta" solves beta(2r+1)/2 = sum_{k=0}^{r} (-1)^k (pi/4)^(2k)
    calD(2r+1-2k)/(2k)! instead.  Both agree exactly.

    "beta" is solved for the integers G_j = 4 (2j)! 16^j c_j, where
    calD(2j+1) = c_j pi^(2j+1): G_0 = 1 and, for j >= 1,
    G_j = 2 (2j)! 16^j [pi^(2j+1)] beta(2j+1) - sum_{k>=1} (-1)^k C(2j, 2k) G_(j-k),
    whose first term is (-1)^j 2^(2j-1) E_(2j), an integer (checked).
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if method not in ("direct", "beta"):
        raise ValueError(f"unknown method {method!r}")
    if r == 0:
        return PiPolynomial.monomial(Fraction(1, 4), 1)
    if method == "direct":
        acc = PiPolynomial()
        for k in range(r):
            acc = acc + lambda_even(r - k).shift_pi(2 * k + 1).scale(
                Fraction((-1) ** k, factorial(2 * k + 1)) * _quarter_pi_pow(2 * k + 1))
        acc = acc + PiPolynomial.monomial(
            Fraction((-1) ** r, factorial(2 * r)) * _quarter_pi_pow(2 * r + 1),
            2 * r + 1)
        return acc
    rhs = [1]
    for j in range(1, r + 1):
        b = beta_odd(j).coeffs[2 * j + 1]
        rhs.append(_scaled_rhs(b, 2 * factorial(2 * j) << (4 * j), j))
    g = _solve_binomial(rhs, odd=False)
    return PiPolynomial.monomial(Fraction(g, 4 * factorial(2 * r) << (4 * r)),
                                 2 * r + 1)
