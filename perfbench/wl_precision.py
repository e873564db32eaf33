"""precision: a seeded stream of value requests to `dirichlet` and `exact`.

Each pass holds a fixed mix (so that passes and seeds cost alike) with
seeded parameters.  At each of 30/100/300 digits: zeta_odd for every r in
1..6 with the four methods dealt out from a seeded offset, one eta_odd, and
the brute-force oracle on one series of each kind (s in 1..7, Hurwitz at
rational offsets); at 30 digits the zeta_odd and oracle requests twice.  Every exact family once in each third of the indices
1..80.  Then, per digits level, repeats of two memoised requests and one
oracle request of the pass (none at 300 digits): memo hits against misses.
Checks use mpmath's own functions only.
"""

from __future__ import annotations

import random
from fractions import Fraction

from trigsum import exact
from trigsum.dirichlet import PrecisionContext, dirichlet_oracle, eta_odd, zeta_odd

ENTRY = ["trigsum.dirichlet", "trigsum.exact"]
DIGITS = (30, 100, 300)
METHODS = ("thm15", "thm15-zeta", "thm17", "thm17-zeta")
R_VALUES = range(1, 7)
REPEATS_PER_LEVEL = (2, 1)   # of memoised requests, of oracle requests
# The 30-digit requests (1-4 ms) run twice over, with other methods and
# series: they hold the pass's median, which they keep steady only when
# there are enough of them around it.
ROUNDS = {30: 2, 100: 1, 300: 1}
EXACT_BANDS = ((1, 26), (27, 53), (54, 80))
MIN_PASSES = 3

# Named series by definition: period and weight per residue, or the trig
# function and multiple of pi whose value at n * angle is the weight.
SERIES = {
    "zeta": (1, {1: 1}),
    "eta": (2, {1: 1, 2: -1}),
    "lambda": (2, {1: 1}),
    "beta": (4, {1: 1, 3: -1}),
    "frakD": (8, {1: 1, 3: -1, 5: -1, 7: 1}),
    "calD": (8, {1: 1, 3: 1, 5: -1, 7: -1}),
    "cos_pi3": (6, ("cos", Fraction(1, 3))),
    "cos_2pi3": (3, ("cos", Fraction(2, 3))),
    "sin_2pi3": (3, ("sin", Fraction(2, 3))),
    "cos_pi2": (4, ("cos", Fraction(1, 2))),
}
# frakD and calD carry the 1/sqrt2 normalisation in their definition.
SQRT2_SCALED = ("frakD", "calD")
ORACLE_GROUPS = (("frakD", "calD"), ("zeta", "eta", "lambda", "beta"),
                 ("cos_pi3", "cos_2pi3", "sin_2pi3", "cos_pi2"))
# s = 1 converges only for patterns whose weights sum to zero and pair up
# into +-1 blocks, which is what the oracle supports.
S1_SERIES = ("eta", "beta", "frakD", "calD", "sin_2pi3", "cos_pi2")
EXACT_FAMILIES = ("zeta_even", "eta_even", "lambda_even", "beta_odd", "frakD",
                  "calD", "bernoulli_star", "euler_number", "harmonic")
EXACT_COUNT = len(EXACT_BANDS) * len(EXACT_FAMILIES)


class Op:
    __slots__ = ("kind", "args", "repeat")

    def __init__(self, kind, args, repeat=False):
        self.kind, self.args, self.repeat = kind, args, repeat


def _oracle_ops(rng: random.Random, digits: int):
    """One request per kind of series: Hurwitz zeta at a rational offset,
    then period 8 (four residues), period 1-4 and a trigonometric pattern,
    dealt s = 1, a small s and a large s.  At 300 digits, where one request
    costs up to 0.5 s, only Hurwitz and one named series run and s = 2, the
    slowest power sum there, is left out; this keeps the cost of a pass
    steady."""
    low = 2 if digits < 300 else 3
    a = Fraction(rng.randint(1, 9), rng.choice([2, 3, 4, 5, 7]))
    out = [Op("oracle", ("hurwitz", rng.randint(low, 7), digits, (a.numerator, a.denominator)))]
    s_values = rng.sample([1, rng.randint(low, 4), rng.randint(5, 7)], 3)
    groups = ORACLE_GROUPS if digits < 300 else [rng.choice(ORACLE_GROUPS)]
    for group, s in zip(groups, s_values):
        name = rng.choice([n for n in group if s > 1 or n in S1_SERIES])
        out.append(Op("oracle", (name, s, digits, None)))
    return out


def make_ops(seed: int, index: int):
    rng = random.Random(f"precision:{seed}:{index}")
    levels = []
    for digits in DIGITS:
        shift = rng.randrange(len(METHODS))
        level, oracle = [], []
        for k in range(ROUNDS[digits]):
            # every r once, the methods dealt round-robin (other ones next round)
            level += [Op("zeta_odd", (r, METHODS[(r + shift + 2 * k) % len(METHODS)], digits))
                      for r in R_VALUES]
            oracle += _oracle_ops(rng, digits)
        level.append(Op("eta_odd", (rng.choice(R_VALUES), rng.choice(METHODS), digits)))
        levels.append((level, oracle))
    ops = [op for memo, oracle in levels for op in memo + oracle]
    for lo, hi in EXACT_BANDS:
        for family in EXACT_FAMILIES:
            n = rng.randint(lo, hi)
            ops.append(Op("exact", (family, 2 * n if family == "euler_number" else n)))
    rng.shuffle(ops)
    # repeats: per digits level, two memoised requests and, below 300
    # digits, one oracle request (the oracle keeps no memo)
    for (memo, oracle), digits in zip(levels, DIGITS):
        picks = rng.sample(memo, REPEATS_PER_LEVEL[0])
        if digits < 300:
            picks += rng.sample(oracle, REPEATS_PER_LEVEL[1])
        for src in picks:
            at = rng.randrange(ops.index(src) + 1, len(ops) + 1)
            ops.insert(at, Op(src.kind, src.args, repeat=True))
    return ops


OPS_PER_PASS = len(make_ops(0, 0))   # the mix is the same for every seed


def span_name(op) -> str:
    if op.repeat:
        return "dirichlet.repeat"
    if op.kind == "exact":
        return "exact"
    return f"dirichlet.{op.kind}.d{op.args[2]}"


def run_op(op, tracer):
    with tracer.span(span_name(op)):
        if op.kind == "exact":
            family, n = op.args
            return getattr(exact, family)(n)
        if op.kind == "oracle":
            series, s, digits, a = op.args
            ctx = PrecisionContext.for_digits(digits)
            return dirichlet_oracle(series, s, ctx,
                                    a=Fraction(*a) if a else None)
        r, method, digits = op.args
        ctx = PrecisionContext.for_digits(digits)
        if op.kind == "zeta_odd":
            return zeta_odd(r, method, ctx)
        return eta_odd(r, ctx, method)


def series_terms(result) -> int:
    return getattr(result, "terms_used", 0)


def counters(results) -> dict:
    """Per-pass counts for the traced run."""
    return {"dirichlet.series_terms": sum(series_terms(r) for r in results)}


def describe(op) -> str:
    return f"{op.kind}{op.args}{' (repeat)' if op.repeat else ''}"


# --- checks --------------------------------------------------------------------

def pattern_reference(name: str, s: int):
    import mpmath as mp
    period, spec = SERIES[name]
    if isinstance(spec, dict):
        weights = {res: mp.mpf(w) for res, w in spec.items()}
    else:
        trig, mult = spec
        angle = mp.pi * mult.numerator / mult.denominator
        fn = mp.cos if trig == "cos" else mp.sin
        weights = {res: fn(res * angle) for res in range(1, period + 1)}
    scale_v = 1 / mp.sqrt(2) if name in SQRT2_SCALED else mp.mpf(1)
    if s == 1:
        # sum_r w_r sum_k 1/(kP + r) = -(1/P) sum_r w_r psi(r/P) when sum w_r = 0
        return -scale_v / period * mp.fsum(w * mp.digamma(mp.mpf(res) / period)
                                           for res, w in weights.items())
    return scale_v * mp.mpf(period) ** (-s) * mp.fsum(
        w * mp.zeta(s, mp.mpf(res) / period) for res, w in weights.items())


def exact_reference(family: str, n: int):
    """Exact rational reference from mpmath's Bernoulli and Euler numbers,
    as (pi power or None, rational)."""
    import mpmath as mp
    from math import factorial

    def bern(k):
        p, q = mp.bernfrac(k)
        return Fraction(int(p), int(q))

    if family == "bernoulli_star":
        return None, abs(bern(2 * n))
    if family == "euler_number":
        return None, Fraction(int(mp.eulernum(n, exact=True)))
    if family == "harmonic":
        return None, sum(Fraction(1, k) for k in range(1, n + 1))
    if family == "beta_odd":
        e = int(mp.eulernum(2 * n, exact=True))
        return 2 * n + 1, Fraction((-1) ** n * e, 4 ** (n + 1) * factorial(2 * n))
    zeta = Fraction((-1) ** (n + 1) * 2 ** (2 * n - 1), factorial(2 * n)) * bern(2 * n)
    if family == "zeta_even":
        return 2 * n, zeta
    if family == "eta_even":
        return 2 * n, zeta * (1 - Fraction(2, 4 ** n))
    if family == "lambda_even":
        return 2 * n, zeta * (1 - Fraction(1, 4 ** n))
    return None, None   # frakD, calD: checked numerically


def check(op, result):
    import mpmath as mp
    if op.kind == "exact":
        family, n = op.args
        power, want = exact_reference(family, n)
        if family in ("frakD", "calD"):
            s = 2 * n if family == "frakD" else 2 * n + 1
            with mp.workdps(80):
                ref = pattern_reference(family, s)
                got = result.eval(80)
                ok = abs(got - ref) <= mp.mpf(10) ** -70 * abs(ref)
            return None if ok else f"{family}({n}) = {mp.nstr(got, 20)}, mpmath {mp.nstr(ref, 20)}"
        if power is None:
            got = Fraction(result)
        else:
            got = result.coeffs.get(power) if set(result.coeffs) == {power} else None
        return None if got == want else f"{family}({n}) = {got}, expected {want}"
    if op.kind == "oracle":
        series, s, digits, a = op.args
    else:
        r, _, digits = op.args
        s = 2 * r + 1
    with mp.workdps(digits + 20):
        if op.kind == "zeta_odd":
            ref = mp.zeta(s)
        elif op.kind == "eta_odd":
            ref = mp.altzeta(s)
        elif series == "hurwitz":
            ref = mp.zeta(s, mp.mpf(a[0]) / a[1])
        else:
            ref = pattern_reference(series, s)
        err = abs(result.value - ref)
        tol = result.tail_bound + mp.mpf(10) ** (3 - digits) * max(1, abs(ref))
        if err <= tol:
            return None
        return (f"error {mp.nstr(err, 3)} exceeds tail bound "
                f"{mp.nstr(result.tail_bound, 3)} plus working precision")
