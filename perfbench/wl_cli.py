"""cli: a seeded sequence of fresh `python -m trigsum.cli` invocations, one
at a time, over every subcommand with small arguments.  It pays the
interpreter start, import and argparse costs that the in-process workloads
never pay, and each invocation starts with cold caches.  `verify --all` and
`verify --suite` are left to the gate workload, which runs the same work.

Each pass runs one invocation per subcommand family, one more drawn at
random, and a repeat of an earlier argv whose stdout must be byte-identical.
Known defects run once per run as named probes, outside every timing."""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction

import grammar
import wl_precision
from common import child_env

ENTRY = ["trigsum.cli"]
CHILD_PROCESSES = True   # the work runs in child processes: RSS and calibration
OPS_PER_PASS = 10
MIN_PASSES = 4
TIMEOUT_S = 60
PROBE_TIMEOUT_S = 3

EXACT_VALUES = {"zeta-even": "zeta_even", "eta-even": "eta_even",
                "lambda-even": "lambda_even", "beta-odd": "beta_odd",
                "frakd": "frakD", "cald": "calD",
                "bernoulli-star": "bernoulli_star",
                "euler-number": "euler_number", "harmonic": "harmonic"}
# (id, r, terms, tol) rows of the registry suite small enough for one call
VERIFY_ROWS = (("thm11-cos", 1, 4000, "1e-5"), ("thm11-sin", 2, 2000, "1e-6"),
               ("thm18-cos", 2, 4000, "1e-5"), ("thm18-sin", 1, 2000, "1e-6"),
               ("thm21-eta-odd", 2, 2000, "1e-6"), ("cor5-beta", 1, 2000, "1e-6"),
               ("cor6-lambda", 2, 4000, "1e-5"), ("cor7-frakd", 1, 4000, "1e-5"),
               ("cor8-cald", 2, 2000, "1e-6"), ("eq69-frakd-poly", None, 2000, "1e-6"),
               ("example1-cospow", None, 2000, "1e-8"))


class Op:
    __slots__ = ("argv", "fn", "points", "repeat_of")

    def __init__(self, argv, fn=None, points=(), repeat_of=None):
        self.argv, self.fn, self.points, self.repeat_of = argv, fn, points, repeat_of


def _exact(rng):
    value = rng.choice(sorted(EXACT_VALUES))
    n = rng.randint(1, 12)
    if value == "euler-number":
        n *= 2
    return Op(["exact", value, "--n", str(n), "--format", rng.choice(["text", "json"])])


def _operator(rng):
    text, fn = grammar.random_tree(rng)
    return Op(["operator", "apply", "--kind", rng.choice(["cos", "sin"]),
               f"--expr={text}", "--arg", "x", "--shift", "h", "--format", "json"],
              fn, grammar.sample_points(rng, 2))


def _map(rng, family):
    text, fn = grammar.random_sum(rng, family == "fourier")
    argv = ["map", family, f"--sum={text}", "--kind", rng.choice(["cos", "sin"]),
            "--format", "json"]
    if family == "fourier":
        c_text, _ = grammar.random_half_period(rng)
        if c_text:
            argv += ["--c", c_text]
    return Op(argv, fn, [rng.uniform(0.1, 0.9) for _ in range(2)])


def _zeta(rng):
    return Op(["zeta-odd", "--r", str(rng.randint(1, 4)), "--method",
               rng.choice(wl_precision.METHODS), "--digits", str(rng.choice([20, 30, 50]))])


def _oracle(rng):
    digits = str(rng.choice([20, 30, 40]))
    if rng.random() < 0.25:
        a = f"{rng.randint(1, 9)}/{rng.choice([2, 3, 4, 5])}"
        return Op(["oracle", "--series", "hurwitz", "--s", str(rng.randint(2, 5)),
                   "--a", a, "--digits", digits])
    return Op(["oracle", "--series", rng.choice(tuple(wl_precision.SERIES)),
               "--s", str(rng.randint(2, 5)), "--digits", digits])


def _verify(rng):
    rid, r, terms, tol = rng.choice(VERIFY_ROWS)
    argv = ["verify", "--id", rid, "--terms", str(terms), "--tol", tol, "--grid", "20"]
    return Op(argv + (["--r", str(r)] if r else []))


def _identities(rng):
    return Op(["identities"] + (["--format", "json"] if rng.random() < 0.5 else []))


def make_ops(seed: int, index: int):
    rng = random.Random(f"cli:{seed}:{index}")
    ops = [_exact(rng), _operator(rng), _map(rng, "fourier"), _map(rng, "cospow"),
           _zeta(rng), _oracle(rng), _verify(rng), _identities(rng)]
    ops.append(rng.choice([_exact, _operator, _zeta, _oracle])(rng))
    rng.shuffle(ops)
    src = rng.randrange(len(ops))
    ops.append(Op(ops[src].argv, repeat_of=src))
    return ops


def invoke(argv, timeout=TIMEOUT_S):
    """One fresh CLI process: (exit code or None on timeout, stdout, stderr)."""
    try:
        out = subprocess.run([sys.executable, "-m", "trigsum.cli", *argv],
                             capture_output=True, env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, b"", b"timed out"
    return out.returncode, out.stdout, out.stderr


def run_op(op, tracer):
    with tracer.span(f"cli.{op.argv[0]}"):
        return invoke(op.argv)


def describe(op) -> str:
    return "trigsum " + " ".join(op.argv)


def run_inprocess(ops, tracer):
    """Traced only: the same argv through cli.main after import, stdout and
    stderr captured, one span per subcommand."""
    import contextlib
    import io

    from trigsum.cli import main
    for op in ops:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with tracer.span(f"cli.cmd.{op.argv[0]}"):
                main(list(op.argv))


# --- checks --------------------------------------------------------------------

def _close(got, want, rel):
    import mpmath as mp
    return abs(got - want) <= mp.mpf(rel) * max(1, abs(want))


def _check_exact(op, text):
    import json

    import mpmath as mp
    value, n = op.argv[1], int(op.argv[3])
    family = EXACT_VALUES[value]
    power, want = wl_precision.exact_reference(family, n)
    if op.argv[-1] == "json":
        data = json.loads(text)
        if "terms" in data:
            terms = {t["power"]: Fraction(int(t["num"]), int(t["den"])) for t in data["terms"]}
        elif "num" in data:
            terms = {None: Fraction(int(data["num"]), int(data["den"]))}
        else:
            terms = {None: Fraction(int(data["value"]))}
    else:
        terms = {}
        for part in text.strip().split(" + "):
            if "*pi" in part:
                coeff, _, p = part.partition("*pi")
                terms[int(p[1:]) if p else 1] = Fraction(coeff.strip("()"))
            else:
                terms[None] = Fraction(part)
    if family in ("frakD", "calD"):
        s = 2 * n if family == "frakD" else 2 * n + 1
        if list(terms) != [s]:
            return f"pi power {list(terms)}, expected [{s}]"
        with mp.workdps(60):
            got = mp.mpf(terms[s].numerator) / terms[s].denominator * mp.pi ** s
            ref = wl_precision.pattern_reference(family, s)
            return None if _close(got, ref, "1e-50") else f"value {got} != {ref}"
    return None if terms == {power: want} else f"got {terms}, expected {{{power}: {want}}}"


def _check_operator(op, text):
    import json

    import mpmath as mp
    from trigsum.expr import eval_real, parse_expr
    data = json.loads(text)
    cos_p, sin_p = parse_expr(data["cos_part"]), parse_expr(data["sin_part"])
    with mp.workdps(30):
        for x, h in op.points:
            ref = op.fn(mp.mpc(x, h))
            got_c = eval_real(cos_p, {"x": x, "h": h}, 30)
            got_s = eval_real(sin_p, {"x": x, "h": h}, 30)
            if not (_close(got_c, ref.real, "1e-12") and _close(got_s, ref.imag, "1e-12")):
                return f"pair ({mp.nstr(got_c, 8)}, {mp.nstr(got_s, 8)}) != {mp.nstr(ref, 8)}"
    return None


def _check_map(op, code, text, err):
    import json

    import mpmath as mp
    from trigsum.expr import eval_real, parse_expr
    from trigsum.mapping import MappingError, map_cospow, map_fourier
    family = op.argv[1]
    kind = op.argv[op.argv.index("--kind") + 1]
    c_text = op.argv[op.argv.index("--c") + 1] if "--c" in op.argv else None
    if code == 2:
        # a refusal must be the library's documented MappingError
        S = parse_expr(op.argv[2].partition("=")[2])
        try:
            if family == "fourier":
                map_fourier(S, c=parse_expr(c_text) if c_text else None,
                            kind="cosine" if kind == "cos" else "sine")
            else:
                map_cospow(S, kind=kind)
        except MappingError:
            return None if err.startswith("error:") else f"refusal message {err!r}"
        return f"exit 2 but the library maps it: {err}"
    data = json.loads(text)
    closed = parse_expr(data["closed_form"])
    with mp.workdps(30):
        c_value = (parse_expr(c_text) if c_text else parse_expr("13/10"))
        c_num = eval_real(c_value, {}, 30)
        unit = c_num if family == "fourier" else +mp.pi
        if data["validity"] is None:
            lo, hi = 0.05 * unit, 0.95 * unit
        else:
            lo, hi = (eval_real(parse_expr(v), {"c": c_num}, 30) for v in data["validity"])
        for frac in op.points:
            x = lo + frac * (hi - lo)
            t = mp.expj(mp.pi * x / unit) if family == "fourier" else mp.cos(x) * mp.expj(x)
            value = op.fn(t)
            ref = value.real if kind == "cos" else value.imag
            got = eval_real(closed, {"x": x, "c": c_num}, 30)
            if not _close(got, ref, "1e-12"):
                return f"closed form {mp.nstr(got, 10)} != series {mp.nstr(ref, 10)} at x={mp.nstr(x, 6)}"
    return None


def _check_value(op, text):
    import mpmath as mp
    digits = int(op.argv[op.argv.index("--digits") + 1])
    with mp.workdps(digits + 20):
        got = mp.mpf(text.strip())
        if op.argv[0] == "zeta-odd":
            ref = mp.zeta(2 * int(op.argv[2]) + 1)
        elif op.argv[2] == "hurwitz":
            a = Fraction(op.argv[6])
            ref = mp.zeta(int(op.argv[4]), mp.mpf(a.numerator) / a.denominator)
        else:
            ref = wl_precision.pattern_reference(op.argv[2], int(op.argv[4]))
        return None if _close(got, ref, mp.mpf(10) ** (1 - digits)) else \
            f"value {mp.nstr(got, 15)} != mpmath {mp.nstr(ref, 15)}"


def check_pass(ops, results):
    """Failure message (or None) per op, after every invocation has run."""
    from trigsum.registry import list_identities
    out = []
    for op, (code, stdout, stderr) in zip(ops, results):
        text, err = stdout.decode(), stderr.decode()
        sub = op.argv[0]
        if op.repeat_of is not None:
            first = results[op.repeat_of]
            ok = (code, stdout) == (first[0], first[1])
            out.append(None if ok else "repeat of an argv gave different stdout or exit code")
            continue
        if code is None:
            out.append(f"timed out after {TIMEOUT_S} s")
            continue
        if sub == "map" and code in (0, 2):
            out.append(_check_map(op, code, text, err))
            continue
        if code != 0:
            out.append(f"exit {code}: {err.strip()[-200:]}")
            continue
        if sub == "exact":
            out.append(_check_exact(op, text))
        elif sub == "operator":
            out.append(_check_operator(op, text))
        elif sub in ("zeta-odd", "oracle"):
            out.append(_check_value(op, text))
        elif sub == "verify":
            out.append(None if text.startswith("PASS") else f"verify printed {text!r}")
        elif sub == "identities":
            rows = len(text.splitlines()) if "--format" not in op.argv else text.count('"id"')
            want = len(list_identities())
            out.append(None if rows == want else f"{rows} identities listed, {want} in the catalog")
    return out


# --- probes: known defects, one invocation each --------------------------------

def _deep_expr(depth):
    return "sin(" * depth + "x" + ")" * depth


_PARTIAL_SUM_CODE = (
    "from fractions import Fraction\n"
    "from trigsum.registry import closed_form_eval, partial_sum_eval, theorem23_shift\n"
    "rec = theorem23_shift('cor6-lambda', Fraction(1, 4))\n"
    "print(float(partial_sum_eval(rec, 1, x=0.5, N=2000)), float(closed_form_eval(rec, 1, x=0.5)))\n")

PROBES = {
    "zeta-odd-400": ["zeta-odd", "--r", "1", "--digits", "400"],
    "oracle-400": ["oracle", "--series", "zeta", "--s", "3", "--digits", "400"],
    "deep-expr-3000": ["operator", "apply", "--kind", "cos", f"--expr={_deep_expr(3000)}",
                       "--arg", "x", "--shift", "h"],
    "map-huge-power": ["map", "fourier", "--sum=t^1000000000", "--kind", "cos"],
    "verify-grid-0": ["verify", "--id", "thm11-cos", "--r", "1", "--grid", "0"],
    "verify-tol-negative": ["verify", "--id", "thm11-cos", "--r", "1", "--tol=-1"],
    "partial-sum-shifted": None,   # library call, run as python -c
}
# words one of which a refusal message must contain to name the bad input
_NAMES = {"deep-expr-3000": ("expr", "nest", "depth", "deep"),
          "map-huge-power": ("sum", "degree", "power", "exponent", "1000000000"),
          "verify-grid-0": ("grid",), "verify-tol-negative": ("tol",)}


def run_probe(name: str):
    """None when the probe passes, else a one-line reason."""
    import mpmath as mp
    if name == "partial-sum-shifted":
        try:
            out = subprocess.run([sys.executable, "-c", _PARTIAL_SUM_CODE],
                                 capture_output=True, env=child_env(), timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timed out"
        if out.returncode != 0:
            return f"exit {out.returncode}: {out.stderr.decode().strip().splitlines()[-1]}"
        partial, closed = map(float, out.stdout.split())
        return None if abs(partial - closed) <= 1e-3 else f"partial sum {partial} != {closed}"
    code, stdout, stderr = invoke(PROBES[name], timeout=PROBE_TIMEOUT_S)
    err = stderr.decode().strip()
    if code is None:
        return f"no answer within {PROBE_TIMEOUT_S} s"
    if name in ("zeta-odd-400", "oracle-400"):
        if code != 0:
            return f"exit {code}: {err.splitlines()[-1] if err else ''}"
        with mp.workdps(420):
            ok = abs(mp.mpf(stdout.decode().strip()) - mp.zeta(3)) <= mp.mpf(10) ** -399
        return None if ok else "value disagrees with mpmath"
    lines = err.splitlines()
    if code != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
        return f"exit {code}, stderr {(lines[-1] if lines else '')[:120]!r}"
    if not any(word in lines[0] for word in _NAMES[name]):
        return f"message does not name the input: {lines[0][:120]!r}"
    return None
