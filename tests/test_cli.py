"""Command-line interface: outputs, schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from trigsum import cli, exact
from trigsum.cli import main
from trigsum.exact import PiPolynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_frakd_json_schema(self, capsys):
        code, out, _ = run(capsys, "exact", "frakd", "--n", "3", "--format", "json")
        assert code == 0
        assert out.strip() == '{"terms":[{"power":6,"num":"361","den":"491520"}]}'
        assert PiPolynomial.from_json(out.strip()).coeffs  # round-trips

    def test_harmonic_text(self, capsys):
        code, out, _ = run(capsys, "exact", "harmonic", "--n", "2")
        assert code == 0 and out.strip() == "3/2"

    def test_euler_number(self, capsys):
        code, out, _ = run(capsys, "exact", "euler-number", "--n", "4")
        assert code == 0 and out.strip() == "5"

    @pytest.mark.parametrize("value,n,fmt", [
        ("harmonic", 12000, "text"), ("harmonic", 12000, "json"),
        ("zeta-even", 900, "text"), ("zeta-even", 900, "json"),
    ])
    def test_past_the_int_str_digit_limit(self, capsys, value, n, fmt):
        # numerator and denominator run past Python's default 4300 digits
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "exact", value, "--n", str(n), "--format", fmt)
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit  # lifted for the write only
        want = exact.harmonic(n) if value == "harmonic" else exact.zeta_even(n)
        sys.set_int_max_str_digits(0)
        try:
            if value == "zeta-even":
                got = (PiPolynomial.from_json(out.strip()) if fmt == "json"
                       else out.strip())
                assert got == (want if fmt == "json" else str(want))
            elif fmt == "json":
                payload = json.loads(out)
                assert Fraction(int(payload["num"]), int(payload["den"])) == want
            else:
                assert Fraction(out.strip()) == want
            q = want if value == "harmonic" else want.coeffs[2 * n]
            assert max(len(str(q.numerator)), len(str(q.denominator))) > limit
        finally:
            sys.set_int_max_str_digits(limit)

    def test_bad_value_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "exact", "nope", "--n", "1")
        assert exc.value.code == 2


class TestNumericCommands:
    def test_zeta_odd_digits(self, capsys):
        code, out, _ = run(capsys, "zeta-odd", "--r", "1",
                           "--method", "thm15-zeta", "--digits", "30")
        assert code == 0
        assert out.strip() == "1.20205690315959428539973816151"

    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "oracle", "--series", "beta", "--s", "3",
                           "--digits", "20")
        assert code == 0
        assert out.strip().startswith("0.96894614625936938")

    def test_oracle_hurwitz_offset(self, capsys):
        code, out, _ = run(capsys, "oracle", "--series", "hurwitz", "--s", "2",
                           "--a", "1/2", "--digits", "20")
        assert code == 0
        assert out.strip().startswith("4.9348022005446793")

    @pytest.mark.parametrize("digits", ["20", "50"])
    def test_oracle_zero_value_prints_zero(self, capsys, digits):
        # sum cos(n pi/3)/n = -ln(2 sin(pi/6)) = 0: the digits past the
        # absolute target are not printed as significant
        code, out, _ = run(capsys, "oracle", "--series", "cos_pi3", "--s", "1",
                           "--digits", digits, "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == "0.0"
        # sum cos(2n pi/3)/n = -ln(2 sin(pi/3)) = -ln sqrt3
        code, out, _ = run(capsys, "oracle", "--series", "cos_2pi3", "--s", "1",
                           "--digits", "20")
        assert code == 0 and out.strip() == "-0.5493061443340548457"

    def test_zeta_odd_terms_at_most_quadratic(self, capsys):
        # each level's residual sum is counted once
        code, out, _ = run(capsys, "zeta-odd", "--r", "1", "--digits", "100",
                           "--format", "json")
        first = json.loads(out)["terms"]
        code, out, _ = run(capsys, "zeta-odd", "--r", "150", "--digits", "100",
                           "--format", "json")
        assert code == 0 and json.loads(out)["terms"] <= first * 150 ** 2

    @pytest.mark.parametrize("series", ["zeta", "beta", "nope"])
    def test_offset_only_for_hurwitz(self, capsys, series):
        code, out, err = run(capsys, "oracle", "--series", series, "--s", "3",
                             "--a", "1/2")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --a ")

    @pytest.mark.parametrize("what,argv,names", [
        ("method", ("zeta-odd", "--r", "1", "--method", "nope"),
         "thm15, thm15-zeta, thm17, thm17-zeta"),
        ("series", ("oracle", "--series", "nope", "--s", "3"),
         "beta, calD, cos_2pi3, cos_pi2, cos_pi3, eta, frakD, hurwitz, lambda, "
         "sin_2pi3, zeta"),
    ], ids=["method", "series"])
    def test_unknown_name_lists_accepted_names(self, capsys, what, argv, names):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: unknown {what} 'nope'; expected one of {names}"]

    def test_divergent_is_usage_error(self, capsys):
        code, _, err = run(capsys, "oracle", "--series", "zeta", "--s", "1")
        assert code == 2 and "error" in err

    def test_operator_apply(self, capsys):
        code, out, _ = run(capsys, "operator", "apply", "--kind", "sin",
                           "--expr", "ln(x)", "--arg", "x", "--shift", "h")
        assert code == 0 and out.strip() == "arccot(x/h)"

    def test_map_json(self, capsys):
        code, out, _ = run(capsys, "map", "fourier", "--sum=-ln(1-t)",
                           "--kind", "sin", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["validity"] == ["0", "2*c"]
        assert payload["singular_points"] == ["0", "2*c"]


class TestVerify:
    def test_single_identity_csv(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "example1-cospow",
                           "--terms", "2000", "--tol", "1e-8",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,r,c,N,tol,max_error,pass"
        assert lines[1].startswith("example1-cospow,") and lines[1].endswith("true")

    def test_failure_exit_code(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "thm11-cos", "--r", "1",
                           "--terms", "5", "--tol", "1e-12")
        assert code == 1 and "FAIL" in out

    def test_shifted_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "cor6-lambda", "--r", "1",
                           "--x0", "1/4", "--terms", "4000", "--tol", "1e-4")
        assert code == 0 and "PASS" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "cor5-beta", "--r", "1",
                           "--terms", "500", "--tol", "1e-4",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["id"] == "cor5-beta"
        assert set(payload[0]) == {"id", "r", "c", "N", "tol", "max_error", "pass"}


    def test_all_reports_memo_counts_on_stderr(self, capsys):
        # one JSON line per criterion: its time and the hits and misses of
        # the registry's two value memos while it ran
        from trigsum.registry import _series_value, _zeta_odd_value
        memos = {"series_value": _series_value, "zeta_odd_value": _zeta_odd_value}
        for memo in memos.values():
            memo.cache_clear()
        code, _, err = run(capsys, "verify", "--all")
        lines = [json.loads(line) for line in err.splitlines()]
        assert code == 0 and len(lines) == 8
        counts = {f"{name}_{field}" for name in memos for field in ("hits", "misses")}
        assert all(set(line) == {"criterion", "elapsed_s", "partial_s", "closed_s",
                                 *counts} for line in lines)
        for name, memo in memos.items():
            info = memo.cache_info()
            assert sum(line[f"{name}_hits"] for line in lines) == info.hits > 0
            assert sum(line[f"{name}_misses"] for line in lines) == info.misses > 0
        structural = next(line for line in lines
                          if line["criterion"] == "structural-exact-checks")
        assert structural["series_value_hits"] > structural["series_value_misses"] > 0

    def test_all_reports_compare_seconds_on_stderr(self, capsys):
        # each criterion's line carries the seconds its registry comparisons
        # spent on partial sums and on closed forms; stdout is unchanged
        from trigsum.registry import compare_seconds
        before = compare_seconds()
        code, out, err = run(capsys, "verify", "--all")
        spent = {k: v - before[k] for k, v in compare_seconds().items()}
        lines = {line["criterion"]: line for line in map(json.loads, err.splitlines())}
        assert code == 0 and len(out.splitlines()) == 8 and "_s" not in out
        sweep = lines["identity-registry-sweep"]
        assert sweep["partial_s"] > 0 and sweep["closed_s"] > 0
        assert lines["exact-golden-values"]["partial_s"] == 0
        assert lines["exact-golden-values"]["closed_s"] == 0
        for key in ("partial_s", "closed_s"):
            assert abs(sum(line[key] for line in lines.values()) - spent[key]) < 0.01


# sums below expr.MAX_POWER whose cos-power image is deep enough that the
# recursive mapping._node_denominator_loci exhausts Python's recursion limit
_DEEP_COSPOW_SUMS = ["t^48+t^47", "t^48/(2-t)"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP 2: the recursive mapping._node_denominator_loci "
                          "ends these as error: internal: RecursionError")
def test_deep_cospow_images_map_or_refuse(capsys):
    """Each sum gets an answer that passes the Abel check at 8 points of a
    period (or of its validity interval), or exit 2 with one `error:` line
    that is not an internal error."""
    import mpmath as mp

    from trigsum.evaluate import eval_complex_batch, eval_real_batch
    from trigsum.expr import parse_expr
    for text in _DEEP_COSPOW_SUMS:
        code, out, err = run(capsys, "map", "cospow", "--sum", text, "--kind", "cos",
                             "--format", "json")
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (text, err)
            assert not lines[0].startswith("error: internal:"), (text, lines[0])
            continue
        assert code == 0, (text, err)
        answer = json.loads(out)
        with mp.workdps(30):
            lo, hi = ((mp.mpf(0), +mp.pi) if answer["validity"] is None else
                      (eval_real_batch([parse_expr(e)], [{"c": 1}], 30)[0][0]
                       for e in answer["validity"]))
            xs = [lo + (2 * k + 1) * (hi - lo) / 16 for k in range(8)]
            series = eval_complex_batch([parse_expr(text)],
                                        [{"t": mp.cos(x) * mp.expj(x)} for x in xs], 30)
            closed = eval_real_batch([parse_expr(answer["closed_form"])],
                                     [{"x": x, "c": 1} for x in xs], 30)
            for x, (value,), (got,) in zip(xs, series, closed):
                tol = mp.mpf(10) ** -20 * max(1, abs(value.real))
                assert abs(got - value.real) <= tol, (text, x)


class TestVerifyValues:
    """A grid or term count below 1 and a tolerance that is not positive and
    finite are refused before any work: exit 2, one `error:` line that
    names the flag, nothing on stdout."""

    @pytest.mark.parametrize("flag,value", [
        ("--grid", "0"), ("--grid", "-3"), ("--terms", "0"), ("--terms", "-1"),
        ("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"),
    ])
    def test_refused(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "--id", "thm11-cos", "--r", "1",
                             f"{flag}={value}")
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert flag in lines[0]

    def test_tolerance_below_the_float_quotient(self, capsys):
        # tol / 20 is 0.0 in floats; the residual budget stays positive
        code, out, err = run(capsys, "verify", "--id", "thm16-zeta-odd-cos", "--r", "1",
                             "--grid", "2", "--terms", "10", "--tol", "1e-323")
        assert code == 1 and err == ""
        assert out.startswith("FAIL thm16-zeta-odd-cos r=1 N=10 ")

    def test_smallest_counts_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "thm11-cos", "--r", "1",
                           "--grid", "1", "--terms", "1", "--tol", "1e-12")
        assert code == 1 and out.startswith("FAIL thm11-cos r=1 N=1 ")


class TestVerifyFlags:
    """verify refuses the flags it would ignore: --id, --all and --suite
    exclude one another, one of them is needed, and the per-identity flags
    need --id.  Each refusal exits 2 with one `error:` line that names the
    flag."""

    @pytest.mark.parametrize("argv,flag", [
        (("--suite", "--id", "nope", "--grid", "7"), "--suite"),
        (("--all", "--id", "thm11-cos", "--tol", "5", "--x0", "1/9"), "--all"),
        (("--all", "--suite"), "--suite"),
        (("--all", "--r", "1"), "--r"),
        (("--all", "--x0", "1/9"), "--x0"),
        (("--suite", "--grid", "7"), "--grid"),
        (("--suite", "--terms", "10"), "--terms"),
        (("--tol", "1e-3"), "--tol"),
        ((), "--suite"),
        (("--id", "eq56-frakd-value", "--grid", "7"), "--grid"),
    ])
    def test_refused(self, capsys, argv, flag):
        code, out, err = run(capsys, "verify", *argv)
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert flag in lines[0]

    def test_id_path_defaults(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "thm11-sin", "--r", "1")
        assert code == 0
        assert out.startswith("PASS thm11-sin r=1 N=2000 tol=1e-06 ")

    def test_other_r_of_a_fixed_r_record_refused(self, capsys):
        code, out, err = run(capsys, "verify", "--id", "eq69-frakd-poly", "--r", "5")
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "eq69-frakd-poly" in lines[0] and "r = 2" in lines[0]

    def test_fixed_r_and_value_record_defaults_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "eq69-frakd-poly", "--r", "2")
        assert code == 0 and out.startswith("PASS eq69-frakd-poly r=2 ")
        code, out, _ = run(capsys, "verify", "--id", "eq56-frakd-value", "--r", "1")
        assert code == 0 and out.startswith("PASS eq56-frakd-value r=1 ")


class TestVerifyLimits:
    """--terms, --grid and --r above their documented limits are refused
    before any work: exit 2 at once, one `error:` line that names the flag
    and its limit, nothing on stdout."""

    @pytest.mark.parametrize("flag,value,limit", [
        ("--terms", "100000000", cli.MAX_TERMS), ("--grid", "100000000", cli.MAX_GRID),
        ("--terms", str(cli.MAX_TERMS + 1), cli.MAX_TERMS),
        ("--grid", str(cli.MAX_GRID + 1), cli.MAX_GRID),
        ("--r", str(cli.MAX_R + 1), cli.MAX_R), ("--r", "10000000", cli.MAX_R),
    ])
    def test_refused(self, capsys, flag, value, limit):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "--id", "thm11-cos", "--r", "1",
                             f"{flag}={value}")
        assert time.perf_counter() - t0 < 1.0
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert flag in lines[0] and str(limit) in lines[0]

    def test_limits_clear_the_documented_rows(self):
        from trigsum.registry import default_suite
        assert cli.MAX_TERMS >= 10 * max(entry.N for entry in default_suite())
        assert cli.MAX_GRID >= 10 * 50 and cli.MAX_R >= 8 * 12

    def test_at_the_limits(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "thm11-cos",
                           "--r", str(cli.MAX_R), "--terms", "10", "--grid", "2")
        assert code == 0 and out.startswith(f"PASS thm11-cos r={cli.MAX_R} ")
        code, out, _ = run(capsys, "verify", "--id", "thm11-sin", "--r", "2",
                           "--terms", str(cli.MAX_TERMS), "--grid", "2")
        assert code == 0 and out.startswith(f"PASS thm11-sin r=2 N={cli.MAX_TERMS} ")


class TestValueLimits:
    """exact --n (harmonic with a limit of its own), zeta-odd --r and the
    --digits of zeta-odd and oracle above their documented limits are
    refused before any work, as verify's flags are."""

    @pytest.mark.parametrize("argv,flag,limit", [
        (("exact", "frakd", "--n", str(cli.MAX_N + 1)), "--n", cli.MAX_N),
        (("exact", "eta-even", "--n", "1000000000"), "--n", cli.MAX_N),
        (("exact", "euler-number", "--n", str(2 * cli.MAX_N)), "--n", cli.MAX_N),
        (("exact", "harmonic", "--n", str(cli.MAX_HARMONIC_N + 1)), "--n",
         cli.MAX_HARMONIC_N),
        (("exact", "harmonic", "--n", "100000"), "--n", cli.MAX_HARMONIC_N),
        (("zeta-odd", "--r", str(cli.MAX_ZETA_R + 1)), "--r", cli.MAX_ZETA_R),
        (("zeta-odd", "--r", "2000"), "--r", cli.MAX_ZETA_R),
        (("zeta-odd", "--r", "1", "--digits", str(cli.MAX_DIGITS + 1)), "--digits",
         cli.MAX_DIGITS),
        (("zeta-odd", "--r", "1", "--digits", "20000"), "--digits", cli.MAX_DIGITS),
        (("oracle", "--series", "zeta", "--s", "3", "--digits", "3000"), "--digits",
         cli.MAX_DIGITS),
        (("oracle", "--series", "hurwitz", "--a", "1/3", "--s", "2",
          "--digits", str(cli.MAX_DIGITS + 1)), "--digits", cli.MAX_DIGITS),
    ])
    def test_refused(self, capsys, argv, flag, limit):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert flag in lines[0] and str(limit) in lines[0]

    def test_limits_clear_the_tested_values(self):
        # exact zeta-even 900 and harmonic 12000 (test_past_the_int_str_digit_limit),
        # zeta-odd r 150, and 1000 digits (the library's own tests; the
        # benchmark's probes ask for 400)
        assert cli.MAX_N >= 900 and cli.MAX_HARMONIC_N >= 12_000
        assert cli.MAX_ZETA_R >= 150 and cli.MAX_DIGITS >= 1000

    @pytest.mark.parametrize("argv", [
        ("exact", "zeta-even", "--n", str(cli.MAX_N)),
        ("exact", "harmonic", "--n", str(cli.MAX_HARMONIC_N)),
        ("zeta-odd", "--r", str(cli.MAX_ZETA_R)),
        ("oracle", "--series", "zeta", "--s", "3", "--digits", str(cli.MAX_DIGITS)),
    ])
    def test_at_the_limits(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and err == ""


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("exact", "cald", "--n", "2", "--format", "json"),
        ("zeta-odd", "--r", "2", "--method", "thm17", "--digits", "25"),
        ("oracle", "--series", "frakD", "--s", "2", "--digits", "25"),
        ("map", "cospow", "--sum=-ln(1-t)", "--kind", "sin", "--format", "json"),
        ("verify", "--all"),
        ("identities",),
        ("verify", "--id", "thm11-cos", "--r", "1", "--grid", "5"),
    ])
    def test_repeat_runs_identical(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestInternalError:
    def test_unexpected_error_exits_2(self, capsys, monkeypatch):
        # exit 1 means a failed verification; any other error exits 2
        def broken(args):
            raise RuntimeError("no such state")

        monkeypatch.setattr(cli, "_cmd_identities", broken)
        code, out, err = run(capsys, "identities")
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: internal: RuntimeError: no such state"]


class TestIdentitiesListing:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "identities", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) >= 18


def run_python(*args, env=None):
    """`python *args` in a new interpreter on this checkout, with env added
    to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, **(env or {}), "PYTHONPATH": path})


def run_fresh(*argv, env=None):
    """`python -m trigsum.cli` in a new interpreter on this checkout."""
    return run_python("-m", "trigsum.cli", *argv, env=env)


def test_suite_rows_independent_of_blas_threads():
    # the grid sums use numpy's own loops, not BLAS, whose sums may change
    # with its thread count
    argv = ("verify", "--suite", "--format", "csv")
    one = run_fresh(*argv, env={"OPENBLAS_NUM_THREADS": "1"})
    two = run_fresh(*argv, env={"OPENBLAS_NUM_THREADS": "2"})
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout and one.stdout.count("\n") == 57


@pytest.mark.parametrize("argv", [
    ("map", "fourier", "--sum=-ln(1-t)*t/(1+t^2)", "--kind", "sin", "--c", "pi",
     "--format", "json"),
    ("map", "cospow", "--sum=-ln(1-t) + t/(1-t)^2", "--kind", "cos"),
    ("operator", "apply", "--kind", "sin", "--expr", "arccot(x)*ln(x)/sin(x)^2",
     "--arg", "x", "--shift", "h", "--format", "json"),
], ids=["map-fourier", "map-cospow", "operator-apply"])
def test_stdout_independent_of_hash_seed(argv):
    # expression nodes hash by identity and strings by a per-process seed,
    # so any output that followed set or hash order would differ here
    runs = [run_fresh(*argv, env={"PYTHONHASHSEED": seed}) for seed in ("0", "1")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout != ""


class TestFreshProcessErrors:
    """Each command imports its own modules, and the errors that map to exit
    2 are imported only when one is raised: a new process still exits 2."""

    @pytest.mark.parametrize("argv", [
        ("operator", "apply", "--kind", "cos", "--expr", "sin(", "--arg", "x",
         "--shift", "h"),
        ("verify", "--id", "no-such-identity"),
        ("zeta-odd", "--r", "1", "--digits", "0"),
        ("operator", "apply", "--kind", "cos",
         "--expr=" + "sin(" * 3000 + "x" + ")" * 3000, "--arg", "x", "--shift", "h"),
        ("oracle", "--series", "hurwitz", "--a", "1/0", "--s", "3"),
        ("verify", "--id", "thm11-cos", "--r", "1", "--x0", "1/0"),
        ("verify", "--id", "thm11-cos", "--r", "1", "--terms", "100000000"),
        ("zeta-odd", "--r", "2000"),
        ("zeta-odd", "--r", "1", "--method", "nope"),
        ("oracle", "--series", "nope", "--s", "3"),
        ("verify", "--suite", "--id", "nope", "--grid", "7"),
        ("verify", "--all", "--id", "thm11-cos", "--tol", "5", "--x0", "1/9"),
        ("verify", "--all", "--suite"),
        ("verify", "--all", "--grid", "7"),
        ("verify", "--suite", "--terms", "10"),
        ("map", "fourier", "--sum=t^1000000000", "--kind", "cos"),
        ("map", "cospow", "--sum=t^640", "--kind", "sin"),
    ], ids=["parse-error", "unknown-identity", "precision-refusal", "nesting-3000",
            "hurwitz-offset-zero-denominator", "shift-zero-denominator",
            "terms-over-limit", "zeta-odd-r-over-limit", "unknown-method",
            "unknown-series", "verify-suite-and-id", "verify-all-and-id",
            "verify-all-and-suite", "verify-grid-without-id",
            "verify-terms-without-id", "map-power-1e9", "map-power-640"])
    def test_exit_2(self, argv):
        out = run_fresh(*argv)
        assert out.returncode == 2 and out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["map", "fourier", "--sum=sin(", "--kind", "cos"],
        ["map", "cospow", "--sum=tanh(t)", "--kind", "sin"],
    ], ids=["parse-error", "unsupported-head"])
    def test_refused_map_loads_no_registry(self, argv):
        # a refusal takes its error classes from the modules already loaded
        code = ("import contextlib, io, sys\n"
                "from trigsum.cli import main\n"
                "err = io.StringIO()\n"
                "with contextlib.redirect_stderr(err):\n"
                f"    code = main({argv!r})\n"
                "print(code, 'trigsum.registry' in sys.modules, 'mpmath' in sys.modules)\n"
                "print(err.getvalue(), end='')\n")
        out = run_python("-c", code)
        assert out.returncode == 0, out.stderr
        status, *lines = out.stdout.splitlines()
        assert status == "2 False False"
        assert len(lines) == 1 and lines[0].startswith("error:")
