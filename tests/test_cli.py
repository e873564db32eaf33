"""Command-line interface: outputs, schemas, exit codes, determinism."""

import json

import pytest

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


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("exact", "cald", "--n", "2", "--format", "json"),
        ("zeta-odd", "--r", "2", "--method", "thm17", "--digits", "25"),
        ("oracle", "--series", "frakD", "--s", "2", "--digits", "25"),
        ("map", "cospow", "--sum=-ln(1-t)", "--kind", "sin", "--format", "json"),
        ("verify", "--all"),
    ])
    def test_repeat_runs_identical(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestIdentitiesListing:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "identities", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) >= 18
