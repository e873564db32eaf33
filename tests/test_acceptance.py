"""Acceptance gate: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them).

The criteria themselves live in trigsum.acceptance so that
``trigsum verify --all`` runs the identical suite."""

import pytest

from trigsum.acceptance import ALL_CRITERIA


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[fn.__name__ for fn in ALL_CRITERIA])
def test_criterion(criterion):
    name, passed, detail = criterion()
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {status} [{name}] {detail}")
    assert passed, f"{name}: {detail}"


def test_sweep_failure_names_each_row_once(monkeypatch):
    # an endpoint row's id already ends in @endpoints; the detail repeats it
    # as it is
    from trigsum import acceptance
    from trigsum.registry import VerificationReport
    row = VerificationReport(id="thm16-zeta-odd-cos@endpoints", r=1, c=1.0,
                             grid=2, N=10, tol=1e-10, max_error=1.0,
                             passed=False)
    monkeypatch.setattr(acceptance, "suite_reports", lambda: [row])
    name, passed, detail = acceptance.criterion_6_registry_sweep()
    assert not passed
    assert detail.startswith("1 grid/endpoint checks pass")
    assert detail.endswith("; failures: ['thm16-zeta-odd-cos@endpoints']")


def test_operator_oracle_stays_off_branch_cuts():
    # criterion 4 evaluates head(x + ih), and ln(1 + exp(x + ih)), with
    # 0 < h < pi: every argument has a positive imaginary part, so no ln or
    # sqrt argument lands on the negative real axis, where eval_complex
    # raises BranchCutError
    from math import pi
    from trigsum import acceptance
    boxes = [*acceptance._BOXES.values(),
             *(box for _, box in acceptance._ALGORITHMS.values())]
    assert all(0.05 <= h0 <= h1 < pi for _, _, h0, h1 in boxes)
