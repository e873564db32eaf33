"""Package surface: public names resolve on first use, importing a module
loads only what it needs, and a fresh CLI call loads only the modules its
command runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trigsum


def modules_after(code):
    """The modules a new interpreter holds after running ``code``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += "\nimport sys; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    *_, last = out.stdout.splitlines()
    return out.stdout, set(last.split())


def modules_after_import(module):
    """The modules a new interpreter holds after `import module`."""
    return modules_after(f"import {module}")[1]


@pytest.mark.parametrize("module", ["trigsum", "trigsum.cli", "trigsum.expr",
                                    "trigsum.mapping", "trigsum.dirichlet"])
def test_import_leaves_numpy_unloaded(module):
    loaded = modules_after_import(module)
    assert module in loaded
    assert "numpy" not in loaded
    if module == "trigsum.cli":
        assert "trigsum.registry" not in loaded


@pytest.mark.parametrize("module", ["trigsum.cli", "trigsum.expr",
                                    "trigsum.operators", "trigsum.mapping",
                                    "trigsum.exact"])
def test_import_leaves_mpmath_unloaded(module):
    loaded = modules_after_import(module)
    assert module in loaded
    assert "mpmath" not in loaded
    if module == "trigsum.cli":
        assert "trigsum.dirichlet" not in loaded


def _run_main(*argvs):
    return ("import contextlib, io\n"
            "from trigsum.cli import main\n"
            f"for argv in {list(argvs)!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n")


def test_exact_operator_and_map_commands_load_no_numeric_modules():
    _, loaded = modules_after(_run_main(
        ["exact", "frakd", "--n", "3", "--format", "json"],
        ["operator", "apply", "--kind", "sin", "--expr", "arccot(x)*ln(x)",
         "--arg", "x", "--shift", "h"],
        ["map", "fourier", "--sum=-ln(1-t)", "--kind", "sin"],
        ["map", "cospow", "--sum=t/(1-t)^2", "--kind", "cos"]))
    assert {"trigsum.exact", "trigsum.operators", "trigsum.mapping"} <= loaded
    assert not loaded & {"mpmath", "trigsum.dirichlet", "trigsum.registry",
                         "trigsum.evaluate", "numpy"}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_identities_loads_only_the_catalog(fmt):
    _, loaded = modules_after(_run_main(["identities", "--format", fmt]))
    assert "trigsum.catalog" in loaded
    assert not loaded & {"mpmath", "trigsum.registry", "trigsum.dirichlet",
                         "trigsum.exact", "numpy"}


def test_catalog_rows_are_the_registry_records():
    from trigsum.catalog import IDENTITIES
    from trigsum.registry import list_identities
    assert list(IDENTITIES) == [(r.id, r.kind, r.label) for r in list_identities()]


def test_oracle_loads_no_exact():
    # the oracle shares no code with the exact recurrences
    stdout, loaded = modules_after(
        "from trigsum.cli import main\n"
        "main(['oracle', '--series', 'zeta', '--s', '3'])")
    assert stdout.splitlines()[0] == "1.20205690315959428539973816151"
    assert "trigsum.dirichlet" in loaded and "trigsum.exact" not in loaded


def test_no_module_loads_dataclasses():
    # dataclasses brings in inspect, ast and dis, which a fresh CLI call
    # would pay for on every command
    package = Path(trigsum.__file__).parent
    modules = sorted(f"trigsum.{p.stem}" for p in package.glob("*.py")
                     if p.stem != "__init__")
    assert {"trigsum.catalog", "trigsum.registry", "trigsum.cli"} <= set(modules)
    _, loaded = modules_after("\n".join(f"import {m}" for m in modules))
    assert set(modules) <= loaded
    assert "dataclasses" not in loaded


def test_zeta_odd_loads_what_it_runs():
    stdout, loaded = modules_after(
        "from trigsum.cli import main\nmain(['zeta-odd', '--r', '1'])")
    assert stdout.splitlines()[0] == "1.20205690315959428539973816151"
    assert {"mpmath", "trigsum.dirichlet"} <= loaded


def test_evaluators_resolve_from_expr():
    from trigsum import evaluate, expr
    from trigsum.expr import EvalError, eval_real
    assert eval_real is evaluate.eval_real
    assert expr.eval_complex is evaluate.eval_complex
    assert trigsum.ComplexVal is evaluate.ComplexVal
    assert issubclass(EvalError, expr.ExprError)
    with pytest.raises(AttributeError):
        expr.no_such_name


def test_public_names_resolve():
    for name in trigsum.__all__:
        assert getattr(trigsum, name) is not None, name
    assert set(trigsum.__all__) <= set(dir(trigsum))
    with pytest.raises(AttributeError):
        trigsum.no_such_name


def test_star_import():
    namespace = {}
    exec("from trigsum import *", namespace)
    assert set(trigsum.__all__) <= set(namespace)
    assert namespace["verify"] is trigsum.registry.verify
    assert namespace["zeta_even"] is trigsum.exact.zeta_even
