"""Package surface: public names resolve on first use, and importing the
package or a symbolic or precision entry module leaves numpy unloaded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trigsum


def modules_after_import(module):
    """The modules a new interpreter holds after `import module`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    return set(out.stdout.split())


@pytest.mark.parametrize("module", ["trigsum", "trigsum.cli", "trigsum.expr",
                                    "trigsum.mapping", "trigsum.dirichlet"])
def test_import_leaves_numpy_unloaded(module):
    loaded = modules_after_import(module)
    assert module in loaded
    assert "numpy" not in loaded
    if module == "trigsum.cli":
        assert "trigsum.registry" not in loaded


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
