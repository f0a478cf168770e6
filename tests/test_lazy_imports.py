"""scipy is loaded by the determinant family on first use, not by importing qsopt.

Even then the family loads top-level ``scipy`` and the compiled modules
``scipy.linalg._flapack`` and ``_fblas`` alone: no process that builds a
determinant imports the ``scipy.linalg`` package, and the routines it calls
are the very objects that ``scipy.linalg.lapack`` and ``blas`` export.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

from qsopt import IntervalLattice, SubsetBits, exact_opt, make_determinant, min_lattice, uqsfmax
from qsopt.functions import _scipy_linalg_extension

DETERMINANT_RUN = """
import json, sys
import qsopt
loaded = ["scipy" in sys.modules]
F = qsopt.make_determinant(10, 4)
loaded.append("scipy" in sys.modules)
lo, _ = qsopt.min_lattice(F)
hi, _ = qsopt.uqsfmax(F)
print(json.dumps({
    "loaded": loaded,
    "scipy.linalg": "scipy.linalg" in sys.modules,
    "full": F.value(qsopt.SubsetBits.full(10)).hex(),
    "min_lattice": [lo.lower.mask, lo.upper.mask],
    "max_lattice": [hi.lower.mask, hi.upper.mask],
}))
"""

ROUTINES = {"dpotrf": "lapack", "dpotri": "lapack", "dsymm": "blas", "dsymv": "blas", "dsyr": "blas"}

# the determinant's routines beside scipy.linalg's, with the package imported before or after them
ROUTINES_RUN = """
import json, sys
from qsopt.functions import _linalg
if {before}:
    from scipy.linalg import blas, lapack
la = _linalg()
loaded = "scipy.linalg" in sys.modules
from scipy.linalg import blas, lapack
modules = {{"blas": blas, "lapack": lapack}}
print(json.dumps({{
    "loaded": loaded,
    "same": {{name: getattr(la, name) is getattr(modules[module], name) for name, module in {routines!r}.items()}},
}}))
"""


def python(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout


def masks(lattice: IntervalLattice) -> list[int]:
    return [lattice.lower.mask, lattice.upper.mask]


def test_cli_import_leaves_scipy_unloaded():
    assert python("import sys, qsopt.cli; print('scipy' in sys.modules)").strip() == "False"


def test_determinant_loads_scipy_on_first_use_and_reduces_as_before():
    run = json.loads(python(DETERMINANT_RUN))
    assert run["loaded"] == [False, True]
    assert run["scipy.linalg"] is False
    F = make_determinant(10, 4)
    assert run["full"] == F.value(SubsetBits.full(10)).hex()
    assert run["min_lattice"] == masks(min_lattice(F)[0])
    lattice = uqsfmax(F)[0]
    assert run["max_lattice"] == masks(lattice)
    full = IntervalLattice(SubsetBits.empty(10), SubsetBits.full(10))
    _, optimizers = exact_opt(F, "max", full)
    assert optimizers and all(lattice.contains(x) for x in optimizers)


@pytest.mark.parametrize("before", [False, True])
def test_determinant_routines_are_scipys_own(before):
    run = json.loads(python(ROUTINES_RUN.format(before=before, routines=ROUTINES)))
    assert run["loaded"] is before
    assert run["same"] == dict.fromkeys(ROUTINES, True)


def test_missing_extension_module_names_directory_and_scipy_version():
    directory = Path(scipy.__path__[0]) / "linalg"
    with pytest.raises(ImportError, match=re.escape(f"scipy {scipy.__version__}")) as raised:
        _scipy_linalg_extension("_no_such_module")
    assert "_no_such_module" in str(raised.value) and str(directory) in str(raised.value)


def test_bench_on_a_determinant_imports_no_scipy_linalg(tmp_path):
    cfg = {"experiment": "ratio", "families": ["determinant"], "sizes": [6], "trials": 1, "algorithms": ["dg"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qsopt", "--quiet", "bench", "--config", str(cfg_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
    )
    # -X importtime writes one "import time: self | cumulative | module" line per module imported
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"scipy", "qsopt.functions"} <= imported
    assert not imported & {"scipy.linalg", "scipy._lib._array_api", "numpy.f2py"}
    assert "determinant" in (tmp_path / "out" / "runs.csv").read_text()
