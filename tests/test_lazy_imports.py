"""scipy is loaded by the determinant family on first use, not by importing qsopt."""

import json
import subprocess
import sys

from qsopt import IntervalLattice, SubsetBits, exact_opt, make_determinant, min_lattice, uqsfmax

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
    "full": F.value(qsopt.SubsetBits.full(10)).hex(),
    "min_lattice": [lo.lower.mask, lo.upper.mask],
    "max_lattice": [hi.lower.mask, hi.upper.mask],
}))
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
    F = make_determinant(10, 4)
    assert run["full"] == F.value(SubsetBits.full(10)).hex()
    assert run["min_lattice"] == masks(min_lattice(F)[0])
    lattice = uqsfmax(F)[0]
    assert run["max_lattice"] == masks(lattice)
    full = IntervalLattice(SubsetBits.empty(10), SubsetBits.full(10))
    _, optimizers = exact_opt(F, "max", full)
    assert optimizers and all(lattice.contains(x) for x in optimizers)
