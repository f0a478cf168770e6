"""What the BLAS thread count changes: value bits of the determinant family, no decision.

scipy's LAPACK factors and inverts a kernel block in a different summation
order with one OpenBLAS thread than with two, so determinant values can
differ in their last bits between the two settings. The sign tests of the
reductions and of double greedy must not flip: each child process below runs
``min_lattice``, ``uqsfmax`` and ``double_greedy`` on determinant instances
and prints every decision it made, and the two thread settings must print
the same. Values are left out on purpose.
"""

import json
import os
import subprocess
import sys

CHILD = """
import json
from qsopt import FunctionSpec, double_greedy, instantiate, min_lattice, uqsfmax

def steps(trace):
    return [[s.added.mask, s.removed.mask, s.eval_calls] for s in trace.steps]

out = []
for seed in (1, 2):
    F = instantiate(FunctionSpec("determinant", 300, seed))
    low, traces = min_lattice(F)
    high, trace = uqsfmax(F)
    greedy = double_greedy(F, list(range(1, F.n + 1)))
    out.append({
        "min_lattice": [low.lower.mask, low.upper.mask],
        "min_traces": [[steps(t), t.eval_calls, t.marginal_calls] for t in traces],
        "uqsfmax": [high.lower.mask, high.upper.mask],
        "max_trace": [steps(trace), trace.eval_calls, trace.marginal_calls],
        "double_greedy": [greedy.set.mask, greedy.oracle_calls],
    })
print(json.dumps(out))
"""


def _decisions(threads: str) -> list:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_thread_count_changes_no_decision():
    one, two = _decisions("1"), _decisions("2")
    assert one == two
    # every run moved elements, so the comparison covers real decisions
    assert all(len(run["max_trace"][0]) > 1 for run in one)
