"""Correctness checks run on every task, outside the timed region.

Each check returns the list of problems it found; an empty list passes. The
costly checks are cached on (task key, output signature): a repeated task
with identical output has already been judged.
"""

from __future__ import annotations

import qsopt
from qsopt.baselines import BaselineResult
from qsopt.harness import RUN_CSV_HEADER
from qsopt.maximize import UPrefixResult

from workloads import QSB_N, Task, calls_bound, field_value, masked_runs

#: Fresh local-minimality checks cost n evaluations; above this many
#: estimated flops per endpoint they are skipped (facility and determinant
#: endpoints with thousands of members).
LOCAL_MIN_BUDGET = 2e8
RATIO_SLACK = 1e-9


def signature(task: Task):
    """What a task returned, reduced to exactly comparable values."""
    r = task.result
    if task.error is not None:
        return ("error", task.error)
    if isinstance(r, dict):  # a qsopt process
        if "runs.csv" in r:
            return (r["code"], r["failures"], tuple(masked_runs(r["runs.csv"])))
        return (r["code"], r["stdout"])
    if isinstance(r, BaselineResult):
        return (r.set.mask, r.value, r.oracle_calls)
    if isinstance(r, UPrefixResult):
        inner = None if r.inner is None else (r.inner.set.mask, r.inner.value, r.inner.oracle_calls)
        return (r.set.mask, r.value, _lattice_sig(r.lattice), _trace_sig(r.trace), inner)
    lattice, traces = r
    if isinstance(traces, tuple):  # min_lattice
        return (_lattice_sig(lattice),) + tuple(_trace_sig(t) for t in traces)
    return (_lattice_sig(lattice), _trace_sig(traces))


def _lattice_sig(lattice):
    return (lattice.lower.mask, lattice.upper.mask)


def _trace_sig(trace):
    return (trace.iterations, trace.eval_calls, trace.marginal_calls, tuple(trace.steps))


class Checker:
    """Judges tasks of one workload against its instances.

    ``local_min`` turns on the fresh local-minimality test of min_lattice
    endpoints, which costs n evaluations per endpoint.
    """

    def __init__(self, built: list, local_min: bool = False):
        self.oracles = {spec.family: (spec, F) for spec, F in built}
        self.local_min = local_min
        self.cache: dict = {}
        self.reference_runs: str | None = None

    def problems(self, task: Task) -> list[str]:
        if task.error is not None:
            return [task.error]
        key = (task.key, signature(task))
        if key not in self.cache:
            self.cache[key] = self._judge(task)
        return self.cache[key]

    def _judge(self, task: Task) -> list[str]:
        if isinstance(task.result, dict):
            return self._judge_process(task)
        family, alg = task.key.split("/")
        spec, F = self.oracles[family]
        r = task.result
        if alg == "min_lattice":
            lattice, traces = r
            out = _lattice_problems(lattice) + [p for t in traces for p in _trace_problems(t, spec.n)]
            for t in traces:
                out += _value_problems(F, t.result, t.steps[-1].value, "fixed point")
            for end in (lattice.lower, lattice.upper):
                if self.local_min and _local_min_affordable(spec, end) and not qsopt.is_local_min(F, end):
                    out.append(f"endpoint {len(end)} members is not a local minimum")
            return out
        if alg == "uqsfmax":
            lattice, trace = r
            out = _lattice_problems(lattice) + _trace_problems(trace, spec.n)
            out += _value_problems(F, lattice.lower, trace.steps[-1].fx, "X+")
            out += _value_problems(F, lattice.upper, trace.steps[-1].fy, "Y+")
            return out
        out = _value_problems(F, r.set, r.value, "result")
        if isinstance(r, UPrefixResult):
            out += _lattice_problems(r.lattice) + _trace_problems(r.trace, spec.n)
            if not r.lattice.contains(r.set):
                out.append("u_prefix result escapes its lattice")
        return out

    def _judge_process(self, task: Task) -> list[str]:
        stdout = task.result["stdout"]
        if task.key == "bench":
            return self._judge_bench(task)
        if task.key.startswith("check/"):
            holds = dict(line.split(": holds=", 1) for line in stdout.splitlines() if ": holds=" in line)
            # random instances are quasi-submodular by construction; submodularity may fail
            return [f"{p} does not hold" for p in ("qsb", "ssbc", "weak") if not holds.get(p, "").startswith("true")]
        value = field_value(stdout, "value")
        free = field_value(stdout, "free")
        out = []
        if value is None or float(value) != task.info["best"]:
            out.append(f"exact max within max-lattice is {value}, table max is {task.info['best']!r}")
        if free is None or not 0 <= int(free) <= QSB_N:
            out.append(f"bad free count {free}")
        return out

    def _judge_bench(self, task: Task) -> list[str]:
        text = task.result["runs.csv"]
        lines = text.splitlines()
        out = []
        if task.result["failures"]:
            out.append("bench wrote failures.json")
        if not lines or lines[0] != RUN_CSV_HEADER:
            return out + ["runs.csv header changed"]
        for line in lines[1:]:
            ratio = line.split(",")[7]
            if ratio and float(ratio) > 1.0 + RATIO_SLACK:
                out.append(f"ratio {ratio} above 1: {line}")
        if self.reference_runs is None:
            self.reference_runs = text
        elif masked_runs(text) != masked_runs(self.reference_runs):
            out.append("rerun runs.csv differs once wall_ms is masked")
        return out


def _lattice_problems(lattice) -> list[str]:
    if not lattice.lower.is_subset(lattice.upper):
        return ["lower endpoint is not inside the upper one"]
    return []


def _trace_problems(trace, n: int) -> list[str]:
    out = []
    if trace.iterations > n + 1:
        out.append(f"{trace.iterations} iterations exceed n+1 = {n + 1}")
    if trace.total_calls > calls_bound(n):
        out.append(f"{trace.total_calls} oracle calls exceed 4n^2+8n = {calls_bound(n)}")
    return out


def _value_problems(F, x, reported: float, what: str) -> list[str]:
    fresh = F.value(x)
    if not qsopt.values_close(reported, fresh):
        return [f"{what} value {reported!r} differs from fresh evaluation {fresh!r}"]
    return []


def _local_min_affordable(spec, x) -> bool:
    k = len(x)
    if spec.family == "perturbed_facility":
        per_eval = k * spec.params["d"]
    elif spec.family == "determinant":
        per_eval = k**3 / 3.0
    else:
        per_eval = spec.n
    return spec.n * per_eval <= LOCAL_MIN_BUDGET
