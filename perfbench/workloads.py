"""The benchmark's workloads: their inputs and what one pass runs.

Every instance comes from ``FunctionSpec(family, n, s, params)``, where s is
the benchmark's seed in the first pass and ``seed + p * PASS_SEED_STRIDE``
in pass p, so the same seed gives the same inputs. A task is one public
algorithm call on one instance, or one ``qsopt`` process on
``small-exact-cli``. Algorithms are looked up on the ``qsopt`` package at
call time, so the traced run's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import qsopt
from qsopt.harness import RATIO_ALGORITHMS

CHILD_TIMEOUT_S = 150.0
#: Pass p of a run with seed s builds its instances with seed s + p * stride.
PASS_SEED_STRIDE = 1_000_003


@dataclass
class Task:
    """One timed unit of work and what it returned."""

    key: str
    ms: float
    n: int = 0
    result: Any = None
    error: Optional[str] = None
    rss_kb: int = 0
    info: dict = field(default_factory=dict)


def _timed(key: str, n: int, call: Callable[[], Any]) -> Task:
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a task that raises is a counted failure, not a crash
        return Task(key, (time.perf_counter() - t0) * 1000.0, n, error=f"{type(exc).__name__}: {exc}")
    return Task(key, (time.perf_counter() - t0) * 1000.0, n, result)


def calls_bound(n: int) -> int:
    """The paper's query budget, acceptance criterion 4."""
    return 4 * n * n + 8 * n


# ---------------------------------------------------------------------------
# Library workloads


class LibraryWorkload:
    """A pass calls algorithms on each of its instances in turn.

    A run makes passes until they add up to ``--seconds``, and never fewer
    than ``min_passes``.
    """

    instances: tuple = ()
    min_passes = 1

    def build(self, seed: int, index: int = 0) -> list:
        """The instances of pass ``index``.

        Each pass draws its own instances, so a run's per-task medians are
        taken over instance draws: one draw's cost varies several-fold with
        the seed (the iteration count of half_products, for one).
        """
        pass_seed = seed + PASS_SEED_STRIDE * index
        specs = [qsopt.FunctionSpec(f, n, pass_seed, dict(p)) for f, n, p in self.instances]
        return [(spec, qsopt.instantiate(spec)) for spec in specs]

    def warm_up(self, seed: int) -> None:
        """Run the pass once on small instances of the same families."""
        specs = [qsopt.FunctionSpec(f, 60, seed, dict(p)) for f, _n, p in self.instances]
        self.run_pass([(spec, qsopt.instantiate(spec)) for spec in specs])

    def run_pass(self, built: list, index: int = 0) -> list[Task]:
        raise NotImplementedError


class ReduceLarge(LibraryWorkload):
    """Both reductions at the paper's headline scale."""

    instances = (
        ("iwata", 5000, {}),
        ("com", 5000, {}),
        ("cobb_douglas", 5000, {}),
        ("half_products", 5000, {}),
        ("perturbed_facility", 5000, {"d": 400}),
        # n=1000 underflows det(K_N) to 0.0 (a known defect); kept as measured
        ("determinant", 1000, {}),
    )

    def run_pass(self, built: list, index: int = 0) -> list[Task]:
        tasks = []
        for spec, F in built:
            tasks.append(_timed(f"{spec.family}/min_lattice", spec.n, lambda: qsopt.min_lattice(F)))
            tasks.append(_timed(f"{spec.family}/uqsfmax", spec.n, lambda: qsopt.uqsfmax(F)))
        return tasks


class MaximizeSeq(LibraryWorkload):
    """Sequential maximization baselines, plain and behind ``u_prefix``.

    Sized so that one pass takes about 3 s and a run holds about ten: at
    n=1000 (determinant n=400) a pass took 27 s, a run was a single pass,
    and its wall time moved by more than 25% from seed to seed.
    """

    instances = (
        ("perturbed_facility", 300, {"d": 400}),
        ("determinant", 200, {}),
        ("half_products", 400, {}),
        ("com", 400, {}),
    )
    rp_trials = 2
    rls_restarts = 1

    def run_pass(self, built: list, index: int = 0) -> list[Task]:
        tasks = []
        for spec, F in built:
            seed = spec.seed
            algorithms = (
                ("dg", lambda G: qsopt.double_greedy(G, list(range(1, G.n + 1)))),
                ("rp", lambda G: qsopt.random_permutation_greedy(G, self.rp_trials, seed)),
                ("rls", lambda G: qsopt.randomized_local_search(G, self.rls_restarts, seed)),
            )
            for alg, run in algorithms:
                tasks.append(_timed(f"{spec.family}/{alg}", spec.n, lambda: run(F)))
                tasks.append(
                    _timed(f"{spec.family}/u{alg}", spec.n, lambda: qsopt.u_prefix(F, run))
                )
        return tasks


# ---------------------------------------------------------------------------
# The CLI workload


RATIO_FAMILIES = ("iwata", "com", "half_products", "perturbed_facility", "determinant", "cobb_douglas")
QSB_N = 10
QSB_SPECS = 3
BENCH_TRIALS = 2


def masked_runs(text: str) -> list[str]:
    """runs.csv with the wall_ms column blanked: reruns must match exactly."""
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


class SmallExactCli:
    """``qsopt`` processes on small instances, run one after another."""

    # the rerun is what runs.csv is compared against, byte for byte
    min_passes = 2

    def __init__(self, work: Path, env: dict):
        self.work = work
        self.env = env

    def build(self, seed: int, index: int = 0) -> list:
        """Write the ratio config and the random quasi-submodular specs.

        Every pass reuses them: the second pass is the rerun whose runs.csv
        must match the first.
        """
        self.work.mkdir(parents=True, exist_ok=True)
        config = {
            "experiment": "ratio",
            "families": list(RATIO_FAMILIES),
            "sizes": [{"n": 12, "d": 48}],
            "trials": BENCH_TRIALS,
            "master_seed": seed,
            "algorithms": list(RATIO_ALGORITHMS),
        }
        (self.work / "ratio.json").write_text(json.dumps(config, indent=2) + "\n")
        specs = []
        for k in range(QSB_SPECS):
            F = qsopt.make_random_qsb(QSB_N, seed * QSB_SPECS + k)
            spec = qsopt.tabular_spec(F.params["values"], seed)
            path = self.work / f"qsb{k}.json"
            qsopt.save_spec(spec, path)
            specs.append((path.name, max(spec.params["values"])))
        return specs

    def commands(self, built: list, out: str) -> list[tuple[str, list[str], dict]]:
        cmds = [("bench", ["bench", "--config", "ratio.json", "--out", out], {})]
        for name, best in built:
            cmds.append((f"check/{name}", ["check", "--spec", name, "--property", "all"], {}))
            cmds.append(
                (
                    f"exact/{name}",
                    ["exact", "--spec", name, "--direction", "max", "--within-from", "max-lattice"],
                    {"best": best},
                )
            )
        return cmds

    def warm_up(self, seed: int) -> None:
        self._child(["--help"])

    def run_pass(self, built: list, index: int = 0) -> list[Task]:
        tasks = []
        out = f"out{index}"
        shutil.rmtree(self.work / out, ignore_errors=True)
        for key, argv, info in self.commands(built, out):
            task = self._child(argv)
            task.key = key
            task.info.update(info)
            tasks.append(task)
        self._collect(tasks, out)
        return tasks

    def run_pass_in_process(self, built: list, index: int = 0) -> list[Task]:
        """The same commands through ``qsopt.cli.main`` in this process (traced run)."""
        tasks = []
        out = f"out{index}"
        shutil.rmtree(self.work / out, ignore_errors=True)
        for key, argv, info in self.commands(built, out):
            buf = io.StringIO()
            with contextlib.chdir(self.work), contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                code = qsopt.cli.main(argv)
                ms = (time.perf_counter() - t0) * 1000.0
            task = Task(key, ms, QSB_N, {"code": code, "stdout": buf.getvalue()})
            task.info.update(info)
            if code != 0:
                task.error = f"exit code {code}"
            tasks.append(task)
        self._collect(tasks, out)
        return tasks

    def _collect(self, tasks: list[Task], out: str) -> None:
        """Attach the bench reports to the bench task."""
        for task in tasks:
            if task.key == "bench" and task.error is None:
                task.result["runs.csv"] = (self.work / out / "runs.csv").read_text()
                task.result["failures"] = (self.work / out / "failures.json").exists()

    def _child(self, argv: list[str]) -> Task:
        """Run ``python -m qsopt argv`` in the work directory; keep its own rusage."""
        stdout_path = self.work / "stdout.txt"
        with open(stdout_path, "w") as out, open(self.work / "stderr.txt", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "qsopt", *argv],
                cwd=self.work,
                env=self.env,
                stdout=out,
                stderr=err,
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            ms = (time.perf_counter() - t0) * 1000.0
        proc.returncode = os.waitstatus_to_exitcode(status)
        task = Task("", ms, QSB_N, {"code": proc.returncode, "stdout": stdout_path.read_text()})
        task.rss_kb = usage.ru_maxrss
        if proc.returncode != 0:
            task.error = f"exit code {proc.returncode}: {(self.work / 'stderr.txt').read_text()[-300:]}"
        return task


def field_value(stdout: str, name: str) -> Optional[str]:
    """The value of the first ``name=value`` token a command printed."""
    for token in stdout.split():
        if token.startswith(name + "="):
            return token.split("=", 1)[1]
    return None


def import_seconds(env: dict) -> float:
    """Time to import qsopt (and click via its CLI) in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import qsopt.cli; print(time.perf_counter() - t)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )
    return float(done.stdout.strip())


def self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
