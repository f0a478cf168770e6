"""Set-up, timed passes, correctness checks and metrics for one workload run."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import qsopt

import workloads
from checks import Checker, signature
from workloads import MaximizeSeq, ReduceLarge, SmallExactCli, Task

SETUP_REPEATS = 3
TAIL_BEYOND = 10


@dataclass
class Report:
    metrics: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def _median(values):
    return statistics.median(values) if values else float("nan")


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path, env: dict, hard_stop: float):
        self.seed = seed
        self.seconds = seconds
        self.hard_stop = hard_stop
        self.env = env
        self.cli = workload == "small-exact-cli"
        if self.cli:
            self.workload = SmallExactCli(work, env)
        else:
            self.workload = ReduceLarge() if workload == "reduce-large" else MaximizeSeq()
        self.report = Report()
        self.first: dict = {}  # (group, task key) -> signature of its first run
        self.cli_checker = Checker([])  # one for all passes: it holds the reference runs.csv

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """Import, build and warm up, each repeated; the sum of their medians."""
        self.import_times = [workloads.import_seconds(self.env) for _ in range(SETUP_REPEATS)]
        build_times, warm_times = [], []
        for _ in range(SETUP_REPEATS):
            self.built = None  # release the previous copy before building the next
            t0 = time.perf_counter()
            self.built = self.workload.build(self.seed)
            build_times.append(time.perf_counter() - t0)
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.workload.warm_up(self.seed)
            warm_times.append(time.perf_counter() - t0)
        parts = (_median(self.import_times), _median(build_times), _median(warm_times))
        self.report.lines.append(
            f"# setup: import {parts[0]:.4f} s, build {parts[1]:.4f} s, warm-up {parts[2]:.4f} s "
            f"(medians of {SETUP_REPEATS})"
        )
        return sum(parts)

    def instances(self, index: int) -> list:
        """Inputs of pass ``index``, built outside the timed region.

        Library instances are handed over once: holding two sets at a time
        would inflate peak_rss_mb.
        """
        if self.cli:
            return self.built
        if index == 0:
            built, self.built = self.built, None
            return built
        return self.workload.build(self.seed, index)

    # -- checking ---------------------------------------------------------------

    def checker(self, built: list, index: int) -> Checker:
        """Local minimality is tested on the first pass's instances only: on
        every pass it would cost as much as the passes themselves."""
        return self.cli_checker if self.cli else Checker(built, local_min=index == 0)

    def judge(self, tasks: list[Task], checker: Checker, group: int, label: str) -> None:
        """Count every task, and every task that raised or failed a check.

        Tasks of one ``group`` ran on the same inputs and must agree exactly.
        """
        for task in tasks:
            self.report.attempted += 1
            problems = checker.problems(task)
            sig = signature(task)
            if self.first.setdefault((group, task.key), sig) != sig:
                problems = problems + [f"{label} output differs from the first run on the same input"]
            if problems:
                self.report.failed += 1
                self.report.problems.append(f"{task.key}: {'; '.join(problems)}")

    # -- untraced run -------------------------------------------------------------

    def run(self) -> Report:
        """Passes until they have taken --seconds, at least ``min_passes``.

        ``wall_s`` is the time of a typical pass: the sum over the mix's
        tasks of each task's median over the passes. One slow stretch of
        the machine then costs one sample of the tasks it hit, not a whole
        pass, and every task type weighs as it does in a pass.
        """
        setup_s = self.setup()
        walls, tasks = [], []
        start = time.perf_counter()
        index = 0
        while True:
            if time.perf_counter() - start >= self.hard_stop:
                break
            if index >= self.workload.min_passes and sum(walls) >= self.seconds:
                break
            built = self.instances(index)
            gc.collect()  # the previous pass's garbage is not this pass's cost
            t0 = time.perf_counter()
            done = self.workload.run_pass(built, index)
            walls.append(time.perf_counter() - t0)
            self.judge(done, self.checker(built, index), 0 if self.cli else index, "rerun")
            if index == 0:
                quality = self.quality(done)
                # later passes build fresh instances: that churn is the benchmark's, not the program's
                peak_kb = workloads.self_peak_rss_kb()
            tasks += done
            built = None  # before the next build
            index += 1
        self.report.lines.append("# pass walls (s): " + " ".join(f"{w:.3f}" for w in walls))
        ms = [t.ms for t in tasks]
        by_key: dict = {}
        for t in tasks:
            by_key.setdefault(t.key, []).append(t.ms)
        self.report.lines.append(
            "# task medians (ms): " + " ".join(f"{k}={_median(v):.1f}" for k, v in by_key.items())
        )
        p_tail, pct, count = _tail(ms)
        m = self.report.metrics
        m["setup_s"] = setup_s
        m["wall_s"] = sum(_median(v) for v in by_key.values()) / 1000.0
        m["task_ms_p50"] = _median(ms)
        m["task_ms_tail"] = p_tail
        if self.cli:
            peak_kb = max(t.rss_kb for t in tasks)
        m["peak_rss_mb"] = peak_kb / 1024.0
        m.update({k: v for k, (v, _) in quality.items()})
        m["fail_frac"] = self.report.failed / self.report.attempted
        units = {
            "setup_s": "s",
            "wall_s": f"s    (sum of task medians over {len(walls)} passes; median pass {_median(walls):.4f} s)",
            "task_ms_p50": f"ms   ({count} tasks)",
            "task_ms_tail": f"ms   (p{pct:.1f} of {count} tasks)",
            "peak_rss_mb": "MB   " + ("(largest child)" if self.cli else "(set-up and first pass)"),
            "fail_frac": f"ratio ({self.report.failed}/{self.report.attempted})",
        }
        units.update({k: f"ratio {note}" for k, (_, note) in quality.items()})
        for name, unit in units.items():
            self.report.lines.append(f"{name:<22} {m[name]:>14.6g} {unit}")
        return self.report

    # -- quality of the results (deterministic per seed) ------------------------

    def quality(self, tasks: list[Task]) -> dict:
        ok = [t for t in tasks if t.error is None]
        out = {}
        if isinstance(self.workload, ReduceLarge):
            mins = [qsopt.reduction_rate(t.result[0], t.n) for t in ok if t.key.endswith("/min_lattice")]
            maxs = [qsopt.reduction_rate(t.result[0], t.n) for t in ok if t.key.endswith("/uqsfmax")]
            det = {t.key: qsopt.reduction_rate(t.result[0], t.n) for t in ok if t.key.startswith("determinant/")}
            out["reduction_rate_min"] = (_mean(mins), f"(mean of {len(mins)}; determinant {det.get('determinant/min_lattice', float('nan')):.4f})")
            out["reduction_rate_max"] = (_mean(maxs), f"(mean of {len(maxs)}; determinant {det.get('determinant/uqsfmax', float('nan')):.4f})")
        elif isinstance(self.workload, MaximizeSeq):
            by_key = {t.key: t.result for t in ok}
            rates = [qsopt.reduction_rate(r.lattice, r.lattice.capacity) for k, r in by_key.items() if "/u" in k]
            ratios = []
            for key, r in by_key.items():
                family, alg = key.split("/")
                u = by_key.get(f"{family}/u{alg}")
                if not alg.startswith("u") and u is not None and r.value > 0.0:
                    ratios.append(u.value / r.value)
            out["reduction_rate_max"] = (_mean(rates), f"(mean of {len(rates)} u_prefix lattices)")
            out["u_prefix_value_ratio"] = (_mean(ratios), f"(mean of {len(ratios)} pairs with plain > 0)")
        else:
            rows = []
            rates = []
            for t in ok:
                if t.key == "bench":
                    rows = [line.split(",") for line in t.result["runs.csv"].splitlines()[1:]]
                    rates += [float(r[8]) for r in rows if r[8]]
                elif t.key.startswith("exact/"):
                    free = workloads.field_value(t.result["stdout"], "free")
                    if free is not None:
                        rates.append((workloads.QSB_N - int(free)) / workloads.QSB_N)
            ratios = [float(r[7]) for r in rows if r[7] and float(r[6]) > 0.0]
            out["reduction_rate_max"] = (_mean(rates), f"(mean of {len(rates)}: u-variant rows and max-lattices)")
            out["exact_ratio_mean"] = (_mean(ratios), f"(mean of {len(ratios)} rows with exact > 0)")
        return out

    # -- traced run --------------------------------------------------------------

    def run_traced(self) -> Report:
        """Untraced and traced passes on the same inputs, alternating."""
        from tracing import Tracer

        self.setup()
        if self.cli:
            # the program as a user runs it: the reference for the in-process passes
            self.judge(self.workload.run_pass(self.built, 0), self.cli_checker, 0, "child-process")
            plain = self.workload.run_pass_in_process
        else:
            plain = self.workload.run_pass
        tracer = Tracer()
        # the first pass settles caches and the allocator; it is judged, not timed
        built = self.instances(0)
        self.judge(plain(built, 0), self.checker(built, 0), 0, "untraced")
        untraced, traced = [], []
        start = time.perf_counter()
        index = 1
        while True:
            built = self.instances(index)
            t0 = time.perf_counter()
            tasks = plain(built, index)
            untraced.append(time.perf_counter() - t0)
            checker = self.checker(built, index)
            self.judge(tasks, checker, 0 if self.cli else index, "untraced")
            with tracer.installed():
                # rebuilt under the wrappers, so algorithms see the timing proxies
                proxied = built if self.cli else self.workload.build(self.seed, index)
                t0 = time.perf_counter()
                tasks = plain(proxied, index)
                traced.append(time.perf_counter() - t0)
            self.judge(tasks, checker, 0 if self.cli else index, "traced")
            built = proxied = checker = None  # before the next build
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed >= self.seconds or elapsed >= self.hard_stop:
                break
        m = self.report.metrics
        m.update(tracer.metrics(len(traced)))
        m["cli.import_s"] = _median(self.import_times)
        m["tracing.overhead_frac"] = _median(traced) / _median(untraced) - 1.0
        self.report.lines.append(
            f"# traced passes {len(traced)}: median {_median(traced):.4f} s traced, "
            f"{_median(untraced):.4f} s untraced; per-layer values are per traced pass"
        )
        for name in sorted(m):
            self.report.lines.append(f"{name:<36} {m[name]:>14.6g}")
        return self.report


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def _tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count). With too few samples for
    that, the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, count
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count, count
