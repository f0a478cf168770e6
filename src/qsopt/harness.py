"""Experiment runner: lattice-reduction rates, approximation ratios, timings.

A config names an experiment kind, the function families, the sizes, and the
trial count; every instance and every algorithm seed is derived from the
master seed with SeedSequence spawn keys, so a rerun of the same config is
bit-identical except for the wall-clock columns.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from statistics import mean, median
from typing import Optional

import numpy as np

from .baselines import (
    double_greedy,
    random_permutation_greedy,
    randomized_bidirectional_greedy,
    randomized_local_search,
)
from .errors import ConfigError, QsoptError
from .exact import TABLE_MAX_N, exact_opt
from .functions import FunctionSpec, instantiate
from .maximize import u_prefix, uqsfmax
from .minimize import min_lattice
from .sets import (
    DEFAULT_ENUMERATION_CAP,
    IntervalLattice,
    SubsetBits,
    lattice_free_count,
)

EXPERIMENTS = ("reduction", "ratio", "timing")
RATIO_ALGORITHMS = ("rp", "urp", "rls", "urls", "rg", "urg", "dg", "udg")


#: The integer fields of a config, each with its least allowed value.
_INTEGER_FIELDS = {
    "trials": 1,
    "master_seed": 0,
    "enumeration_cap": 0,
    "baseline_trials": 1,
    "ls_restarts": 1,
}


def _require_integer(key: str, value) -> None:
    """Reject a config value that is not an integer; a bool or a float is never one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"config field '{key}' must be an integer, got {value!r}")


def reduction_rate(lattice: IntervalLattice, n: int) -> float:
    """Fraction of ground-set elements whose membership the lattice fixes."""
    return (n - lattice_free_count(lattice)) / n


@dataclass
class ExperimentConfig:
    experiment: str
    families: list[str]
    sizes: list[dict]
    trials: int = 3
    master_seed: int = 0
    algorithms: list[str] = field(default_factory=lambda: ["rp", "urp", "rls", "urls", "rg", "urg"])
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    baseline_trials: int = 10
    ls_restarts: int = 10
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; pick from {EXPERIMENTS}")
        for key, least in _INTEGER_FIELDS.items():
            value = getattr(self, key)
            _require_integer(key, value)
            if value < least:
                raise ConfigError(f"config field '{key}' must be >= {least}, got {value}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if not self.families:
            raise ConfigError("families must be non-empty")
        if not self.sizes:
            raise ConfigError("sizes must be non-empty")
        norm = []
        for i, entry in enumerate(self.sizes):
            if isinstance(entry, int):
                entry = {"n": entry}
            if not isinstance(entry, dict) or "n" not in entry:
                raise ConfigError(f"size entries need an 'n' field, got {entry!r}")
            for key, value in entry.items():
                if key not in ("n", "d"):
                    raise ConfigError(f"unknown size field 'sizes[{i}].{key}'; pick from n, d")
                _require_integer(f"sizes[{i}].{key}", value)
            norm.append({k: int(v) for k, v in entry.items()})
        self.sizes = norm
        # the spec of each family x size cell is the one check of what the cell builds
        for fi, family in enumerate(self.families):
            for si, size in enumerate(self.sizes):
                try:
                    _instance_spec(family, size, 0)
                except ConfigError as exc:
                    raise ConfigError(f"families[{fi}] at sizes[{si}] {size}: {exc}") from None
        for alg in self.algorithms:
            if alg not in RATIO_ALGORITHMS:
                raise ConfigError(f"unknown algorithm {alg!r}; pick from {RATIO_ALGORITHMS}")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(f"bad config {path}: {exc}") from exc


@dataclass
class RunRow:
    family: str
    n: int
    seed: int
    algorithm: str
    direction: str
    value: Optional[float] = None
    exact_value: Optional[float] = None
    ratio: Optional[float] = None
    reduction_rate: Optional[float] = None
    iterations: Optional[int] = None
    eval_calls: Optional[int] = None
    wall_ms: Optional[float] = None

    def to_csv(self) -> str:
        return ",".join(
            "" if v is None else (repr(v) if isinstance(v, float) else str(v))
            for v in self.to_dict().values()
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


RUN_CSV_HEADER = ",".join(f.name for f in fields(RunRow))


@dataclass
class CellAggregate:
    family: str
    n: int
    algorithm: str
    direction: str
    runs: int
    mean_rate: Optional[float] = None
    min_rate: Optional[float] = None
    max_rate: Optional[float] = None
    mean_ratio: Optional[float] = None
    mean_value: Optional[float] = None
    mean_eval_calls: Optional[float] = None
    mean_wall_ms: Optional[float] = None
    median_wall_ms: Optional[float] = None

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class RunReport:
    experiment: str
    rows: list[RunRow] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def aggregates(self) -> list[CellAggregate]:
        cells: dict[tuple, list[RunRow]] = {}
        for row in self.rows:
            cells.setdefault((row.family, row.n, row.algorithm, row.direction), []).append(row)
        out = []
        for (family, n, alg, direction), rows in cells.items():
            rates = [r.reduction_rate for r in rows if r.reduction_rate is not None]
            ratios = [r.ratio for r in rows if r.ratio is not None]
            values = [r.value for r in rows if r.value is not None]
            calls = [r.eval_calls for r in rows if r.eval_calls is not None]
            walls = [r.wall_ms for r in rows if r.wall_ms is not None]
            out.append(
                CellAggregate(
                    family,
                    n,
                    alg,
                    direction,
                    runs=len(rows),
                    mean_rate=mean(rates) if rates else None,
                    min_rate=min(rates) if rates else None,
                    max_rate=max(rates) if rates else None,
                    mean_ratio=mean(ratios) if ratios else None,
                    mean_value=mean(values) if values else None,
                    mean_eval_calls=mean(calls) if calls else None,
                    mean_wall_ms=mean(walls) if walls else None,
                    median_wall_ms=median(walls) if walls else None,
                )
            )
        return out

    def runs_csv(self) -> str:
        lines = [RUN_CSV_HEADER]
        lines += [row.to_csv() for row in self.rows]
        return "\n".join(lines) + "\n"

    def summary_csv(self) -> str:
        names = [f.name for f in fields(CellAggregate)]
        split = names.index("runs") + 1  # the cell key and run count, then the statistics
        lines = [",".join(names)]
        for agg in self.aggregates():
            d = agg.to_dict()
            cols = [str(d[k]) for k in names[:split]]
            cols += ["" if d[k] is None else repr(float(d[k])) for k in names[split:]]
            lines.append(",".join(cols))
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        if fmt == "csv":
            runs = out / "runs.csv"
            runs.write_text(self.runs_csv())
            summary = out / "summary.csv"
            summary.write_text(self.summary_csv())
            written += [runs, summary]
        else:
            runs = out / "runs.json"
            runs.write_text(
                json.dumps(
                    {
                        "experiment": self.experiment,
                        "rows": [r.to_dict() for r in self.rows],
                        "failures": self.failures,
                    },
                    indent=2,
                )
                + "\n"
            )
            summary = out / "summary.json"
            summary.write_text(
                json.dumps([a.to_dict() for a in self.aggregates()], indent=2) + "\n"
            )
            written += [runs, summary]
        if self.failures:
            failures = out / "failures.json"
            failures.write_text(json.dumps(self.failures, indent=2) + "\n")
            written.append(failures)
        return written


def _derived_seed(master: int, *key: int) -> int:
    seq = np.random.SeedSequence(master, spawn_key=tuple(key))
    return int(seq.generate_state(1, np.uint64)[0] & np.uint64(2**63 - 1))


def _instance_spec(family: str, size: dict, seed: int) -> FunctionSpec:
    params = {}
    if family == "perturbed_facility":
        params["d"] = size.get("d", 4 * size["n"])
    return FunctionSpec(family, size["n"], seed, params)


#: Maximization baselines by name, called as ``run(F, trials, restarts, seed)``:
#: ``trials`` repeats ``rp``/``rg``, ``restarts`` restarts ``rls``, ``dg`` is
#: deterministic. Each entry looks its baseline up at call time.
BASELINES = {
    "rp": lambda F, trials, restarts, seed: random_permutation_greedy(F, trials, seed),
    "rls": lambda F, trials, restarts, seed: randomized_local_search(F, restarts, seed),
    "rg": lambda F, trials, restarts, seed: randomized_bidirectional_greedy(F, trials, seed),
    "dg": lambda F, trials, restarts, seed: double_greedy(F, list(range(1, F.n + 1))),
}


def baseline_runner(name: str, trials: int, restarts: int, seed: int):
    """The baseline ``name`` as a one-argument callable on an oracle."""
    run = BASELINES[name]
    return lambda F: run(F, trials, restarts, seed)


def _algorithm_runner(name: str, cfg: ExperimentConfig, algo_seed: int):
    """Runner for a plain or ``u``-prefixed algorithm name, and whether it is reduced."""
    if name in BASELINES:
        return baseline_runner(name, cfg.baseline_trials, cfg.ls_restarts, algo_seed), False
    inner = baseline_runner(name[1:], cfg.baseline_trials, cfg.ls_restarts, algo_seed)
    return (lambda F: u_prefix(F, inner)), True


def _exact_max(oracle, n: int, cap: int) -> float:
    """Ground-truth maximum: full table when affordable, else over the reduced interval."""
    if n <= TABLE_MAX_N:
        lattice = IntervalLattice(SubsetBits.empty(n), SubsetBits.full(n))
    else:
        lattice, _ = uqsfmax(oracle)
    value, _ = exact_opt(oracle, "max", lattice, cap=cap)
    return value


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - t0) * 1000.0


def _reduction_rows(cfg: ExperimentConfig, oracle, family: str, seed: int, algo_seed: int):
    """Both reductions on one instance: rates, iterations, calls, wall time."""
    n = oracle.n
    (lat_min, (up, down)), ms = _timed(min_lattice, oracle)
    yield RunRow(
        family,
        n,
        seed,
        "uqsfmin",
        "min",
        value=min(oracle.value(lat_min.lower), oracle.value(lat_min.upper)),
        reduction_rate=reduction_rate(lat_min, n),
        iterations=up.iterations + down.iterations,
        eval_calls=up.total_calls + down.total_calls,
        wall_ms=ms,
    )
    (lat_max, trace), ms = _timed(uqsfmax, oracle)
    yield RunRow(
        family,
        n,
        seed,
        "uqsfmax",
        "max",
        value=max(oracle.value(lat_max.lower), oracle.value(lat_max.upper)),
        reduction_rate=reduction_rate(lat_max, n),
        iterations=trace.iterations,
        eval_calls=trace.total_calls,
        wall_ms=ms,
    )


def _baseline_rows(cfg: ExperimentConfig, oracle, family: str, seed: int, algo_seed: int):
    """Every configured baseline on one instance; plain and reduced variants share seeds.

    ``ratio`` adds the exact maximum, the ratio and the reduced variants'
    iterations. Rows where the exact maximum is not strictly positive keep
    their value but leave the ratio blank: a ratio of signed quantities would
    be meaningless.
    """
    n = oracle.n
    with_exact = cfg.experiment == "ratio"
    exact_value = _exact_max(oracle, n, cfg.enumeration_cap) if with_exact else None
    for name in cfg.algorithms:
        runner, is_u = _algorithm_runner(name, cfg, algo_seed)
        result, ms = _timed(runner, oracle)
        row = RunRow(family, n, seed, name, "max", value=result.value, wall_ms=ms)
        if is_u:
            row.reduction_rate = reduction_rate(result.lattice, n)
            row.eval_calls = result.trace.total_calls + (
                result.inner.oracle_calls if result.inner else 0
            )
        else:
            row.eval_calls = result.oracle_calls
        if with_exact:
            row.exact_value = exact_value
            row.ratio = result.value / exact_value if exact_value > 0.0 else None
            row.iterations = result.trace.iterations if is_u else None
        yield row


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run every family x size x trial cell of the config.

    ``timing`` first runs one unmeasured warmup per cell on the trial-0
    instance; a failed warmup skips the cell.
    """
    report = RunReport(cfg.experiment)
    build_rows = _reduction_rows if cfg.experiment == "reduction" else _baseline_rows
    warmup = ["warmup"] if cfg.experiment == "timing" else []
    for fi, family in enumerate(cfg.families):
        for si, size in enumerate(cfg.sizes):
            for trial in warmup + list(range(cfg.trials)):
                key = 0 if trial == "warmup" else trial
                seed = _derived_seed(cfg.master_seed, fi, si, key, 0)
                algo_seed = _derived_seed(cfg.master_seed, fi, si, key, 1)
                try:
                    oracle = instantiate(_instance_spec(family, size, seed))
                    for row in build_rows(cfg, oracle, family, seed, algo_seed):
                        if trial != "warmup":
                            report.rows.append(row)
                except QsoptError as exc:
                    report.failures.append(
                        {"family": family, "size": size, "trial": trial, "error": str(exc)}
                    )
                    if trial == "warmup":
                        break
    return report


def run_reduction_experiment(cfg: ExperimentConfig) -> RunReport:
    return run_experiment(replace(cfg, experiment="reduction"))


def run_ratio_experiment(cfg: ExperimentConfig) -> RunReport:
    return run_experiment(replace(cfg, experiment="ratio"))


def run_timing_experiment(cfg: ExperimentConfig) -> RunReport:
    return run_experiment(replace(cfg, experiment="timing"))
