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
from dataclasses import asdict, dataclass, field, fields, replace
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
from .errors import ConfigError, QsoptError, require_kind
from .exact import TABLE_MAX_N, exact_opt
from .functions import FunctionSpec, family_parameters, instantiate
from .maximize import u_prefix, uqsfmax
from .minimize import min_lattice
from .sets import (
    DEFAULT_ENUMERATION_CAP,
    IntervalLattice,
    SubsetBits,
    lattice_free_count,
)

EXPERIMENTS = ("reduction", "ratio", "timing")


#: The integer fields of a config, each with its least allowed value.
_INTEGER_FIELDS = {
    "trials": 1,
    "master_seed": 0,
    "enumeration_cap": 0,
    "baseline_trials": 1,
    "ls_restarts": 1,
}


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
            require_kind(value, numbers.Integral, "an integer", f"config field '{key}'")
            if value < least:
                raise ConfigError(f"config field '{key}' must be >= {least}, got {value}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        for key in ("families", "sizes", "algorithms"):
            require_kind(getattr(self, key), list, "a list", f"config field '{key}'")
        if not self.families:
            raise ConfigError("families must be non-empty")
        if not self.sizes:
            raise ConfigError("sizes must be non-empty")
        size_keys = ["n"]  # and each parameter that a configured family takes
        for family in self.families:
            size_keys += [k for k in family_parameters(family) if k not in size_keys]
        norm = []
        for i, entry in enumerate(self.sizes):
            if isinstance(entry, int):
                entry = {"n": entry}
            if not isinstance(entry, dict) or "n" not in entry:
                raise ConfigError(f"size entries need an 'n' field, got {entry!r}")
            for key, value in entry.items():
                if key not in size_keys:
                    pick = ", ".join(size_keys)
                    raise ConfigError(f"unknown size field 'sizes[{i}].{key}'; pick from {pick}")
                require_kind(value, numbers.Integral, "an integer", f"config field 'sizes[{i}].{key}'")
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


#: Every statistic of a ``CellAggregate``: the run field it reduces over the
#: cell's runs that set it, and how. No such run leaves the statistic blank.
_STATISTICS = {
    "mean_rate": ("reduction_rate", mean),
    "min_rate": ("reduction_rate", min),
    "max_rate": ("reduction_rate", max),
    "mean_ratio": ("ratio", mean),
    "mean_value": ("value", mean),
    "mean_eval_calls": ("eval_calls", mean),
    "mean_wall_ms": ("wall_ms", mean),
    "median_wall_ms": ("wall_ms", median),
}


def _cell(name: str, value) -> str:
    """The CSV text of a record field: blank for None, a float's repr for a float or a statistic.

    A statistic is a float in the CSV even where ``mean`` of integer call
    counts returns an int; the JSON keeps the value as the reducer returns it.
    """
    if value is None:
        return ""
    if isinstance(value, float) or name in _STATISTICS:
        return repr(float(value))
    return str(value)


def _csv(record_type, records: list) -> str:
    lines = [",".join(f.name for f in fields(record_type))]
    lines += [",".join(_cell(k, v) for k, v in asdict(r).items()) for r in records]
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


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
        for key, rows in cells.items():
            stats = {}
            for name, (run_field, reduce) in _STATISTICS.items():
                values = [getattr(r, run_field) for r in rows if getattr(r, run_field) is not None]
                stats[name] = reduce(values) if values else None
            out.append(CellAggregate(*key, runs=len(rows), **stats))
        return out

    def runs_csv(self) -> str:
        return _csv(RunRow, self.rows)

    def summary_csv(self) -> str:
        return _csv(CellAggregate, self.aggregates())

    def write(self, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
        """Write runs, then the summary, then ``failures.json`` when a trial failed."""
        if fmt == "csv":
            texts = {"runs.csv": self.runs_csv(), "summary.csv": self.summary_csv()}
        else:
            rows = [asdict(r) for r in self.rows]
            texts = {
                "runs.json": _json({"experiment": self.experiment, "rows": rows, "failures": self.failures}),
                "summary.json": _json([asdict(a) for a in self.aggregates()]),
            }
        if self.failures:
            texts["failures.json"] = _json(self.failures)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out / name).write_text(text)
        return [out / name for name in texts]


def _derived_seed(master: int, *key: int) -> int:
    seq = np.random.SeedSequence(master, spawn_key=tuple(key))
    return int(seq.generate_state(1, np.uint64)[0] & np.uint64(2**63 - 1))


def _instance_spec(family: str, size: dict, seed: int) -> FunctionSpec:
    """The size's n, and those of its parameters the family takes; an absent one keeps its default."""
    takes = family_parameters(family)
    return FunctionSpec(family, size["n"], seed, {k: v for k, v in size.items() if k in takes})


#: Maximization baselines by name, called as ``run(F, trials, restarts, seed)``:
#: ``trials`` repeats ``rp``/``rg``, ``restarts`` restarts ``rls``, ``dg`` is
#: deterministic. Each entry looks its baseline up at call time.
BASELINES = {
    "rp": lambda F, trials, restarts, seed: random_permutation_greedy(F, trials, seed),
    "rls": lambda F, trials, restarts, seed: randomized_local_search(F, restarts, seed),
    "rg": lambda F, trials, restarts, seed: randomized_bidirectional_greedy(F, trials, seed),
    "dg": lambda F, trials, restarts, seed: double_greedy(F, list(range(1, F.n + 1))),
}

#: The algorithms of a ratio experiment: each baseline, then its ``u_prefix`` variant.
RATIO_ALGORITHMS = tuple(alg for name in BASELINES for alg in (name, "u" + name))


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


def _exact_max(oracle, cap: int) -> float:
    """Ground-truth maximum: over the full cube when affordable, else over the reduced interval."""
    n = oracle.n
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
    """Both reductions on one instance: the better endpoint value, rate, and trace sums.

    ``min_lattice`` has two traces and ``uqsfmax`` one. Each reduction's
    endpoint values are read from its last steps, which took them at the
    endpoints, so nothing is evaluated after it returns. The reductions are
    looked up at call time, so a patched ``min_lattice`` or ``uqsfmax`` runs.
    """
    n = oracle.n
    for name, direction, reduce, pick, endpoint_values in (
        ("uqsfmin", "min", min_lattice, min, lambda traces: [t.steps[-1].value for t in traces]),
        ("uqsfmax", "max", uqsfmax, max, lambda traces: [traces[0].steps[-1].fx, traces[0].steps[-1].fy]),
    ):
        (lattice, traces), ms = _timed(reduce, oracle)
        traces = traces if isinstance(traces, tuple) else (traces,)
        yield RunRow(
            family, n, seed, name, direction,
            value=pick(endpoint_values(traces)),
            reduction_rate=reduction_rate(lattice, n),
            iterations=sum(t.iterations for t in traces),
            eval_calls=sum(t.total_calls for t in traces),
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
    exact_value = _exact_max(oracle, cfg.enumeration_cap) if with_exact else None
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
