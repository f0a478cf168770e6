"""Command-line interface.

Exit codes: 0 success, 2 config, usage or unwritable-output error, 3 internal
invariant violation (an algorithm guarantee failed at runtime, always worth a report).
"""

from __future__ import annotations

import contextlib
import csv
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

import click

from . import checkers
from .checkers import PROPERTIES, is_local_max, is_local_min
from .errors import CapExceeded, ConfigError, InternalInvariantError
from .exact import exact_opt, require_cap
from .functions import instantiate, load_spec, make_tabular
from .harness import BASELINES, ExperimentConfig, baseline_runner, reduction_rate, run_experiment
from .maximize import u_prefix, uqsfmax
from .minimize import min_lattice, uqsfmin
from .oracle import eval_table
from .sets import (
    DEFAULT_ENUMERATION_CAP,
    IntervalLattice,
    SubsetBits,
    format_set,
    lattice_free_count,
    parse_set,
)


@dataclass
class CliState:
    seed: Optional[int] = None
    fmt: Optional[str] = None
    quiet: bool = False

    def say(self, message: str) -> None:
        if not self.quiet:
            click.echo(message)


@click.group(name="qsopt")
@click.option("--seed", type=int, default=None, help="Override the seed of loaded instances.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default=None,
    help="Report format for bench outputs; overrides the config's format.",
)
@click.option("--quiet", is_flag=True, help="Suppress informational output.")
@click.pass_context
def cli(ctx: click.Context, seed: Optional[int], fmt: Optional[str], quiet: bool) -> None:
    """Quasi-submodular set-function optimization toolkit."""
    ctx.obj = CliState(seed, fmt, quiet)


def _load_oracle(state: CliState, spec_path: str):
    spec = load_spec(spec_path)
    if state.seed is not None:
        # a new spec, so the override is checked like a seed in the file
        spec = replace(spec, seed=state.seed)
    return instantiate(spec), spec


@cli.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--property",
    "prop",
    type=click.Choice(["all", *PROPERTIES]),
    default="all",
)
@click.pass_obj
def check(state: CliState, spec_path: str, prop: str) -> None:
    """Exhaustively verify structural properties of a small instance."""
    oracle, spec = _load_oracle(state, spec_path)
    selected = PROPERTIES if prop == "all" else {prop: PROPERTIES[prop]}
    for checker, cap in selected.values():
        require_cap(spec.n, cap, checker)
    table = make_tabular(eval_table(oracle))
    # every verdict before any line, so a run that fails prints none
    verdicts = {name: getattr(checkers, fn)(table) for name, (fn, _) in selected.items()}
    for name, verdict in verdicts.items():
        if verdict.holds:
            click.echo(f"{name}: holds=true")
        else:
            click.echo(f"{name}: holds=false witness: {verdict.witness.describe()}")


def _open_trace(path: Optional[str]):
    """The ``--trace`` file, opened before the run so that an unwritable path fails first."""
    return open(path, "w", newline="") if path else contextlib.nullcontext()


def _write_trace(fh, trace) -> None:
    """One CSV row per iteration, one column per step field: a set as its literal, else its repr."""
    names = [f.name for f in fields(trace.steps[0])]
    writer = csv.writer(fh)
    writer.writerow(names)
    for step in trace.steps:
        cells = (getattr(step, name) for name in names)  # not astuple: it would unpack each set
        writer.writerow([format_set(v) if isinstance(v, SubsetBits) else repr(v) for v in cells])


@cli.command(name="min")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--start", default="empty", help="empty, full, or a set literal like {1,3}.")
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
def min_cmd(state: CliState, spec_path: str, start: str, trace_path: Optional[str]) -> None:
    """Reduce toward a local minimum from a chosen start."""
    oracle, spec = _load_oracle(state, spec_path)
    n = spec.n
    if start == "empty":
        x0 = SubsetBits.empty(n)
    elif start == "full":
        x0 = SubsetBits.full(n)
    else:
        try:
            x0 = parse_set(start, n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    with _open_trace(trace_path) as fh:
        result, trace = uqsfmin(oracle, x0)
        if fh is not None:
            _write_trace(fh, trace)
    if state.quiet:  # both lines are informational, and the check costs n + 1 evaluations
        return
    state.say(f"start={format_set(x0)} result={format_set(result)}")
    state.say(
        f"value={trace.steps[-1].value!r} iterations={trace.iterations} "
        f"eval_calls={trace.total_calls} local_min={is_local_min(oracle, result)}"
    )


@cli.command(name="max")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
def max_cmd(state: CliState, spec_path: str, trace_path: Optional[str]) -> None:
    """Shrink [empty, full] to the interval bracketing every maximum."""
    oracle, spec = _load_oracle(state, spec_path)
    with _open_trace(trace_path) as fh:
        lattice, trace = uqsfmax(oracle)
        if fh is not None:
            _write_trace(fh, trace)
    free = lattice_free_count(lattice)
    # the endpoints carry no local-optimality guarantee: informational, so
    # the 2n extra evaluations are made only for a printed line, and not at large n
    if not state.quiet:
        lower_max = upper_max = None
        if spec.n <= 2048:
            lower_max = is_local_max(oracle, lattice.lower)
            upper_max = is_local_max(oracle, lattice.upper)
        state.say(
            f"lower_local_max={lower_max} upper_local_max={upper_max} "
            f"iterations={trace.iterations} eval_calls={trace.total_calls}"
        )
    click.echo(
        f"X+={format_set(lattice.lower)} Y+={format_set(lattice.upper)} "
        f"free={free} reduction_rate={reduction_rate(lattice, spec.n)!r}"
    )


@cli.command()
@click.option("--alg", type=click.Choice(list(BASELINES)), required=True)
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--trials", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--seed", "algo_seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--prefilter", is_flag=True, help="Reduce the lattice first, then run on the rest.")
@click.pass_obj
def baseline(
    state: CliState,
    alg: str,
    spec_path: str,
    trials: int,
    algo_seed: int,
    prefilter: bool,
) -> None:
    """Run a maximization baseline; rls interprets --trials as restarts."""
    oracle, _spec = _load_oracle(state, spec_path)
    runner = baseline_runner(alg, trials, trials, algo_seed)
    if prefilter:
        result = u_prefix(oracle, runner)
        state.say(
            f"reduction_rate={reduction_rate(result.lattice, oracle.n)!r} "
            f"free={lattice_free_count(result.lattice)}"
        )
        click.echo(f"set={format_set(result.set)} value={result.value!r}")
    else:
        result = runner(oracle)
        click.echo(
            f"set={format_set(result.set)} value={result.value!r} "
            f"oracle_calls={result.oracle_calls}"
        )


@cli.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--direction", type=click.Choice(["min", "max"]), required=True)
@click.option(
    "--within-from",
    "within_from",
    type=click.Choice(["full", "min-lattice", "max-lattice"]),
    default="full",
    show_default=True,
)
@click.option("--cap", type=click.IntRange(min=0), default=DEFAULT_ENUMERATION_CAP, show_default=True)
@click.pass_obj
def exact(state: CliState, spec_path: str, direction: str, within_from: str, cap: int) -> None:
    """Exhaustive optimum over the full cube or a reduced interval."""
    oracle, spec = _load_oracle(state, spec_path)
    n = spec.n
    if within_from == "min-lattice":
        lattice, _ = min_lattice(oracle)
    elif within_from == "max-lattice":
        lattice, _ = uqsfmax(oracle)
    else:
        lattice = IntervalLattice(SubsetBits.empty(n), SubsetBits.full(n))
    value, optimizers = exact_opt(oracle, direction, lattice, cap=cap)
    state.say(f"within={within_from} free={lattice_free_count(lattice)}")
    shown = " ".join(format_set(s) for s in optimizers[:16])
    suffix = "" if len(optimizers) <= 16 else f" (+{len(optimizers) - 16} more)"
    click.echo(f"value={value!r} optimizers={shown}{suffix}")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.pass_obj
def bench(state: CliState, config_path: str, out_dir: str) -> None:
    """Run a configured experiment and write runs plus summary reports."""
    cfg = ExperimentConfig.from_file(config_path)
    if state.fmt is not None:
        cfg.format = state.fmt
    report = run_experiment(cfg)
    written = report.write(out_dir, cfg.format)
    for path in written:
        state.say(f"wrote {path}")
    state.say(f"rows={len(report.rows)} failures={len(report.failures)}")


def main(argv: Optional[list[str]] = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 2
    except (ConfigError, CapExceeded, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except InternalInvariantError as exc:
        click.echo(f"internal invariant violated: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
