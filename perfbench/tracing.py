"""Per-layer spans and counters, recorded from outside the qsopt package.

The traced run swaps the public functions of each qsopt module for timing
wrappers (and restores them afterwards), and hands algorithms a timing proxy
in place of each benchmark oracle. Nothing inside ``src/qsopt`` is edited.

A span's self time is its duration minus the spans nested under it.
Oracle queries are leaf spans: they add to the self time of the ``functions``
layer and are subtracted from whichever algorithm span issued them, so
``minimize.self_s`` and friends hold the algorithm loop, ``SubsetBits``
arithmetic and ``CountingOracle`` dispatch.

The proxy is a real ``SetFunctionOracle`` that forwards ``_cursor_factory``,
``_fast_marginal``, ``_fast_drop`` and ``dense_table``. The library looks
these up with ``getattr``; hiding them would silently switch the traced run
to the generic full-evaluation ``Cursor`` and measure a different program.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import qsopt
from qsopt import baselines, checkers, cli, exact, functions, harness, maximize, minimize, oracle
from qsopt.oracle import Cursor, SetFunctionOracle

NS = 1e-9

#: Public functions timed per layer. ``sets`` has no call boundary that can be
#: timed from outside; its cost lands in the callers' self time.
SPANNED = {
    functions: ("instantiate", "load_spec"),
    oracle: ("eval_table",),
    minimize: ("min_lattice", "uqsfmin"),
    maximize: ("uqsfmax", "u_prefix", "restricted_oracle"),
    baselines: (
        "double_greedy",
        "random_permutation_greedy",
        "randomized_local_search",
        "randomized_bidirectional_greedy",
    ),
    exact: ("exact_opt", "enumerate_local_optima", "nested_argmin_check"),
    checkers: (
        "is_submodular",
        "is_quasi_submodular",
        "satisfies_ssbc",
        "satisfies_weak_marginal",
        "is_local_min",
        "is_local_max",
    ),
    harness: (
        "run_experiment",
        "run_ratio_experiment",
        "run_reduction_experiment",
        "run_timing_experiment",
    ),
    cli: ("main",),
}

_BASELINE_NAMES = {
    "double_greedy": "dg",
    "random_permutation_greedy": "rp",
    "randomized_local_search": "rls",
    "randomized_bidirectional_greedy": "rg",
}


class Tracer:
    """Accumulates span times (ns) and counts for one traced pass or more."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [layer, name, child_ns]
        self.layer_depth: Counter = Counter()
        self.name_depth: Counter = Counter()
        self.inclusive_ns: Counter = Counter()  # outermost calls of a name
        self.self_ns: Counter = Counter()  # per layer
        self.counts: Counter = Counter()
        self.in_leaf = False

    # -- spans around public functions -----------------------------------

    def enter(self, layer: str, name: str) -> None:
        self.stack.append([layer, name, 0])
        self.layer_depth[layer] += 1
        self.name_depth[name] += 1

    def leave(self, elapsed: int) -> None:
        layer, name, child = self.stack.pop()
        self.layer_depth[layer] -= 1
        self.name_depth[name] -= 1
        self.self_ns[layer] += elapsed - child
        if self.name_depth[name] == 0:
            self.inclusive_ns[name] += elapsed
        if self.layer_depth[layer] == 0:
            self.inclusive_ns[layer] += elapsed
        if self.stack:
            self.stack[-1][2] += elapsed

    def leaf(self, kind: str, elapsed: int) -> None:
        """An oracle query: functions-layer time nested in the current span."""
        self.counts[kind] += 1
        if kind == "eval" and self.inside("exact_opt") and not self.inside("eval_table"):
            self.counts["exact.table_evals"] += 1  # lattice enumeration, one value at a time
        self.inclusive_ns[kind] += elapsed
        self.self_ns["functions"] += elapsed
        if self.stack:
            self.stack[-1][2] += elapsed

    def inside(self, name: str) -> bool:
        return self.name_depth[name] > 0

    def outermost_baseline(self) -> bool:
        return sum(self.name_depth[n] for n in _BASELINE_NAMES) == 1

    # -- the proxy the traced run hands to the algorithms -----------------

    def proxy(self, inner: SetFunctionOracle) -> SetFunctionOracle:
        """A timing view of ``inner`` that keeps every fast path it has."""
        tracer = self

        def timed(kind, fn):
            if fn is None:
                return None

            def call(*args):
                if tracer.in_leaf:
                    tracer.counts[kind] += 1
                    return fn(*args)
                tracer.in_leaf = True
                t0 = perf_counter_ns()
                try:
                    return fn(*args)
                finally:
                    tracer.in_leaf = False
                    tracer.leaf(kind, perf_counter_ns() - t0)

            return call

        factory = inner._cursor_factory
        cursor_factory = None
        if factory is not None:

            def cursor_factory(_owner, start):
                # building the cursor is the first epoch: booked as a refresh
                t0 = perf_counter_ns()
                cursor = factory(inner, start)
                if not tracer.in_leaf:
                    tracer.leaf("refresh", perf_counter_ns() - t0)
                return _TimedCursor(tracer, cursor)

        return SetFunctionOracle(
            inner.ground,
            timed("eval", inner.value),
            fast_marginal=timed("query", inner._fast_marginal),
            fast_drop_marginal=timed("query", inner._fast_drop),
            cursor_factory=cursor_factory,
            dense_table=inner.dense_table,
            params=inner.params,
            name=inner.name,
        )

    # -- installing the wrappers ------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Swap the timing wrappers in for the duration of the block."""
        saved = []
        modules = [qsopt] + [m for m in SPANNED]
        for module, names in SPANNED.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(layer, name, original)
                for target in modules:
                    if getattr(target, name, None) is original:
                        saved.append((target, name, original))
                        setattr(target, name, wrapper)
        write = harness.RunReport.write
        saved.append((harness.RunReport, "write", write))
        harness.RunReport.write = self._wrap("harness", "write", write)
        try:
            yield self
        finally:
            for target, name, original in reversed(saved):
                setattr(target, name, original)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if name == "u_prefix":
                if len(args) > 1:
                    args = (args[0], _timed_inner(tracer, args[1])) + args[2:]
                else:
                    kwargs["inner_algorithm"] = _timed_inner(tracer, kwargs["inner_algorithm"])
            tracer.enter(layer, name)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - t0
                outer_baseline = name in _BASELINE_NAMES and tracer.outermost_baseline()
                tracer.leave(elapsed)
            tracer._record(name, result, elapsed, outer_baseline)
            if name == "instantiate":
                result = tracer.proxy(result)
            return result

        return span

    def _record(self, name: str, result, elapsed: int, outer_baseline: bool) -> None:
        """Counts read off what a public function returned."""
        c = self.counts
        if name == "min_lattice":
            for trace in result[1]:
                c["minimize.iterations"] += trace.iterations
                c["oracle.eval_calls"] += trace.eval_calls
                c["oracle.marginal_calls"] += trace.marginal_calls
        elif name == "uqsfmin" and not self.inside("min_lattice"):
            trace = result[1]
            c["minimize.iterations"] += trace.iterations
            c["oracle.eval_calls"] += trace.eval_calls
            c["oracle.marginal_calls"] += trace.marginal_calls
        elif name == "uqsfmax":
            lattice, trace = result
            c["maximize.iterations"] += trace.iterations
            c["maximize.free_elements"] += len(lattice.free_elements())
            c["oracle.eval_calls"] += trace.eval_calls
            c["oracle.marginal_calls"] += trace.marginal_calls
        elif name in _BASELINE_NAMES and outer_baseline:
            self.inclusive_ns["baselines." + _BASELINE_NAMES[name]] += elapsed
            c["oracle.baseline_calls"] += result.oracle_calls
        elif name == "eval_table":
            c["oracle.table_entries"] += len(result)
            if self.inside("exact_opt"):
                c["exact.table_evals"] += len(result)
        elif name == "write":
            c["harness.report_bytes"] += sum(Path(p).stat().st_size for p in result)

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Totals per traced pass, in seconds or counts."""
        inc, own, c = self.inclusive_ns, self.self_ns, self.counts
        per = 1.0 / passes

        def s(ns):
            return ns * NS * per

        out = {
            "functions.instantiate_s": s(inc["instantiate"]),
            "functions.queries": c["query"] * per,
            "functions.query_s": s(inc["query"]),
            "functions.moves": c["move"] * per,
            "functions.move_s": s(inc["move"]),
            "functions.refresh_query_s": s(inc["refresh"]),
            "functions.evals": c["eval"] * per,
            "functions.eval_s": s(inc["eval"]),
            "functions.self_s": s(own["functions"]),
            "oracle.eval_calls": c["oracle.eval_calls"] * per,
            "oracle.marginal_calls": c["oracle.marginal_calls"] * per,
            "oracle.baseline_calls": c["oracle.baseline_calls"] * per,
            "oracle.table_entries": c["oracle.table_entries"] * per,
            "minimize.s": s(inc["minimize"]),
            "minimize.self_s": s(own["minimize"]),
            "minimize.iterations": c["minimize.iterations"] * per,
            "maximize.uqsfmax_s": s(inc["uqsfmax"]),
            "maximize.self_s": s(own["maximize"]),
            "maximize.iterations": c["maximize.iterations"] * per,
            "maximize.u_prefix_inner_s": s(inc["u_prefix_inner"]),
            "maximize.free_elements": c["maximize.free_elements"] * per,
            "baselines.dg_s": s(inc["baselines.dg"]),
            "baselines.rp_s": s(inc["baselines.rp"]),
            "baselines.rls_s": s(inc["baselines.rls"]),
            "baselines.rg_s": s(inc["baselines.rg"]),
            "baselines.self_s": s(own["baselines"]),
            "exact.exact_opt_s": s(inc["exact_opt"]),
            "exact.table_evals": c["exact.table_evals"] * per,
            "exact.self_s": s(own["exact"]),
        }
        for prop in ("is_submodular", "is_quasi_submodular", "satisfies_ssbc", "satisfies_weak_marginal"):
            out[f"checkers.{prop}_s"] = s(inc[prop])
        out["checkers.self_s"] = s(own["checkers"])
        out["harness.run_experiment_s"] = s(inc["run_experiment"])
        out["harness.self_s"] = s(own["harness"])
        out["harness.write_s"] = s(inc["write"])
        out["harness.report_bytes"] = c["harness.report_bytes"] * per
        out["cli.process_s"] = s(inc["main"])
        out["cli.self_s"] = s(own["cli"])
        return out


def _timed_inner(tracer: Tracer, inner_algorithm):
    """Span around the baseline ``u_prefix`` runs on the restricted oracle."""

    def run(sub):
        tracer.enter("maximize", "u_prefix_inner")
        t0 = perf_counter_ns()
        try:
            return inner_algorithm(sub)
        finally:
            tracer.leave(perf_counter_ns() - t0)

    return run


class _TimedCursor(Cursor):
    """Times a family cursor's queries and moves.

    The first query after creation or after a move is booked as a refresh:
    epoch cursors rebuild their state lazily on that query.
    """

    def __init__(self, tracer: Tracer, inner: Cursor):
        # no super().__init__: the inner cursor owns the state
        self._tracer = tracer
        self._inner = inner
        self._stale = True

    def _timed(self, fn, arg=None):
        tracer = self._tracer
        if tracer.in_leaf:
            tracer.counts["query"] += 1
            return fn() if arg is None else fn(arg)
        tracer.in_leaf = True
        t0 = perf_counter_ns()
        try:
            return fn() if arg is None else fn(arg)
        finally:
            elapsed = perf_counter_ns() - t0
            tracer.in_leaf = False
            if self._stale:
                self._stale = False
                tracer.leaf("refresh", elapsed)
            else:
                tracer.leaf("query", elapsed)

    def _move(self, fn, arg) -> None:
        tracer = self._tracer
        self._stale = True
        if tracer.in_leaf:
            fn(arg)
            return
        tracer.in_leaf = True
        t0 = perf_counter_ns()
        try:
            fn(arg)
        finally:
            tracer.in_leaf = False
            tracer.leaf("move", perf_counter_ns() - t0)

    def members(self):
        return self._inner.members()

    def value(self) -> float:
        return self._timed(self._inner.value)

    def add_marginal(self, u: int) -> float:
        return self._timed(self._inner.add_marginal, u)

    def drop_marginal(self, d: int) -> float:
        return self._timed(self._inner.drop_marginal, d)

    def add(self, u: int) -> None:
        self._move(self._inner.add, u)

    def remove(self, d: int) -> None:
        self._move(self._inner.remove, d)
