"""Acceptance gate: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Seeds are fixed so every criterion is deterministic.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import mean

import pytest

from qsopt import (
    ExperimentConfig,
    IntervalLattice,
    SubsetBits,
    enumerate_local_optima,
    exact_opt,
    is_local_min,
    is_quasi_submodular,
    is_submodular,
    make_random_qsb,
    make_tabular,
    min_lattice,
    nested_argmin_check,
    randomized_bidirectional_greedy,
    run_ratio_experiment,
    run_reduction_experiment,
    satisfies_ssbc,
    satisfies_weak_marginal,
    uqsfmax,
)
from qsopt.functions import (
    seeded_stream as _stream,
    make_cobb_douglas,
    make_com,
    make_half_products,
    make_iwata,
    make_perturbed_facility,
    make_determinant,
)

from conftest import PROP_TABLE, TWIN_PEAKS_TABLE, nonneg_submodular_oracle, random_spaced_values

MASTER_SEED = 20260808


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def full_lattice(n: int) -> IntervalLattice:
    return IntervalLattice(SubsetBits.empty(n), SubsetBits.full(n))


# --------------------------------------------------------------------------
# Shared run corpus for criteria 2-4.


@dataclass
class QsbRun:
    n: int
    oracle: object
    min_lat: IntervalLattice
    up_trace: object
    down_trace: object
    max_lat: IntervalLattice
    max_trace: object
    local_minima: list
    local_maxima: list
    global_minima: list
    global_maxima: list


_build_seconds = 0.0


@pytest.fixture(scope="module")
def qsb_runs():
    global _build_seconds
    start = time.monotonic()
    runs = []
    for k in range(200):
        n = 2 + k % 9  # sizes 2..10
        F = make_random_qsb(n, MASTER_SEED + k)
        min_lat, (up, down) = min_lattice(F)
        max_lat, max_trace = uqsfmax(F)
        _, arg_min = exact_opt(F, "min", full_lattice(n))
        _, arg_max = exact_opt(F, "max", full_lattice(n))
        runs.append(
            QsbRun(
                n=n,
                oracle=F,
                min_lat=min_lat,
                up_trace=up,
                down_trace=down,
                max_lat=max_lat,
                max_trace=max_trace,
                local_minima=enumerate_local_optima(F, "min"),
                local_maxima=enumerate_local_optima(F, "max"),
                global_minima=arg_min,
                global_maxima=arg_max,
            )
        )
    _build_seconds = time.monotonic() - start
    return runs


@pytest.fixture(scope="module")
def family_runs_100():
    builders = {
        "iwata": lambda: make_iwata(100),
        "com": lambda: make_com(100, MASTER_SEED),
        "half_products": lambda: make_half_products(100, MASTER_SEED),
        "perturbed_facility": lambda: make_perturbed_facility(100, 400, MASTER_SEED),
        "determinant": lambda: make_determinant(100, MASTER_SEED),
        "cobb_douglas": lambda: make_cobb_douglas(100, MASTER_SEED),
    }
    out = {}
    for name, build in builders.items():
        F = build()
        _, (up, down) = min_lattice(F)
        _, max_trace = uqsfmax(F)
        out[name] = (up, down, max_trace)
    return out


def test_criterion_1_counterexample_suite():
    start = time.monotonic()
    prop = make_tabular(PROP_TABLE)
    ok = is_quasi_submodular(prop).holds
    sub = is_submodular(prop)
    ok &= not sub.holds
    ok &= sub.witness.sets["X"] == SubsetBits.from_members(2, [1])
    ok &= sub.witness.sets["Y"] == SubsetBits.from_members(2, [2])

    twin = make_tabular(TWIN_PEAKS_TABLE)
    lattice, _ = uqsfmax(twin)
    ok &= lattice.lower == SubsetBits.empty(2)
    ok &= lattice.upper == SubsetBits.full(2)
    maxima = enumerate_local_optima(twin, "max")
    ok &= maxima == [SubsetBits.from_members(2, [1]), SubsetBits.from_members(2, [2])]
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    verdict(1, ok, f"counterexample suite exact match in {elapsed:.3f}s (< 1s)")


def test_criterion_2_containment_oracle_suite(qsb_runs):
    start = time.monotonic()
    bad = 0
    for run in qsb_runs:
        optima_min = run.local_minima + run.global_minima
        optima_max = run.local_maxima + run.global_maxima
        if not all(run.min_lat.contains(s) for s in optima_min):
            bad += 1
        elif not all(run.max_lat.contains(s) for s in optima_max):
            bad += 1
        elif not (is_local_min(run.oracle, run.min_lat.lower) and is_local_min(run.oracle, run.min_lat.upper)):
            bad += 1
        else:
            x = SubsetBits.empty(run.n)
            y = SubsetBits.full(run.n)
            for step in run.max_trace.steps:
                x = x.union(step.added)
                y = y.difference(step.removed)
                if not x.is_subset(y):
                    bad += 1
                    break
    elapsed = time.monotonic() - start + _build_seconds
    ok = bad == 0 and elapsed < 120.0
    verdict(2, ok, f"{len(qsb_runs)} runs, {bad} containment violations, {elapsed:.1f}s (< 2 min)")


def test_criterion_3_strict_monotonicity(qsb_runs, family_runs_100):
    violations = 0
    min_traces = []
    max_traces = []
    for run in qsb_runs:
        min_traces += [run.up_trace, run.down_trace]
        max_traces.append(run.max_trace)
    for up, down, max_trace in family_runs_100.values():
        min_traces += [up, down]
        max_traces.append(max_trace)

    for trace in min_traces:
        values = [s.value for s in trace.steps]
        violations += sum(1 for a, b in zip(values, values[1:]) if not b < a)
    for trace in max_traces:
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            if prev.added.cardinality() and not cur.fx > prev.fx:
                violations += 1
            if prev.removed.cardinality() and not cur.fy > prev.fy:
                violations += 1
    total = len(min_traces) + len(max_traces)
    verdict(3, violations == 0, f"{total} traces checked, {violations} monotonicity violations")


def test_criterion_4_complexity_bounds(qsb_runs, family_runs_100):
    violations = 0
    checked = 0

    def check(n, iterations, calls):
        nonlocal violations, checked
        checked += 1
        if iterations > n + 1 or calls > 4 * n * n + 8 * n:
            violations += 1

    for run in qsb_runs:
        check(run.n, run.up_trace.iterations, run.up_trace.total_calls)
        check(run.n, run.down_trace.iterations, run.down_trace.total_calls)
        check(run.n, run.max_trace.iterations, run.max_trace.total_calls)
    for up, down, max_trace in family_runs_100.values():
        check(100, up.iterations, up.total_calls)
        check(100, down.iterations, down.total_calls)
        check(100, max_trace.iterations, max_trace.total_calls)
    verdict(4, violations == 0, f"{checked} runs within n+1 iterations and 4n^2+8n calls")


def test_criterion_5_pair_condition_equivalence():
    rng = _stream(MASTER_SEED, 5)
    disagreements = 0
    implication_failures = 0
    for k in range(500):
        n = 2 + k % 5  # sizes 2..6
        F = make_tabular(random_spaced_values(n, rng))
        qsb = is_quasi_submodular(F).holds
        ssbc = satisfies_ssbc(F).holds
        if qsb != ssbc:
            disagreements += 1
        if ssbc and not satisfies_weak_marginal(F).holds:
            implication_failures += 1
    ok = disagreements == 0 and implication_failures == 0
    verdict(
        5,
        ok,
        f"500 tables: {disagreements} equivalence disagreements, "
        f"{implication_failures} weak-marginal implication failures",
    )


def test_criterion_6_reduction_rate_windows():
    start = time.monotonic()
    plan = [
        # family, sizes, trials, (min_lo, min_hi), (max_lo, max_hi), exact_ones
        ("iwata", [{"n": 5000}], 1, (0.99, 1.0), (0.99, 1.0), False),
        ("com", [{"n": 5000}], 3, (0.99, 1.0), (0.95, 1.0), False),
        ("cobb_douglas", [{"n": 2000}], 3, (1.0, 1.0), (1.0, 1.0), True),
        ("perturbed_facility", [{"n": 100, "d": 400}], 3, (0.95, 1.0), (0.95, 1.0), False),
        ("half_products", [{"n": 100}], 40, (0.488 - 0.15, 0.488 + 0.15), (0.512 - 0.15, 0.512 + 0.15), False),
        ("determinant", [{"n": 100}], 24, (0.726 - 0.15, 0.726 + 0.15), (0.87 - 0.15, 0.87 + 0.15), False),
    ]
    lines = []
    ok = True
    for family, sizes, trials, min_win, max_win, exact_ones in plan:
        cfg = ExperimentConfig("reduction", [family], sizes, trials=trials, master_seed=MASTER_SEED)
        report = run_reduction_experiment(cfg)
        assert not report.failures, report.failures
        rates = {"min": [], "max": []}
        for row in report.rows:
            rates[row.direction].append(row.reduction_rate)
        mean_min, mean_max = mean(rates["min"]), mean(rates["max"])
        fam_ok = min_win[0] <= mean_min <= min_win[1] and max_win[0] <= mean_max <= max_win[1]
        if exact_ones:
            fam_ok &= all(r == 1.0 for r in rates["min"] + rates["max"])
        ok &= fam_ok
        lines.append(f"{family} min={mean_min:.3f} max={mean_max:.3f} {'ok' if fam_ok else 'OUT'}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 600.0
    verdict(6, ok, "; ".join(lines) + f"; {elapsed:.0f}s (< 10 min)")


def test_criterion_7_reduced_variant_ratio_pattern():
    start = time.monotonic()
    plan = [
        ("iwata", {"n": 12}),
        ("com", {"n": 12}),
        ("half_products", {"n": 12}),
        ("perturbed_facility", {"n": 12, "d": 48}),
    ]
    strong = {"iwata", "com", "perturbed_facility"}
    lines = []
    ok = True
    for family, size in plan:
        cfg = ExperimentConfig(
            "ratio",
            [family],
            [size],
            trials=50,
            master_seed=MASTER_SEED,
            algorithms=["rp", "urp", "rls", "urls", "rg", "urg"],
        )
        report = run_ratio_experiment(cfg)
        assert not report.failures, report.failures
        ratios = {}
        for row in report.rows:
            if row.ratio is not None:
                ratios.setdefault(row.algorithm, []).append(row.ratio)
        fam_ok = True
        for plain in ("rp", "rls", "rg"):
            reduced = "u" + plain
            fam_ok &= mean(ratios[reduced]) >= mean(ratios[plain]) - 0.02
            if family in strong:
                fam_ok &= mean(ratios[reduced]) >= 0.97
        ok &= fam_ok
        summary = " ".join(f"{a}={mean(v):.3f}" for a, v in sorted(ratios.items()))
        lines.append(f"{family}: {summary} {'ok' if fam_ok else 'OUT'}")
    elapsed = time.monotonic() - start
    verdict(7, ok, "; ".join(lines) + f"; {elapsed:.0f}s")


def test_criterion_8_randomized_greedy_floor():
    ratios = []
    for k in range(200):
        n = 8 + k % 5
        F = nonneg_submodular_oracle(n, MASTER_SEED + k)
        exact, _ = exact_opt(F, "max", full_lattice(n))
        if exact <= 0.0:
            continue
        result = randomized_bidirectional_greedy(F, 1, MASTER_SEED + k)
        ratios.append(result.value / exact)
    got = mean(ratios)
    verdict(8, got >= 0.33, f"mean single-pass ratio {got:.3f} >= 0.33 over {len(ratios)} instances")


def test_criterion_9_nested_minimizers():
    failures = 0
    checked = 0
    for k in range(50):
        F = make_random_qsb(8, MASTER_SEED + 900 + k)
        rng = _stream(MASTER_SEED + k, 9)
        for _ in range(50):
            b_mask = int(rng.integers(0, 256))
            a_mask = int(rng.integers(0, 256)) & b_mask
            checked += 1
            if not nested_argmin_check(F, SubsetBits(8, a_mask), SubsetBits(8, b_mask)):
                failures += 1
    verdict(9, failures == 0, f"{checked} (A,B) pairs, {failures} nesting failures")


def test_criterion_10_bench_determinism(tmp_path):
    cfg = {
        "experiment": "ratio",
        "families": ["com", "half_products"],
        "sizes": [10],
        "trials": 2,
        "master_seed": MASTER_SEED,
        "algorithms": ["rp", "urp", "rg", "urg"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def run(out):
        proc = subprocess.run(
            [sys.executable, "-m", "qsopt", "bench", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(open(out / "runs.csv")))
        wall = rows[0].index("wall_ms")
        for row in rows[1:]:
            row[wall] = ""
        return rows

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    verdict(10, first == second, f"two bench runs identical over {len(first) - 1} rows (timing masked)")
