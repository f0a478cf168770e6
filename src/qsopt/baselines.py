"""Maximization baselines: bi-directional (double) greedy and local search.

All randomized variants derive per-trial generators from the master seed via
``SeedSequence(seed, spawn_key=(trial,))``, so results are reproducible and
trials could run independently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InternalInvariantError
from .functions import seeded_stream
from .oracle import CountingOracle, require_no_nan
from .sets import SubsetBits


@dataclass(frozen=True)
class BaselineResult:
    set: SubsetBits
    value: float
    oracle_calls: int
    seed: Optional[int] = None


def double_greedy(
    oracle,
    order: Sequence[int],
    randomized: bool = False,
    seed: Optional[int] = None,
) -> BaselineResult:
    """One pass over ``order`` maintaining an inner set S1 and an outer set S2.

    Each element is judged by its gain when added to S1 (a) and the gain when
    removed from S2 (b = -drop). Deterministic mode keeps the element when
    a + b >= 0 (ties keep). Randomized mode clips both gains at zero and keeps
    with probability a / (a + b), keeping outright when both are zero.
    """
    counter = CountingOracle(oracle)
    n = counter.n
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError("order must be a permutation of 1..n")
    rng = seeded_stream(seed if seed is not None else 0, 0) if randomized else None
    c1 = counter.cursor(SubsetBits.empty(n))
    c2 = counter.cursor(SubsetBits.full(n))
    for i in order:
        gain_add = c1.add_marginal(i)
        gain_remove = -c2.drop_marginal(i)
        # a NaN fails the keep test and would silently drop the element
        if math.isnan(gain_add):
            raise InternalInvariantError(f"double greedy: marginal of element {i} is NaN (add to S1)")
        if math.isnan(gain_remove):
            raise InternalInvariantError(f"double greedy: marginal of element {i} is NaN (drop from S2)")
        if randomized:
            a = max(gain_add, 0.0)
            b = max(gain_remove, 0.0)
            keep = True if a + b == 0.0 else rng.random() < a / (a + b)
        else:
            keep = gain_add - gain_remove >= 0.0
        if keep:
            c1.add(i)
        else:
            c2.remove(i)
    s1 = c1.members()
    assert s1 == c2.members(), "double greedy must close the gap after one pass"
    value = counter.value(s1)
    return BaselineResult(s1, value, counter.total_calls, seed)


def _best_of(trials: int, seed: int, run_trial: Callable[[int], BaselineResult]) -> BaselineResult:
    """Best of ``run_trial(t)`` for t < trials: the first strict best, with all calls summed."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    best: Optional[BaselineResult] = None
    calls = 0
    for trial in range(trials):
        result = run_trial(trial)
        calls += result.oracle_calls
        if best is None or result.value > best.value:
            best = result
    return BaselineResult(best.set, best.value, calls, seed)


def random_permutation_greedy(oracle, trials: int, seed: int) -> BaselineResult:
    """Best of ``trials`` deterministic double-greedy passes over random orders."""

    def run_trial(trial: int) -> BaselineResult:
        order = [int(v) for v in seeded_stream(seed, trial).permutation(oracle.n) + 1]
        return double_greedy(oracle, order)

    return _best_of(trials, seed, run_trial)


def randomized_local_search(oracle, restarts: int, seed: int) -> BaselineResult:
    """Steepest-ascent single-flip search from random starts; best over restarts.

    Each step reads the cursor's flip-gain vector once and applies the best
    strictly improving flip (lowest element id on ties); a set with no
    improving flip is a local maximum and ends the climb.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    counter = CountingOracle(oracle)
    n = counter.n
    best_set: Optional[SubsetBits] = None
    best_value = -np.inf
    ids = np.arange(1, n + 1)
    for restart in range(restarts):
        rng = seeded_stream(seed, restart)
        cursor = counter.cursor(SubsetBits.from_bool_array(rng.random(n) < 0.5))
        for step in itertools.count():
            gains = cursor.gains()
            require_no_nan(gains, ids, f"rls restart {restart} step {step}")
            # argmax takes the first maximum: the lowest id on ties
            best = int(np.argmax(gains))
            if gains[best] <= 0.0:
                break
            best_flip = best + 1
            if cursor.members().contains(best_flip):
                cursor.remove(best_flip)
            else:
                cursor.add(best_flip)
        current = cursor.members()
        value = counter.value(current)
        if value > best_value:
            best_value = value
            best_set = current
    return BaselineResult(best_set, float(best_value), counter.total_calls, seed)


def randomized_bidirectional_greedy(oracle, trials: int, seed: int) -> BaselineResult:
    """Best of ``trials`` randomized double-greedy passes in natural order."""
    order = list(range(1, oracle.n + 1))

    def run_trial(trial: int) -> BaselineResult:
        sub_seed = int(seeded_stream(seed, trial).integers(0, 2**63 - 1))
        return double_greedy(oracle, order, randomized=True, seed=sub_seed)

    return _best_of(trials, seed, run_trial)
