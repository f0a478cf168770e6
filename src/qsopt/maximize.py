"""Unconstrained maximization by crossover lattice reduction.

Two working sets bracket the search space: X_t grows from the empty set,
Y_t shrinks from the full set. One iteration, all against the frozen pair:
every free element whose drop from Y_t would strictly lower the value is
committed into X_{t+1} (it must be in any maximum), and every free element
whose addition to X_t would strictly lower the value is expelled from
Y_{t+1} (it cannot be in any maximum). The crossover keeps X_t inside Y_t
on quasi-submodular objectives and the final interval [X+, Y+] contains
every local and global maximum. Unlike the minimization run, the endpoints
themselves need not be local maxima.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .baselines import BaselineResult
from .errors import InternalInvariantError
from .oracle import CountingOracle, Cursor, SetFunctionOracle, require_no_nan
from .sets import GroundSet, IntervalLattice, SubsetBits


@dataclass(frozen=True)
class MaxStep:
    """One iteration: elements fixed in/out and both endpoint values entering it."""

    t: int
    added: SubsetBits
    removed: SubsetBits
    fx: float
    fy: float
    eval_calls: int


@dataclass
class MaxTrace:
    lattice: IntervalLattice
    steps: list[MaxStep]
    eval_calls: int
    marginal_calls: int

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def total_calls(self) -> int:
        return self.eval_calls + self.marginal_calls


def uqsfmax(oracle) -> tuple[IntervalLattice, MaxTrace]:
    """Shrink [empty, full] to the bracketing interval [X+, Y+]."""
    counter = CountingOracle(oracle)
    n = counter.n
    x = SubsetBits.empty(n)
    y = SubsetBits.full(n)
    cursor_x = counter.cursor(x)
    cursor_y = counter.cursor(y)
    steps: list[MaxStep] = []
    for t in range(n + 2):
        fx = counter.value(x)
        fy = counter.value(y)
        free = np.flatnonzero(y.to_bool_array() & ~x.to_bool_array()) + 1
        drops = cursor_y.drop_marginals(free)
        require_no_nan(drops, free, f"uqsfmax iteration {t}, drop from Y")
        gains = cursor_x.add_marginals(free)
        require_no_nan(gains, free, f"uqsfmax iteration {t}, add to X")
        added = free[drops > 0.0].tolist()
        removed = free[gains < 0.0].tolist()
        added_set = SubsetBits.from_members(n, added)
        removed_set = SubsetBits.from_members(n, removed)
        steps.append(MaxStep(t, added_set, removed_set, fx, fy, counter.total_calls))
        for u in added:
            cursor_x.add(u)
        for d in removed:
            cursor_y.remove(d)
        x_next = x.union(added_set)
        y_next = y.difference(removed_set)
        if not x_next.is_subset(y_next):
            raise InternalInvariantError(
                f"working interval collapsed: {x_next} not inside {y_next}; "
                "objective is likely not quasi-submodular"
            )
        if not added and not removed:
            lattice = IntervalLattice(x, y)
            return lattice, MaxTrace(lattice, steps, counter.eval_calls, counter.marginal_calls)
        x, y = x_next, y_next
    raise InternalInvariantError(
        f"no fixed interval within {n + 2} iterations; objective is likely "
        "not quasi-submodular"
    )


@dataclass
class UPrefixResult:
    value: float
    set: SubsetBits
    lattice: IntervalLattice
    trace: MaxTrace
    inner: Optional[BaselineResult]


def restricted_oracle(oracle, lattice: IntervalLattice) -> tuple[SetFunctionOracle, list[int]]:
    """The induced objective over the lattice's free elements.

    Free elements are relabeled 1..m ascending; evaluating a relabeled set T
    evaluates the original objective at lower | mapped(T).
    """
    free_ids = lattice.free_elements()
    m = len(free_ids)
    if m == 0:
        raise ValueError("point lattice leaves nothing to restrict to")
    base = lattice.lower

    def lift(t: SubsetBits) -> SubsetBits:
        out = base
        for j in t:
            out = out.add(free_ids[j - 1])
        return out

    def evaluate(t: SubsetBits) -> float:
        return oracle.value(lift(t))

    def cursor_factory(_owner, start: SubsetBits) -> Cursor:
        return _RestrictedCursor(oracle.cursor(lift(start)), free_ids, start)

    return (
        SetFunctionOracle(
            GroundSet(m),
            evaluate,
            cursor_factory=cursor_factory,
            name=f"restricted({getattr(oracle, 'name', '')}, free={m})",
        ),
        free_ids,
    )


class _RestrictedCursor(Cursor):
    def __init__(self, inner: Cursor, free_ids: list[int], start: SubsetBits):
        self._inner = inner
        self._free_ids = free_ids
        self._free_arr = np.asarray(free_ids, dtype=np.int64)
        self._current = start

    def add_marginal(self, u: int) -> float:
        return self._inner.add_marginal(self._free_ids[u - 1])

    def drop_marginal(self, d: int) -> float:
        return self._inner.drop_marginal(self._free_ids[d - 1])

    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        return self._inner.add_marginals(self._free_arr[ids - 1])

    def drop_marginals(self, ids: np.ndarray) -> np.ndarray:
        return self._inner.drop_marginals(self._free_arr[ids - 1])

    def add(self, u: int) -> None:
        self._current = self._current.add(u)
        self._inner.add(self._free_ids[u - 1])

    def remove(self, d: int) -> None:
        self._current = self._current.remove(d)
        self._inner.remove(self._free_ids[d - 1])


def u_prefix(
    oracle, inner_algorithm: Callable[[SetFunctionOracle], BaselineResult]
) -> UPrefixResult:
    """Reduce first, then run a maximization baseline on what is left free.

    Elements fixed by the reduction stay fixed; the baseline only decides the
    free ones. Returns the better of the baseline's lifted result and the
    lower endpoint alone.
    """
    lattice, trace = uqsfmax(oracle)
    base_value = oracle.value(lattice.lower)
    if lattice.is_point():
        return UPrefixResult(base_value, lattice.lower, lattice, trace, None)
    sub, free_ids = restricted_oracle(oracle, lattice)
    inner_result = inner_algorithm(sub)
    lifted = lattice.lower
    for j in inner_result.set:
        lifted = lifted.add(free_ids[j - 1])
    if inner_result.value >= base_value:
        return UPrefixResult(inner_result.value, lifted, lattice, trace, inner_result)
    return UPrefixResult(base_value, lattice.lower, lattice, trace, inner_result)
