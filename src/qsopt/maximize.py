"""Unconstrained maximization by crossover lattice reduction.

Two working sets bracket the search space: X_t grows from the empty set,
Y_t shrinks from the full set. One iteration, all against the frozen pair:
every free element whose drop from Y_t would strictly lower the value is
committed into X_{t+1} (it must be in any maximum), and every free element
whose addition to X_t would strictly lower the value is expelled from
Y_{t+1} (it cannot be in any maximum). The crossover keeps X_t inside Y_t
on quasi-submodular objectives and the final interval [X+, Y+] contains
every local and global maximum. Unlike the minimization run, the endpoints
themselves need not be local maxima. On such objectives each side a step
moves strictly rises, F(X) after additions and F(Y) after removals; a run
checks this from the two values its trace takes anyway and raises
InternalInvariantError where it fails. Each cursor moves once per step, and
a side the last step did not move is neither evaluated nor queried again:
it would fix nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .baselines import BaselineResult
from .errors import InternalInvariantError
from .oracle import NO_IDS, CountingOracle, Cursor, SetFunctionOracle
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
    cursor_x = counter.cursor(SubsetBits.empty(n))
    cursor_y = counter.cursor(SubsetBits.full(n))
    steps: list[MaxStep] = []
    for t in range(n + 2):
        x, y = cursor_x.members(), cursor_y.members()
        # a side the last step did not move keeps its value, and a query would fix nothing on
        # it: each id still free was judged at the same set a step before, and the other
        # side's move only took ids out of the free ones
        moved_x = not steps or len(steps[-1].added)
        moved_y = not steps or len(steps[-1].removed)
        fx = counter.value(x) if moved_x else steps[-1].fx
        fy = counter.value(y) if moved_y else steps[-1].fy
        if steps:  # the paper's strict ascent of each side the last step moved
            last = steps[-1]
            for side, moved, before, after, f_before, f_after in (
                ("X", last.added, x_last, x, last.fx, fx),
                ("Y", last.removed, y_last, y, last.fy, fy),
            ):
                if len(moved) and not f_after > f_before:
                    raise InternalInvariantError(
                        f"step {t - 1} did not ascend on {side}: F({before}) = {f_before!r} and "
                        f"F({after}) = {f_after!r}; objective is likely not quasi-submodular"
                    )
        free = np.flatnonzero(y.to_bool_array() & ~x.to_bool_array()) + 1
        added = free[cursor_y.drop_marginals(free) > 0.0] if moved_y else NO_IDS
        removed = free[cursor_x.add_marginals(free) < 0.0] if moved_x else NO_IDS
        steps.append(
            MaxStep(t, SubsetBits.from_ids(n, added), SubsetBits.from_ids(n, removed), fx, fy, counter.total_calls)
        )
        if added.size:  # a side moves only when the other fixed something
            cursor_x.move(added, NO_IDS)
        if removed.size:
            cursor_y.move(NO_IDS, removed)
        x_next, y_next = cursor_x.members(), cursor_y.members()
        if not x_next.is_subset(y_next):
            raise InternalInvariantError(
                f"working interval collapsed: {x_next} not inside {y_next}; "
                "objective is likely not quasi-submodular"
            )
        if not added.size and not removed.size:
            return IntervalLattice(x, y), MaxTrace(steps, counter.eval_calls, counter.marginal_calls)
        x_last, y_last = x, y
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


def restricted_oracle(oracle, lattice: IntervalLattice) -> SetFunctionOracle:
    """The induced objective over the lattice's free elements.

    The free elements, ``lattice.free_elements()``, are relabeled 1..m
    ascending; evaluating a relabeled set T evaluates the original objective
    at ``lattice.member(T.mask)``. The value formula is the original's at the
    rows ``lattice.member_rows`` lifts, which refuses a block of another
    width than m. An empty or point lattice raises ValueError.
    """
    free_ids = lattice.free_elements()
    if not free_ids:
        raise ValueError("point lattice leaves nothing to restrict to")

    def cursor_factory(_owner, start: SubsetBits) -> Cursor:
        # a checked cursor of F names a NaN marginal in F's elements and sets, so it replays on F
        checked = CountingOracle(oracle).cursor(lattice.member(start.mask))
        return _RestrictedCursor(checked, free_ids, start)

    return SetFunctionOracle(
        GroundSet(len(free_ids)),
        value_rows=lambda members: oracle.value_rows(lattice.member_rows(members)),
        cursor_factory=cursor_factory,
    )


class _RestrictedCursor(Cursor):
    """A cursor of the restricted objective: each query and move goes to a cursor of the
    original at the lifted set, with free id i relabeled to ``free_ids[i - 1]``.

    ``gains()`` is the parent's vector read at the free ids, so a family that
    keeps its vector under moves (facility, determinant) keeps it here too; an
    oracle with no family cursor pays n evaluations per read, not m.
    """

    def __init__(self, inner: Cursor, free_ids: list[int], start: SubsetBits):
        # no super().__init__: the inner cursor answers every query
        self._current = start
        self._inner = inner
        self._free_ids = free_ids
        self._free_arr = np.asarray(free_ids, dtype=np.int64)
        self._free_columns = self._free_arr - 1

    def add_marginal(self, u: int) -> float:
        return self._inner.add_marginal(self._free_ids[u - 1])

    def drop_marginal(self, d: int) -> float:
        return self._inner.drop_marginal(self._free_ids[d - 1])

    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        return self._inner.add_marginals(self._free_arr[ids - 1])

    def drop_marginals(self, ids: np.ndarray) -> np.ndarray:
        return self._inner.drop_marginals(self._free_arr[ids - 1])

    def gains(self) -> np.ndarray:
        return self._inner.gains()[self._free_columns]

    def _moved(self, added, removed) -> None:
        for u in added:
            self._inner.add(self._free_ids[u - 1])
        for d in removed:
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
    base_value = trace.steps[-1].fx  # F(X+), taken by the step that fixed it
    if lattice.is_point():
        return UPrefixResult(base_value, lattice.lower, lattice, trace, None)
    inner_result = inner_algorithm(restricted_oracle(oracle, lattice))
    lifted = lattice.member(inner_result.set.mask)
    if inner_result.value >= base_value:
        return UPrefixResult(inner_result.value, lifted, lattice, trace, inner_result)
    return UPrefixResult(base_value, lattice.lower, lattice, trace, inner_result)
