"""Unconstrained minimization by iterative lattice reduction.

Each iteration works against a frozen snapshot of the current set X_t: it
collects every outside element whose addition strictly lowers the value,
forms Y_t by adding them all, then collects every original member of X_t
whose removal from Y_t strictly lowers the value and drops them all. The
strict tests mean zero marginals never move an element, so an all-flat
function returns its start unchanged. On a quasi-submodular objective the
value strictly decreases every non-final iteration and the run from the
empty set only grows while the run from the full set only shrinks; the two
runs bracket every local (hence global) minimum. A run checks that descent
as it goes, from the values its trace takes anyway: a step after which the
value did not strictly fall raises InternalInvariantError. The cursor moves
once per phase, all of the step's additions in one ``move`` and all of its
removals in another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError
from .oracle import NO_IDS, CountingOracle
from .sets import IntervalLattice, SubsetBits


@dataclass(frozen=True)
class MinStep:
    """One iteration: elements batched in/out and the value entering it."""

    t: int
    added: SubsetBits
    removed: SubsetBits
    value: float
    eval_calls: int


@dataclass
class MinTrace:
    result: SubsetBits
    steps: list[MinStep]
    eval_calls: int
    marginal_calls: int

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def total_calls(self) -> int:
        return self.eval_calls + self.marginal_calls


def uqsfmin(oracle, x0: SubsetBits) -> tuple[SubsetBits, MinTrace]:
    """Reduce from ``x0`` to a fixed point; returns the set and its trace.

    The iteration guard allows n + 2 passes; exceeding it raises
    InternalInvariantError, which on a quasi-submodular objective cannot
    happen from the canonical starts.
    """
    counter = CountingOracle(oracle)
    n = counter.n
    x = x0
    cursor = counter.cursor(x0)
    steps: list[MinStep] = []
    for t in range(n + 2):
        fx = counter.value(x)
        if steps and not fx < steps[-1].value:  # the paper's strict descent
            raise InternalInvariantError(
                f"step {t - 1} did not descend: F({x_last}) = {steps[-1].value!r} and F({x}) = {fx!r}; "
                "objective is likely not quasi-submodular"
            )
        members = x.to_bool_array()
        outside = np.flatnonzero(~members) + 1
        added = outside[cursor.add_marginals(outside) < 0.0]
        cursor.move(added, NO_IDS)
        # cursor now sits at Y_t; drops are judged against it, members of X_t only
        inside = np.flatnonzero(members) + 1
        removed = inside[cursor.drop_marginals(inside) > 0.0]
        cursor.move(NO_IDS, removed)
        steps.append(
            MinStep(
                t,
                SubsetBits.from_ids(n, added),
                SubsetBits.from_ids(n, removed),
                fx,
                counter.total_calls,
            )
        )
        if not added.size and not removed.size:
            return x, MinTrace(x, steps, counter.eval_calls, counter.marginal_calls)
        x_last, x = x, cursor.members()
    raise InternalInvariantError(
        f"no fixed point within {n + 2} iterations from {x0}; objective is "
        "likely not quasi-submodular"
    )


def min_lattice(oracle) -> tuple[IntervalLattice, tuple[MinTrace, MinTrace]]:
    """Run from the empty and the full set; bracket all local minima.

    Returns the interval between the two fixed points. Both endpoints are
    local minima of a quasi-submodular objective, and the lower endpoint is
    contained in the upper one; a violation raises InternalInvariantError.
    """
    n = oracle.n
    low, trace_up = uqsfmin(oracle, SubsetBits.empty(n))
    high, trace_down = uqsfmin(oracle, SubsetBits.full(n))
    if not low.is_subset(high):
        raise InternalInvariantError(
            f"lower fixed point {low} escapes upper fixed point {high}; "
            "objective is likely not quasi-submodular"
        )
    return IntervalLattice(low, high), (trace_up, trace_down)
