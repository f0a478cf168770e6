"""Brute-force ground truth: exact optima, local-optima enumeration, nested argmins."""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, InternalInvariantError
from .oracle import eval_table
from .sets import (
    DEFAULT_ENUMERATION_CAP,
    IntervalLattice,
    SubsetBits,
    enumerate_lattice,
    lattice_free_count,
)

#: Largest n for which a full value table is materialized instead of streaming;
#: also the largest n whose ratio experiments take the exact maximum over the
#: full cube rather than over the reduced interval.
TABLE_MAX_N = 20


def _nan_value(x: SubsetBits) -> InternalInvariantError:
    # NaN fails every comparison, so a silent optimum would skip the set
    return InternalInvariantError(f"exact_opt: value of {x} is NaN")


def exact_opt(
    oracle,
    direction: str,
    within: IntervalLattice,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[float, list[SubsetBits]]:
    """Exhaustively optimize over an interval lattice.

    Returns the optimal value and every optimizer attaining it, compared with
    exact float equality on the computed values. A NaN value raises
    ``InternalInvariantError`` naming the first set that has one.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    free = lattice_free_count(within)
    if free > cap:
        raise CapExceeded(f"lattice has {free} free elements, cap is {cap}")
    n = within.capacity
    sign = 1.0 if direction == "max" else -1.0

    if within.lower.mask == 0 and within.upper.mask == (1 << n) - 1 and n <= TABLE_MAX_N:
        values = eval_table(oracle, n)
        nan = np.flatnonzero(np.isnan(values))
        if len(nan):
            raise _nan_value(SubsetBits(n, int(nan[0])))
        best = float((sign * values).max())
        best_value = sign * best
        masks = np.flatnonzero(values == best_value)
        return best_value, [SubsetBits(n, int(m)) for m in masks]

    best_value = None
    argopt: list[SubsetBits] = []
    for member in enumerate_lattice(within, cap=cap):
        v = oracle.value(member)
        if math.isnan(v):
            raise _nan_value(member)
        if best_value is None or sign * v > sign * best_value:
            best_value = v
            argopt = [member]
        elif v == best_value:
            argopt.append(member)
    assert best_value is not None
    return best_value, argopt


def enumerate_local_optima(
    oracle, n: int, kind: str, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[SubsetBits]:
    """All sets where no single-element flip improves in the given direction."""
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")
    if n > cap:
        raise CapExceeded(f"local-optima enumeration needs n <= {cap}, got {n}")
    if n <= TABLE_MAX_N:
        values = eval_table(oracle, n)
        idx = np.arange(1 << n)
        ok = np.ones(1 << n, dtype=bool)
        for b in range(n):
            flipped = values[idx ^ (1 << b)]
            ok &= flipped >= values if kind == "min" else flipped <= values
        return [SubsetBits(n, int(m)) for m in np.flatnonzero(ok)]
    out = []
    full = IntervalLattice(SubsetBits.empty(n), SubsetBits.full(n))
    from .checkers import is_local_max, is_local_min

    test = is_local_min if kind == "min" else is_local_max
    for member in enumerate_lattice(full, cap=cap):
        if test(oracle, member):
            out.append(member)
    return out


def nested_argmin_check(
    oracle, a: SubsetBits, b: SubsetBits, cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """True when some minimizer over subsets of A sits inside one over subsets of B.

    Enumerates every argmin on both sides and looks for a nested pair.
    """
    if not a.is_subset(b):
        raise ValueError("need A to be a subset of B")
    if len(b) > cap:
        raise CapExceeded(f"|B| = {len(b)} exceeds cap {cap}")
    n = a.capacity
    empty = SubsetBits.empty(n)
    _, arg_a = exact_opt(oracle, "min", IntervalLattice(empty, a), cap=cap)
    _, arg_b = exact_opt(oracle, "min", IntervalLattice(empty, b), cap=cap)
    for sa in arg_a:
        for sb in arg_b:
            if sa.is_subset(sb):
                return True
    return False
