"""Brute-force ground truth: exact optima, local-optima enumeration, nested argmins.

Each function builds one value array over the sets it judges, in ascending
mask order, and answers from whole-array comparisons. Entry i of that array
is F at ``lattice.member(i)``: ``exact_opt`` takes ``lattice_values`` of its
interval, full cube or not, and the full-cube functions take ``eval_table``,
the same over the cube. A family oracle answers those in row blocks of its
value formula; an oracle without one, one ``value`` call per member. A NaN
entry fails every comparison, so it raises ``InternalInvariantError`` naming
the first set that has one.

Memory is 8 bytes per member: 8 MiB at n = 20 on the full cube, and
256 MiB for an interval at the default enumeration cap of 25 free elements.
A row block adds at most ``BLOCK_CELLS`` membership bytes (8 KiB) and the
formula's temporaries over them: 64 KiB for each float matrix, and for
facility and determinant the bounds their formulas state.
``checked_table`` is the full-cube step shared with the exhaustive checkers:
``require_cap`` before any evaluation, ``eval_table``, then the NaN rule.
Local-optima enumeration takes it with the cap ``TABLE_MAX_N``;
``checked_value`` is the same rule for one set.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, InternalInvariantError
from .oracle import eval_table, lattice_values
from .sets import DEFAULT_ENUMERATION_CAP, IntervalLattice, SubsetBits

#: Largest n for which a full value table is built: the cap of
#: ``enumerate_local_optima``, the size limit of tabular instances, and the
#: largest n whose ratio experiments take the exact maximum over the full cube
#: rather than over the reduced interval.
TABLE_MAX_N = 20


def _require_no_nan_values(values: np.ndarray, lattice: IntervalLattice, where: str) -> None:
    """Raise naming the member of the first NaN entry; entry i is ``lattice.member(i)``."""
    nan = np.flatnonzero(np.isnan(values))
    if len(nan):
        raise InternalInvariantError(f"{where}: value of {lattice.member(int(nan[0]))} is NaN")


def require_cap(n: int, cap: int, where: str) -> None:
    """Raise ``CapExceeded`` naming ``where`` when n is above ``cap``."""
    if n > cap:
        raise CapExceeded(f"{where} needs n <= {cap}, got {n}")


def checked_table(oracle, n: int, cap: int, where: str) -> np.ndarray:
    """F on all 2**n subsets in mask order; ``where`` names the caller in errors.

    n above ``cap`` raises ``CapExceeded`` before any evaluation, and a NaN
    value raises ``InternalInvariantError`` naming the first set that has one.
    """
    require_cap(n, cap, where)
    values = eval_table(oracle, n)
    _require_no_nan_values(values, IntervalLattice(SubsetBits.empty(n), SubsetBits.full(n)), where)
    return values


def checked_value(oracle, x: SubsetBits, where: str) -> float:
    """F(x); a NaN raises ``InternalInvariantError`` naming x, as in ``checked_table``."""
    value = oracle.value(x)
    if math.isnan(value):
        raise InternalInvariantError(f"{where}: value of {x} is NaN")
    return value


def exact_opt(
    oracle,
    direction: str,
    within: IntervalLattice,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[float, list[SubsetBits]]:
    """Exhaustively optimize over an interval lattice.

    Returns the optimal value and every optimizer attaining it, in ascending
    mask order, compared with exact float equality on the computed values.
    The values are ``lattice_values``: row blocks of the oracle's value
    formula, or one ``value`` call per member without one. Over ``cap`` free
    elements it raises ``CapExceeded`` before any evaluation; a NaN value
    raises ``InternalInvariantError`` naming the first set that has one.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    values = lattice_values(oracle, within, cap=cap)
    _require_no_nan_values(values, within, "exact_opt")
    best = values.max() if direction == "max" else values.min()
    optimal = np.flatnonzero(values == best)
    return float(values[optimal[0]]), [within.member(int(i)) for i in optimal]


def enumerate_local_optima(oracle, n: int, kind: str) -> list[SubsetBits]:
    """All sets where no single-element flip improves in the given direction.

    Judged on the full value table, so n above ``TABLE_MAX_N`` raises
    ``CapExceeded`` before any evaluation. A NaN value raises
    ``InternalInvariantError`` naming the first set that has one.
    """
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")
    values = checked_table(oracle, n, TABLE_MAX_N, "enumerate_local_optima")
    idx = np.arange(1 << n)
    ok = np.ones(1 << n, dtype=bool)
    for b in range(n):
        flipped = values[idx ^ (1 << b)]
        ok &= flipped >= values if kind == "min" else flipped <= values
    return [SubsetBits(n, int(m)) for m in np.flatnonzero(ok)]


def nested_argmin_check(oracle, a: SubsetBits, b: SubsetBits) -> bool:
    """True when some minimizer over subsets of A sits inside one over subsets of B.

    Enumerates every argmin on both sides and looks for a nested pair; |B|
    above the default enumeration cap raises ``CapExceeded``.
    """
    if not a.is_subset(b):
        raise ValueError("need A to be a subset of B")
    empty = SubsetBits.empty(a.capacity)
    _, arg_a = exact_opt(oracle, "min", IntervalLattice(empty, a))
    _, arg_b = exact_opt(oracle, "min", IntervalLattice(empty, b))
    return any(sa.is_subset(sb) for sa in arg_a for sb in arg_b)
