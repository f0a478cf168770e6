"""Exhaustive verification of submodularity-type properties on small ground sets.

Every checker takes F on all 2**n subsets from ``exact.checked_table``, which
applies its size cap and the NaN rule, and tests its defining condition over
that table in whole-array passes. On failure it returns a witness carrying the
participating sets and the values that violate the condition, so the verdict
can be replayed against the oracle. ``is_local_min``/``is_local_max`` take
each value from ``exact.checked_value``, under the same NaN rule.
``_crossing`` states once the weak and strict ordinal implication of the
pair, single sub-crossing and weak marginal conditions.

Cost, with the table already evaluated:

- ``is_submodular``: O(n^2 2^n). For each element i, the subset-min transform
  of the gains F(i|A) gives every B its smallest gain over A <= B at once.
- ``satisfies_weak_marginal``: O(n^2 2^n). The same transform: some A <= B
  has F(i|A) <= 0 (or < 0) exactly when that smallest gain does.
- ``satisfies_ssbc``: O(n 3^n). For each element i, one pass over all
  pairs A <= B <= N - i (3^(n-1), 1.6 M at the n = 14 cap), in blocks of
  ascending B so that a failure stops the scan after its block.
- ``is_quasi_submodular``: O(4^n), every ordered pair (X, Y), in blocks of
  consecutive X.

The first witness is the one a plain enumeration in a fixed order meets
first, masks and element ids ascending: ``is_submodular`` and
``satisfies_weak_marginal`` take i, then B, then A; ``satisfies_ssbc`` takes
B, then i, then A; ``is_quasi_submodular`` takes X, then Y. The passes find
the first failing (i, B); A is then looked up among the submasks of that B
alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exact import checked_table, checked_value
from .sets import SubsetBits

SUBMODULAR_MAX_N = 14
QSB_MAX_N = 12
SSBC_MAX_N = 14
WEAK_MARGINAL_MAX_N = 14

#: ``qsopt check``'s properties in print order, each with its cap and the name of
#: its checker, looked up on this module at call time so that a patched one runs.
PROPERTIES = {
    "submodular": ("is_submodular", SUBMODULAR_MAX_N),
    "qsb": ("is_quasi_submodular", QSB_MAX_N),
    "ssbc": ("satisfies_ssbc", SSBC_MAX_N),
    "weak": ("satisfies_weak_marginal", WEAK_MARGINAL_MAX_N),
}

#: Submodularity slack: inequality violations smaller than this are noise.
SUBMODULAR_ATOL = 1e-12


@dataclass(frozen=True)
class Witness:
    """The condition that failed and the sets/values that break it."""

    condition: str
    sets: dict = field(default_factory=dict)
    element: Optional[int] = None
    values: dict = field(default_factory=dict)

    def describe(self) -> str:
        parts = [self.condition]
        parts += [f"{k}={v}" for k, v in self.sets.items()]
        if self.element is not None:
            parts.append(f"i={self.element}")
        parts += [f"{k}={v:.12g}" for k, v in self.values.items()]
        return " ".join(parts)


@dataclass(frozen=True)
class PropertyVerdict:
    holds: bool
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.holds


#: Entries per array in one block of the pair condition's (X, Y) grid.
_QSB_BLOCK = 1 << 14
#: Elements that vary inside one block of the single sub-crossing pass; the
#: higher elements of B are fixed per block, so blocks come in ascending B.
_SSBC_BLOCK_N = 9

#: Witness conditions: the weak then the strict half of each implication.
_QSB_TEXTS = ("F(X&Y) >= F(X) but F(Y) < F(X|Y)", "F(X&Y) > F(X) but F(Y) <= F(X|Y)")
_SSBC_TEXTS = ("F(A) >= F(B) but F(A+i) < F(B+i)", "F(A) > F(B) but F(A+i) <= F(B+i)")
_WEAK_TEXTS = ("F(i|A) <= 0 but F(i|B) > 0", "F(i|A) < 0 but F(i|B) >= 0")


def _crossing(p_a, p_b, q_a, q_b) -> tuple[np.ndarray, np.ndarray]:
    """Violations of "p_a >= p_b implies q_a >= q_b" and of "p_a > p_b implies q_a > q_b"."""
    return (p_a >= p_b) & (q_a < q_b), (p_a > p_b) & (q_a <= q_b)


def _condition(weak_bad: np.ndarray, at, texts: tuple[str, str]) -> str:
    """The (weak, strict) text of the half failing at ``at``; the weak one when both fail."""
    return texts[0] if weak_bad[at] else texts[1]


def _pair_values(values: np.ndarray, x_mask: int, y_mask: int) -> dict:
    """F(X), F(Y), F(X&Y) and F(X|Y), as a witness reports them."""
    return {
        "F(X)": float(values[x_mask]),
        "F(Y)": float(values[y_mask]),
        "F(X&Y)": float(values[x_mask & y_mask]),
        "F(X|Y)": float(values[x_mask | y_mask]),
    }


def _subset_reduce(table: np.ndarray, ufunc) -> np.ndarray:
    """Along the last axis, entry B becomes ``ufunc`` reduced over the entries A <= B."""
    out = table.copy()
    bit = 1
    while bit < out.shape[-1]:
        # axes [..., higher bits, this bit clear or set, lower bits]
        halves = out.reshape(*out.shape[:-1], -1, 2, bit)
        ufunc(halves[..., 1, :], halves[..., 0, :], out=halves[..., 1, :])
        bit <<= 1
    return out


def _gains(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row i-1 holds F(i|B) for every mask B, and whether B leaves out i.

    Gains inf - inf are NaN and fail every comparison; ``np.fmin`` skips them too.
    That NaN is the rule, not a fault, so numpy's warning about it is off.
    """
    masks = np.arange(1 << n)
    bits = (1 << np.arange(n))[:, None]
    with np.errstate(invalid="ignore"):
        gains = values[masks | bits] - values[masks]
    return gains, (masks & bits) == 0


def _first_submask(b_mask: int, bad: np.ndarray) -> int:
    """Smallest A <= B with ``bad[A]``; the caller knows there is one."""
    masks = np.arange(len(bad))
    return int(np.argmax(bad & ((masks & ~b_mask) == 0)))


def _subset_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All 3**m pairs A <= B of subsets of the first m elements, as two mask arrays."""
    a = np.zeros(1, dtype=np.int64)
    b = np.zeros(1, dtype=np.int64)
    for j in range(m):
        bit = 1 << j
        a = np.concatenate((a, a, a | bit))
        b = np.concatenate((b, b | bit, b | bit))
    return a, b


def _ssbc_first_failure(values: np.ndarray, n: int) -> Optional[tuple[int, int]]:
    """(B, i) of the first single sub-crossing failure, B then i ascending, or None."""
    low = min(n, _SSBC_BLOCK_N)
    pair_a, pair_b = _subset_pairs(low)
    # for each low element i, the pairs whose B leaves i out
    leaves_out = [np.flatnonzero((pair_b & (1 << j)) == 0) for j in range(low)]
    highs = np.arange(1 << (n - low))
    for b_high in highs.tolist():
        b_base = b_high << low
        # rows: the high parts of A <= B; columns: the pairs of low parts
        a_high = (highs[(highs & ~b_high) == 0] << low)[:, None]
        first = None
        for i in range(1, n + 1):
            ibit = 1 << (i - 1)
            if i <= low:
                cols = leaves_out[i - 1]
            elif b_base & ibit:
                continue
            else:
                cols = slice(None)
            a = a_high | pair_a[cols]
            b = b_base | pair_b[cols]
            fa, fai = values[a], values[a | ibit]
            weak_bad, strict_bad = _crossing(fa, values[b], fai, values[b | ibit])
            bad = (weak_bad | strict_bad).any(axis=0)
            if bad.any():
                b_mask = int(b[bad].min())
                if first is None or b_mask < first[0]:
                    first = (b_mask, i)
        if first is not None:
            return first
    return None


def is_submodular(oracle, n: int) -> PropertyVerdict:
    """Check diminishing returns: F(i|A) >= F(i|B) for all A <= B <= N-i."""
    values = checked_table(oracle, n, SUBMODULAR_MAX_N, "is_submodular")
    gains, excludes = _gains(values, n)
    lowest = _subset_reduce(gains, np.fmin)
    bad = (lowest < gains - SUBMODULAR_ATOL) & excludes
    if not bad.any():
        return PropertyVerdict(True)
    row, b_mask = divmod(int(np.argmax(bad)), 1 << n)
    i, ibit = row + 1, 1 << row
    gain = gains[row]
    a_mask = _first_submask(b_mask, gain < gain[b_mask] - SUBMODULAR_ATOL)
    x_mask, y_mask = a_mask | ibit, b_mask
    return PropertyVerdict(
        False,
        Witness(
            condition="diminishing returns: F(i|A) < F(i|B) with A <= B",
            sets={
                "A": SubsetBits(n, a_mask),
                "B": SubsetBits(n, b_mask),
                "X": SubsetBits(n, x_mask),
                "Y": SubsetBits(n, y_mask),
            },
            element=i,
            values=_pair_values(values, x_mask, y_mask),
        ),
    )


def is_quasi_submodular(oracle, n: int) -> PropertyVerdict:
    """Check both lattice implications over every ordered pair (X, Y).

    Required for all X, Y:
      F(X & Y) >= F(X)  implies  F(Y) >= F(X | Y)
      F(X & Y) >  F(X)  implies  F(Y) >  F(X | Y)
    """
    values = checked_table(oracle, n, QSB_MAX_N, "is_quasi_submodular")
    size = 1 << n
    ys = np.arange(size)
    rows = max(1, _QSB_BLOCK >> n)
    for start in range(0, size, rows):
        xs = np.arange(start, min(start + rows, size))[:, None]
        weak_bad, strict_bad = _crossing(values[xs & ys], values[xs], values, values[xs | ys])
        bad = weak_bad | strict_bad
        if bad.any():
            row, y_mask = divmod(int(np.argmax(bad)), size)
            x_mask = start + row
            return PropertyVerdict(
                False,
                Witness(
                    condition=_condition(weak_bad, (row, y_mask), _QSB_TEXTS),
                    sets={"X": SubsetBits(n, x_mask), "Y": SubsetBits(n, y_mask)},
                    values=_pair_values(values, x_mask, y_mask),
                ),
            )
    return PropertyVerdict(True)


def satisfies_ssbc(oracle, n: int) -> PropertyVerdict:
    """Check the single sub-crossing property over all A <= B <= N, i not in B.

    Required:
      F(A) >= F(B)  implies  F(A+i) >= F(B+i)
      F(A) >  F(B)  implies  F(A+i) >  F(B+i)
    """
    values = checked_table(oracle, n, SSBC_MAX_N, "satisfies_ssbc")
    first = _ssbc_first_failure(values, n)
    if first is None:
        return PropertyVerdict(True)
    b_mask, i = first
    ibit = 1 << (i - 1)
    fb, fbi = values[b_mask], values[b_mask | ibit]
    fai = values[np.arange(1 << n) | ibit]
    weak_bad, strict_bad = _crossing(values, fb, fai, fbi)
    a_mask = _first_submask(b_mask, weak_bad | strict_bad)
    return PropertyVerdict(
        False,
        Witness(
            condition=_condition(weak_bad, a_mask, _SSBC_TEXTS),
            sets={"A": SubsetBits(n, a_mask), "B": SubsetBits(n, b_mask)},
            element=i,
            values={
                "F(A)": float(values[a_mask]),
                "F(B)": float(fb),
                "F(A+i)": float(fai[a_mask]),
                "F(B+i)": float(fbi),
            },
        ),
    )


def satisfies_weak_marginal(oracle, n: int) -> PropertyVerdict:
    """Check marginal-sign monotonicity over all A <= B <= N - i.

    Required:
      F(i|A) <= 0  implies  F(i|B) <= 0
      F(i|A) <  0  implies  F(i|B) <  0
    """
    values = checked_table(oracle, n, WEAK_MARGINAL_MAX_N, "satisfies_weak_marginal")
    gains, excludes = _gains(values, n)
    weak_bad, strict_bad = _crossing(0.0, _subset_reduce(gains, np.fmin), 0.0, gains)
    bad = (weak_bad | strict_bad) & excludes
    if not bad.any():
        return PropertyVerdict(True)
    row, b_mask = divmod(int(np.argmax(bad)), 1 << n)
    gain = gains[row]
    gain_b = gain[b_mask]
    weak_bad, strict_bad = _crossing(0.0, gain, 0.0, gain_b)
    a_mask = _first_submask(b_mask, weak_bad | strict_bad)
    return PropertyVerdict(
        False,
        Witness(
            condition=_condition(weak_bad, a_mask, _WEAK_TEXTS),
            sets={"A": SubsetBits(n, a_mask), "B": SubsetBits(n, b_mask)},
            element=row + 1,
            values={"F(i|A)": float(gain[a_mask]), "F(i|B)": float(gain_b)},
        ),
    )


def _no_improving_flip(oracle, x: SubsetBits, improves, where: str) -> bool:
    """True when no flip y of x, tried in element order, has ``improves(F(y), F(x))``."""
    fx = checked_value(oracle, x, where)
    for i in range(1, x.capacity + 1):
        neighbor = x.remove(i) if x.contains(i) else x.add(i)
        if improves(checked_value(oracle, neighbor, where), fx):
            return False
    return True


def is_local_min(oracle, x: SubsetBits) -> bool:
    """No single-element flip lowers the value (both dropping and adding)."""
    return _no_improving_flip(oracle, x, operator.lt, "is_local_min")


def is_local_max(oracle, x: SubsetBits) -> bool:
    """No single-element flip raises the value."""
    return _no_improving_flip(oracle, x, operator.gt, "is_local_max")
