"""Loop implementations of the exhaustive checkers: the reference for ``qsopt.checkers``.

Each function enumerates its condition one set X, or one element and set B,
at a time, in the order that fixes the first witness, and returns what the
library checker of the same name must return, witness included. A NaN value
raises the error the library raises, naming the first set that has one.
"""

from __future__ import annotations

import math

import numpy as np

from qsopt import InternalInvariantError
from qsopt.checkers import SUBMODULAR_ATOL, PropertyVerdict, Witness
from qsopt.oracle import eval_table
from qsopt.sets import SubsetBits, iter_bits


def _submasks_ascending(mask: int, n: int) -> np.ndarray:
    """All submasks of ``mask`` as an ascending int64 array."""
    positions = np.array([i - 1 for i in iter_bits(mask)], dtype=np.int64)
    k = len(positions)
    combos = np.arange(1 << k, dtype=np.int64)
    out = np.zeros(1 << k, dtype=np.int64)
    for j in range(k):
        out |= ((combos >> j) & 1) << positions[j]
    return out


def _table(oracle, n: int, where: str) -> np.ndarray:
    """F on every mask, scanned one mask at a time for the first NaN."""
    values = eval_table(oracle, n)
    for mask in range(1 << n):
        if math.isnan(values[mask]):
            raise InternalInvariantError(f"{where}: value of {SubsetBits(n, mask)} is NaN")
    return values


def is_submodular(oracle, n: int) -> PropertyVerdict:
    """Check diminishing returns: F(i|A) >= F(i|B) for all A <= B <= N-i."""
    values = _table(oracle, n, "is_submodular")
    full = (1 << n) - 1
    for i in range(1, n + 1):
        ibit = 1 << (i - 1)
        rest = full & ~ibit
        for b_mask in _submasks_ascending(rest, n):
            b_mask = int(b_mask)
            subs = _submasks_ascending(b_mask, n)
            gain_a = values[subs | ibit] - values[subs]
            gain_b = values[b_mask | ibit] - values[b_mask]
            bad = gain_a < gain_b - SUBMODULAR_ATOL
            if bad.any():
                a_mask = int(subs[int(np.argmax(bad))])
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
                        values={
                            "F(X)": float(values[x_mask]),
                            "F(Y)": float(values[y_mask]),
                            "F(X&Y)": float(values[x_mask & y_mask]),
                            "F(X|Y)": float(values[x_mask | y_mask]),
                        },
                    ),
                )
    return PropertyVerdict(True)


def is_quasi_submodular(oracle, n: int) -> PropertyVerdict:
    """Check both lattice implications over every ordered pair (X, Y).

    Required for all X, Y:
      F(X & Y) >= F(X)  implies  F(Y) >= F(X | Y)
      F(X & Y) >  F(X)  implies  F(Y) >  F(X | Y)
    """
    values = _table(oracle, n, "is_quasi_submodular")
    size = 1 << n
    ys = np.arange(size, dtype=np.int64)
    vy = values
    for x_mask in range(size):
        inter = x_mask & ys
        union = x_mask | ys
        fx = values[x_mask]
        weak_bad = (values[inter] >= fx) & (vy < values[union])
        strict_bad = (values[inter] > fx) & (vy <= values[union])
        bad = weak_bad | strict_bad
        if bad.any():
            y_mask = int(np.argmax(bad))
            strict = bool(strict_bad[y_mask]) and not bool(weak_bad[y_mask])
            cond = (
                "F(X&Y) > F(X) but F(Y) <= F(X|Y)"
                if strict
                else "F(X&Y) >= F(X) but F(Y) < F(X|Y)"
            )
            return PropertyVerdict(
                False,
                Witness(
                    condition=cond,
                    sets={"X": SubsetBits(n, x_mask), "Y": SubsetBits(n, y_mask)},
                    values={
                        "F(X)": float(values[x_mask]),
                        "F(Y)": float(values[y_mask]),
                        "F(X&Y)": float(values[x_mask & y_mask]),
                        "F(X|Y)": float(values[x_mask | y_mask]),
                    },
                ),
            )
    return PropertyVerdict(True)


def satisfies_ssbc(oracle, n: int) -> PropertyVerdict:
    """Check the single sub-crossing property over all A <= B <= N, i not in B.

    Required:
      F(A) >= F(B)  implies  F(A+i) >= F(B+i)
      F(A) >  F(B)  implies  F(A+i) >  F(B+i)
    """
    values = _table(oracle, n, "satisfies_ssbc")
    full = (1 << n) - 1
    for b_mask in range(1 << n):
        subs = _submasks_ascending(b_mask, n)
        fa = values[subs]
        fb = values[b_mask]
        free = full & ~b_mask
        for i in iter_bits(free):
            ibit = 1 << (i - 1)
            fai = values[subs | ibit]
            fbi = values[b_mask | ibit]
            weak_bad = (fa >= fb) & (fai < fbi)
            strict_bad = (fa > fb) & (fai <= fbi)
            bad = weak_bad | strict_bad
            if bad.any():
                j = int(np.argmax(bad))
                a_mask = int(subs[j])
                strict = bool(strict_bad[j]) and not bool(weak_bad[j])
                cond = (
                    "F(A) > F(B) but F(A+i) <= F(B+i)"
                    if strict
                    else "F(A) >= F(B) but F(A+i) < F(B+i)"
                )
                return PropertyVerdict(
                    False,
                    Witness(
                        condition=cond,
                        sets={"A": SubsetBits(n, a_mask), "B": SubsetBits(n, b_mask)},
                        element=i,
                        values={
                            "F(A)": float(fa[j]),
                            "F(B)": float(fb),
                            "F(A+i)": float(fai[j]),
                            "F(B+i)": float(fbi),
                        },
                    ),
                )
    return PropertyVerdict(True)


def satisfies_weak_marginal(oracle, n: int) -> PropertyVerdict:
    """Check marginal-sign monotonicity over all A <= B <= N - i.

    Required:
      F(i|A) <= 0  implies  F(i|B) <= 0
      F(i|A) <  0  implies  F(i|B) <  0
    """
    values = _table(oracle, n, "satisfies_weak_marginal")
    full = (1 << n) - 1
    for i in range(1, n + 1):
        ibit = 1 << (i - 1)
        rest = full & ~ibit
        for b_mask in _submasks_ascending(rest, n):
            b_mask = int(b_mask)
            gain_b = values[b_mask | ibit] - values[b_mask]
            subs = _submasks_ascending(b_mask, n)
            gain_a = values[subs | ibit] - values[subs]
            weak_bad = (gain_a <= 0.0) & (gain_b > 0.0)
            strict_bad = (gain_a < 0.0) & (gain_b >= 0.0)
            bad = weak_bad | strict_bad
            if bad.any():
                j = int(np.argmax(bad))
                a_mask = int(subs[j])
                strict = bool(strict_bad[j]) and not bool(weak_bad[j])
                cond = (
                    "F(i|A) < 0 but F(i|B) >= 0"
                    if strict
                    else "F(i|A) <= 0 but F(i|B) > 0"
                )
                return PropertyVerdict(
                    False,
                    Witness(
                        condition=cond,
                        sets={"A": SubsetBits(n, a_mask), "B": SubsetBits(n, b_mask)},
                        element=i,
                        values={"F(i|A)": float(gain_a[j]), "F(i|B)": float(gain_b)},
                    ),
                )
    return PropertyVerdict(True)
