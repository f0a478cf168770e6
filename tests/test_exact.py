import re

import numpy as np
import pytest

from qsopt import (
    CapExceeded,
    InternalInvariantError,
    SubsetBits,
    enumerate_local_optima,
    exact_opt,
    make_random_qsb,
    make_tabular,
    min_lattice,
    nested_argmin_check,
    uqsfmax,
)
from qsopt.functions import seeded_stream
from qsopt.sets import IntervalLattice

from conftest import NAN_TABLE


def full_lattice(n):
    return IntervalLattice(SubsetBits.empty(n), SubsetBits.full(n))


class TestExactOpt:
    def test_reference_table_max(self, prop_oracle):
        value, argmax = exact_opt(prop_oracle, "max", full_lattice(2))
        assert value == 1.5
        assert argmax == [SubsetBits.from_members(2, [2])]

    def test_reference_table_min(self, prop_oracle):
        value, argmin = exact_opt(prop_oracle, "min", full_lattice(2))
        assert value == 0.0
        assert argmin == [SubsetBits.from_members(2, [1])]

    def test_ties_report_all_optimizers(self, twin_peaks_oracle):
        value, argmax = exact_opt(twin_peaks_oracle, "max", full_lattice(2))
        assert value == 1.5
        assert argmax == [SubsetBits.from_members(2, [1]), SubsetBits.from_members(2, [2])]

    def test_restricted_lattice(self, prop_oracle):
        within = IntervalLattice(SubsetBits.from_members(2, [1]), SubsetBits.full(2))
        value, argmax = exact_opt(prop_oracle, "max", within)
        assert value == 1.0  # {2} is outside this interval
        assert argmax == [SubsetBits.full(2)]
        point = SubsetBits.from_members(2, [2])
        for direction in ("min", "max"):
            assert exact_opt(prop_oracle, direction, IntervalLattice(point, point)) == (1.5, [point])
        # a tie inside a sub-interval of the cube: every optimizer, ascending
        F = make_tabular([0.0, 2.0, 2.0, 1.0, 5.0, 2.0, 2.0, 0.0])
        below = IntervalLattice(SubsetBits.empty(3), SubsetBits.from_members(3, [1, 2]))
        assert exact_opt(F, "max", below) == (
            2.0,
            [SubsetBits.from_members(3, [1]), SubsetBits.from_members(3, [2])],
        )
        above = IntervalLattice(SubsetBits.from_members(3, [3]), SubsetBits.full(3))
        assert exact_opt(F, "min", above) == (0.0, [SubsetBits.full(3)])
        middle = IntervalLattice(SubsetBits.from_members(3, [2]), SubsetBits.from_members(3, [2, 3]))
        assert exact_opt(F, "max", middle) == (2.0, [middle.lower, middle.upper])

    def test_nan_value_is_invariant_error(self):
        # F({1}) is NaN: it fails every comparison, so a silent optimum would skip it
        F = make_tabular(NAN_TABLE)
        with pytest.raises(InternalInvariantError, match=re.escape("value of {1} is NaN")):
            exact_opt(F, "max", full_lattice(3))
        below = IntervalLattice(SubsetBits.empty(3), SubsetBits.from_members(3, [1, 2]))
        with pytest.raises(InternalInvariantError, match=re.escape("value of {1} is NaN")):
            exact_opt(F, "max", below)

    def test_cap(self):
        F = make_random_qsb(8, 1)
        with pytest.raises(CapExceeded):
            exact_opt(F, "max", full_lattice(8), cap=4)

    def test_bad_direction(self, prop_oracle):
        with pytest.raises(ValueError):
            exact_opt(prop_oracle, "best", full_lattice(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_reduction_is_lossless(self, seed):
        n = 5 + seed % 5
        F = make_random_qsb(n, seed + 4000)
        for direction in ("min", "max"):
            if direction == "min":
                lattice, _ = min_lattice(F)
            else:
                lattice, _ = uqsfmax(F)
            full_value, _ = exact_opt(F, direction, full_lattice(n))
            reduced_value, _ = exact_opt(F, direction, lattice)
            assert full_value == reduced_value


class TestLocalOptimaEnumeration:
    def test_twin_peaks(self, twin_peaks_oracle):
        assert enumerate_local_optima(twin_peaks_oracle, 2, "max") == [
            SubsetBits.from_members(2, [1]),
            SubsetBits.from_members(2, [2]),
        ]

    def test_constant_function_every_set_is_optimal(self):
        F = make_tabular(np.zeros(16))
        assert len(enumerate_local_optima(F, 4, "min")) == 16

    def test_reference_table_min(self, prop_oracle):
        assert enumerate_local_optima(prop_oracle, 2, "min") == [SubsetBits.from_members(2, [1])]

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_nan_value_is_invariant_error(self, kind):
        # F({1}) is NaN: every comparison with it is false, so "max" would miss {} (7.0)
        F = make_tabular(NAN_TABLE)
        with pytest.raises(
            InternalInvariantError, match=re.escape("enumerate_local_optima: value of {1} is NaN")
        ):
            enumerate_local_optima(F, 3, kind)

    def test_above_table_cap_raises_before_any_evaluation(self):
        class Unevaluable:
            n = 21

            def value(self, x):
                raise AssertionError(f"evaluated {x}")

        for kind in ("min", "max"):
            with pytest.raises(CapExceeded, match="n <= 20, got 21"):
                enumerate_local_optima(Unevaluable(), 21, kind)

    @pytest.mark.parametrize("seed", range(8))
    def test_global_optima_are_local(self, seed):
        n = 5 + seed % 4
        F = make_random_qsb(n, seed + 4100)
        for direction in ("min", "max"):
            _, argopt = exact_opt(F, direction, full_lattice(n))
            locals_ = set(enumerate_local_optima(F, n, direction))
            assert set(argopt) <= locals_


class TestNestedArgmin:
    def test_equal_sets(self, prop_oracle):
        a = SubsetBits.from_members(2, [1])
        assert nested_argmin_check(prop_oracle, a, a)

    def test_empty_lower(self, prop_oracle):
        assert nested_argmin_check(prop_oracle, SubsetBits.empty(2), SubsetBits.full(2))

    def test_requires_nesting(self, prop_oracle):
        with pytest.raises(ValueError):
            nested_argmin_check(
                prop_oracle, SubsetBits.from_members(2, [1]), SubsetBits.from_members(2, [2])
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_random_pairs_on_quasi_submodular(self, seed):
        n = 8
        F = make_random_qsb(n, seed + 4200)
        rng = seeded_stream(seed, 3)
        for _ in range(10):
            b_mask = int(rng.integers(0, 1 << n))
            a_mask = int(rng.integers(0, 1 << n)) & b_mask
            assert nested_argmin_check(F, SubsetBits(n, a_mask), SubsetBits(n, b_mask))
