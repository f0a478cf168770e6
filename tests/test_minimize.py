import re

import numpy as np
import pytest

from qsopt import (
    InternalInvariantError,
    SubsetBits,
    enumerate_local_optima,
    exact_opt,
    is_local_min,
    make_com,
    make_iwata,
    make_random_qsb,
    make_tabular,
    min_lattice,
    uqsfmin,
)
from qsopt.sets import IntervalLattice

from conftest import NAN_TABLE


class TestUqsfminReferenceTable:
    def test_from_empty(self, prop_oracle):
        result, trace = uqsfmin(prop_oracle, SubsetBits.empty(2))
        assert result == SubsetBits.from_members(2, [1])
        assert trace.iterations == 2
        # first pass adds exactly the negative-gain element
        assert trace.steps[0].added == SubsetBits.from_members(2, [1])
        assert trace.steps[0].removed == SubsetBits.empty(2)

    def test_from_full(self, prop_oracle):
        result, trace = uqsfmin(prop_oracle, SubsetBits.full(2))
        assert result == SubsetBits.from_members(2, [1])
        assert trace.steps[0].removed == SubsetBits.from_members(2, [2])

    def test_fixpoint_start_returns_immediately(self, prop_oracle):
        start = SubsetBits.from_members(2, [1])
        result, trace = uqsfmin(prop_oracle, start)
        assert result == start
        assert trace.iterations == 1


class TestStrictDescent:
    @pytest.mark.parametrize("seed", range(12))
    def test_values_strictly_decrease(self, seed):
        n = 3 + seed % 6
        F = make_random_qsb(n, seed)
        for start in (SubsetBits.empty(n), SubsetBits.full(n)):
            _, trace = uqsfmin(F, start)
            values = [s.value for s in trace.steps]
            assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_chains_from_canonical_starts(self, seed):
        n = 4 + seed % 5
        F = make_random_qsb(n, seed + 100)
        _, up = uqsfmin(F, SubsetBits.empty(n))
        for step in up.steps:
            assert step.removed == SubsetBits.empty(n)
        _, down = uqsfmin(F, SubsetBits.full(n))
        for step in down.steps:
            assert step.added == SubsetBits.empty(n)


class TestFirstIterationSets:
    @pytest.mark.parametrize("seed", range(6))
    def test_threshold_sets(self, seed):
        n = 6
        F = make_random_qsb(n, seed + 300)
        empty = SubsetBits.empty(n)
        full = SubsetBits.full(n)
        _, up = uqsfmin(F, empty)
        expect_up = {i for i in range(1, n + 1) if F.cursor(empty).add_marginal(i) < 0}
        assert set(up.steps[0].added) == expect_up
        # from the full set the boundary is weak: dropping a zero-gain element stays
        _, down = uqsfmin(F, full)
        survivors = full.difference(down.steps[0].removed)
        expect_keep = {i for i in range(1, n + 1) if F.cursor(full).drop_marginal(i) <= 0}
        assert set(survivors) == expect_keep


class TestMinLattice:
    def test_reference_table_point_lattice(self, prop_oracle):
        lattice, _ = min_lattice(prop_oracle)
        point = SubsetBits.from_members(2, [1])
        assert lattice.lower == point and lattice.upper == point
        value, argmin = exact_opt(prop_oracle, "min", IntervalLattice(SubsetBits.empty(2), SubsetBits.full(2)))
        assert value == 0.0 and argmin == [point]

    def test_constant_function_no_reduction(self):
        F = make_tabular(np.ones(32))
        lattice, (up, down) = min_lattice(F)
        assert lattice.lower == SubsetBits.empty(5)
        assert lattice.upper == SubsetBits.full(5)
        assert up.iterations == 1 and down.iterations == 1

    def test_iwata_contains_exhaustive_argmin(self):
        F = make_iwata(5)
        lattice, _ = min_lattice(F)
        _, argmin = exact_opt(F, "min", IntervalLattice(SubsetBits.empty(5), SubsetBits.full(5)))
        assert all(lattice.contains(s) for s in argmin)

    @pytest.mark.parametrize("seed", range(15))
    def test_contains_all_local_minima(self, seed):
        n = 4 + seed % 7
        F = make_random_qsb(n, seed + 500)
        lattice, _ = min_lattice(F)
        for local in enumerate_local_optima(F, n, "min"):
            assert lattice.contains(local)

    @pytest.mark.parametrize("seed", range(10))
    def test_endpoints_are_local_minima(self, seed):
        n = 4 + seed % 6
        F = make_random_qsb(n, seed + 700)
        lattice, _ = min_lattice(F)
        assert is_local_min(F, lattice.lower)
        assert is_local_min(F, lattice.upper)


class TestIterationBounds:
    @pytest.mark.parametrize("seed", range(10))
    def test_iterations_within_ground_set_bound(self, seed):
        n = 5 + seed % 5
        F = make_random_qsb(n, seed + 900)
        for start in (SubsetBits.empty(n), SubsetBits.full(n)):
            _, trace = uqsfmin(F, start)
            assert trace.iterations <= n + 1

    def test_guard_trips_on_cycling_objective(self):
        # not quasi-submodular; the working set would oscillate into the guard, but its
        # first step already rises from F({1,2,3}) to F({1}), which the descent check stops
        values = [
            0.5436249914654229, 0.9350724237877682, 0.8158535541215322,
            0.002738500170148095, 0.8574042765875693, 0.033585575305464355,
            0.7296554464299441, 0.17565562060255901,
        ]
        F = make_tabular(values)
        with pytest.raises(InternalInvariantError):
            min_lattice(F)

    def test_nan_marginal_fails_loudly(self):
        with pytest.raises(InternalInvariantError, match=re.escape("marginal of element 1 is NaN (add at {})")):
            min_lattice(make_tabular(NAN_TABLE))

    def test_a_step_that_does_not_descend_fails_loudly(self):
        # not quasi-submodular: 2 and 3 each lower F({}) = 1 to 0, together they raise it to 3.
        # Unchecked, the run went on to return {1,2,3} (F = 2) while F({2}) = 0.
        F = make_tabular([1.0, 2.0, 0.0, 2.0, 0.0, 4.0, 3.0, 2.0])
        message = "step 0 did not descend: F({}) = 1.0 and F({2,3}) = 3.0"
        with pytest.raises(InternalInvariantError, match=re.escape(message)):
            uqsfmin(F, SubsetBits.empty(3))


def test_arbitrary_start_reports_local_min_empirically():
    # started off the canonical corners, the fixed point is still a local
    # minimum on these instances; reported, not guaranteed
    rng = np.random.default_rng(8)
    for seed in range(8):
        n = 6
        F = make_random_qsb(n, seed + 1100)
        start = SubsetBits(n, int(rng.integers(0, 1 << n)))
        result, _ = uqsfmin(F, start)
        assert is_local_min(F, result)


def test_com_large_instance_runs_quickly():
    F = make_com(2000, 3)
    lattice, (up, down) = min_lattice(F)
    assert up.iterations <= 2001 and down.iterations <= 2001
    assert not lattice.is_empty()
