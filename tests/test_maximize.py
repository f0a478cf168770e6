import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsopt import (
    InternalInvariantError,
    SetFunctionOracle,
    SubsetBits,
    double_greedy,
    enumerate_local_optima,
    exact_opt,
    is_local_max,
    make_iwata,
    make_random_qsb,
    make_tabular,
    random_permutation_greedy,
    randomized_local_search,
    u_prefix,
    uqsfmax,
)
from qsopt import FunctionSpec, instantiate, maximize
from qsopt.functions import seeded_stream
from qsopt.maximize import restricted_oracle
from qsopt.oracle import Cursor
from qsopt.sets import IntervalLattice

from conftest import NAN_TABLE, PROP_TABLE, TWIN_PEAKS_TABLE, SpyCursor

SIX_FAMILIES = ["iwata", "com", "half_products", "perturbed_facility", "determinant", "cobb_douglas"]


class TestUqsfmaxReferenceTables:
    def test_supermodular_table_pins_the_maximum(self, prop_oracle):
        lattice, trace = uqsfmax(prop_oracle)
        point = SubsetBits.from_members(2, [2])
        assert lattice.lower == point and lattice.upper == point
        assert trace.steps[0].added == point
        assert trace.steps[0].removed == SubsetBits.from_members(2, [1])
        value, argmax = exact_opt(
            prop_oracle, "max", IntervalLattice(SubsetBits.empty(2), SubsetBits.full(2))
        )
        assert value == 1.5 and argmax == [point]

    def test_incomparable_local_maxima_block_reduction(self, twin_peaks_oracle):
        lattice, _ = uqsfmax(twin_peaks_oracle)
        assert lattice.lower == SubsetBits.empty(2)
        assert lattice.upper == SubsetBits.full(2)
        maxima = enumerate_local_optima(twin_peaks_oracle, "max")
        assert maxima == [SubsetBits.from_members(2, [1]), SubsetBits.from_members(2, [2])]
        assert all(lattice.contains(s) for s in maxima)

    def test_all_positive_modular_closes_in_one_pass(self):
        weights = [2.0, 1.0, 3.5]
        table = [sum(w for k, w in enumerate(weights, 1) if m >> (k - 1) & 1) for m in range(8)]
        lattice, trace = uqsfmax(make_tabular(table))
        assert lattice.lower == SubsetBits.full(3) == lattice.upper
        assert trace.steps[0].added == SubsetBits.full(3)


def test_nan_marginal_fails_loudly():
    with pytest.raises(InternalInvariantError, match=re.escape("marginal of element 1 is NaN (add at {})")):
        uqsfmax(make_tabular(NAN_TABLE))


# Two tables that are not quasi-submodular, each the other with its sets complemented, so
# the X and Y sides swap. Index order {}, {1}, {2}, {1,2}. Step 0 commits one element to X and
# expels the other from Y; for the first table F({2}) = F({}) = 5, and unchecked the run
# returned the point [{2}, {2}], which leaves out the maximum {}.
@pytest.mark.parametrize(
    "table,message",
    [
        ([5.0, 2.0, 5.0, 4.0], "step 0 did not ascend on X: F({}) = 5.0 and F({2}) = 5.0"),
        ([4.0, 5.0, 2.0, 5.0], "step 0 did not ascend on Y: F({1,2}) = 5.0 and F({1}) = 5.0"),
    ],
    ids=["x", "y"],
)
def test_a_side_that_does_not_ascend_fails_loudly(table, message):
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        uqsfmax(make_tabular(table))


class TestLatticeInvariants:
    @pytest.mark.parametrize("seed", range(15))
    def test_interval_stays_nonempty_and_shrinks(self, seed):
        n = 4 + seed % 7
        F = make_random_qsb(n, seed + 2000)
        lattice, trace = uqsfmax(F)
        x = SubsetBits.empty(n)
        y = SubsetBits.full(n)
        for step in trace.steps:
            assert step.added.intersection(step.removed) == SubsetBits.empty(n)
            x2 = x.union(step.added)
            y2 = y.difference(step.removed)
            assert x.is_subset(x2) and y2.is_subset(y)
            assert x2.is_subset(y2)
            x, y = x2, y2
        assert (x, y) == (lattice.lower, lattice.upper)

    @pytest.mark.parametrize("seed", range(15))
    def test_changed_endpoints_strictly_improve(self, seed):
        n = 4 + seed % 7
        F = make_random_qsb(n, seed + 2100)
        _, trace = uqsfmax(F)
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            if prev.added.cardinality():
                assert cur.fx > prev.fx
            if prev.removed.cardinality():
                assert cur.fy > prev.fy

    @pytest.mark.parametrize("seed", range(15))
    def test_contains_all_local_maxima(self, seed):
        n = 4 + seed % 7
        F = make_random_qsb(n, seed + 2200)
        lattice, _ = uqsfmax(F)
        for local in enumerate_local_optima(F, "max"):
            assert lattice.contains(local)

    @pytest.mark.parametrize("seed", range(10))
    def test_complexity_bounds(self, seed):
        n = 5 + seed % 6
        F = make_random_qsb(n, seed + 2300)
        _, trace = uqsfmax(F)
        assert trace.iterations <= n + 1
        assert trace.total_calls <= 4 * n * n + 8 * n

    def test_first_iteration_threshold_sets(self):
        n = 6
        F = make_random_qsb(n, 2400)
        _, trace = uqsfmax(F)
        empty, full = SubsetBits.empty(n), SubsetBits.full(n)
        expect_in = {i for i in range(1, n + 1) if F.cursor(full).drop_marginal(i) > 0}
        expect_keep = {i for i in range(1, n + 1) if F.cursor(empty).add_marginal(i) >= 0}
        assert set(trace.steps[0].added) == expect_in
        assert set(full.difference(trace.steps[0].removed)) == expect_keep


class TestLocalMaxReporting:
    def test_flags_on_request(self, twin_peaks_oracle):
        lattice, _ = uqsfmax(twin_peaks_oracle)
        # neither endpoint of the stuck interval is a local maximum here
        assert is_local_max(twin_peaks_oracle, lattice.lower) is False
        assert is_local_max(twin_peaks_oracle, lattice.upper) is False


def test_a_side_the_last_step_left_keeps_its_value():
    """F(S) = [1 in S]: step 0 adds 1 to X and removes nothing, so step 1 evaluates F(X) alone."""
    F = make_tabular([0.0, 1.0, 0.0, 1.0])
    rows = []
    G = SetFunctionOracle(
        F.ground,
        value_rows=lambda members: rows.append(len(members)) or F.value_rows(members),
        cursor_factory=lambda _owner, start: F.cursor(start),
    )
    lattice, trace = uqsfmax(G)
    assert (lattice.lower, lattice.upper) == (SubsetBits.from_members(2, [1]), SubsetBits.full(2))
    assert [(len(s.added), len(s.removed)) for s in trace.steps] == [(1, 0), (0, 0)]
    assert sum(rows) == 3  # F(X) and F(Y) at step 0, then F(X) at step 1
    assert (trace.steps[1].fx, trace.steps[1].fy) == (1.0, trace.steps[0].fy)


def reference_uqsfmax(F):
    """The reduction as the paper states it: both sides judged at every step, by fresh cursors.

    Returns the lattice and each step's (added, removed) sets.
    """
    n = F.n
    x, y = SubsetBits.empty(n), SubsetBits.full(n)
    steps = []
    while True:
        free = [i for i in range(1, n + 1) if y.contains(i) and not x.contains(i)]
        at_x, at_y = F.cursor(x), F.cursor(y)
        added = SubsetBits.from_members(n, [i for i in free if at_y.drop_marginal(i) > 0.0])
        removed = SubsetBits.from_members(n, [i for i in free if at_x.add_marginal(i) < 0.0])
        steps.append((added, removed))
        if not len(added) and not len(removed):
            return IntervalLattice(x, y), steps
        x, y = x.union(added), y.difference(removed)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(0, 10_000))
def test_uqsfmax_queries_only_a_side_that_moved(n, seed):
    """On random quasi-submodular tables the run matches the paper's loop, which queries both
    sides every step, and after step 0 asks a side only once it has moved."""
    F = make_random_qsb(n, seed)
    logs = []

    def spy_cursor(_owner, start):
        logs.append([])
        return SpyCursor(F.cursor(start), logs[-1])

    lattice, trace = uqsfmax(SetFunctionOracle(F.ground, value_rows=F.value_rows, cursor_factory=spy_cursor))
    want, want_steps = reference_uqsfmax(F)
    assert (lattice.lower, lattice.upper) == (want.lower, want.upper)
    assert [(s.added, s.removed) for s in trace.steps] == want_steps
    # X moves at each step that added something, Y at each that removed something
    for log, moved in zip(logs, ([len(s.added) for s in trace.steps], [len(s.removed) for s in trace.steps])):
        assert log == ["query"] + ["move", "query"] * sum(map(bool, moved[:-1]))


class TestRestrictedOracle:
    def test_relabeling_and_lifting(self):
        F = make_iwata(6)
        lattice = IntervalLattice(
            SubsetBits.from_members(6, [2]), SubsetBits.from_members(6, [2, 4, 5])
        )
        sub = restricted_oracle(F, lattice)
        assert lattice.free_elements() == [4, 5]
        assert sub.n == 2
        got = sub.value(SubsetBits.from_members(2, [2]))
        assert got == F.value(SubsetBits.from_members(6, [2, 5]))
        assert sub.cursor(SubsetBits.empty(2)).add_marginal(1) == F.cursor(
            SubsetBits.from_members(6, [2])
        ).add_marginal(4)

    def test_point_lattice_rejected(self):
        F = make_iwata(3)
        point = IntervalLattice(SubsetBits.empty(3), SubsetBits.empty(3))
        with pytest.raises(ValueError):
            restricted_oracle(F, point)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("family", SIX_FAMILIES)
    def test_gains_are_the_parent_vector_at_the_free_ids(self, family, seed):
        """Along a walk of single flips, the restricted ``gains()`` has the bits of a cursor
        of F moved alike, read at the free ids: a kept vector stays the parent's."""
        F = instantiate(FunctionSpec(family, 60, seed))
        rng = seeded_stream(seed, 7)
        lower = rng.random(60) < 0.3
        lattice = IntervalLattice(
            SubsetBits.from_bool_array(lower), SubsetBits.from_bool_array(lower | (rng.random(60) < 0.6))
        )
        free = np.array(lattice.free_elements())
        sub = restricted_oracle(F, lattice)
        start = SubsetBits.from_bool_array(rng.random(sub.n) < 0.5)
        cursor = sub.cursor(start)
        parent = F.cursor(lattice.member(start.mask))
        for i in rng.integers(1, sub.n + 1, 40).tolist():
            got, want = cursor.gains(), parent.gains()[free - 1]
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (got, want)
            if cursor.members().contains(i):
                cursor.remove(i)
                parent.remove(int(free[i - 1]))
            else:
                cursor.add(i)
                parent.add(int(free[i - 1]))


class TestUPrefix:
    def test_point_lattice_skips_inner(self, prop_oracle):
        calls = []

        def inner(sub):
            calls.append(sub)
            raise AssertionError("inner must not run on a point lattice")

        result = u_prefix(prop_oracle, inner)
        assert result.value == 1.5
        assert result.set == SubsetBits.from_members(2, [2])
        assert result.inner is None and not calls

    def test_stuck_interval_delegates_to_inner(self, twin_peaks_oracle):
        result = u_prefix(
            twin_peaks_oracle, lambda sub: double_greedy(sub, list(range(1, sub.n + 1)))
        )
        assert result.value == 1.5

    @pytest.mark.parametrize("table", [PROP_TABLE, TWIN_PEAKS_TABLE], ids=["point", "stuck"])
    def test_evaluates_only_inside_the_reduction_and_the_inner_run(self, table, monkeypatch):
        """F(X+) comes from the trace: u_prefix itself evaluates nothing."""
        F = make_tabular(table)
        seen = []
        G = SetFunctionOracle(F.ground, lambda x: seen.append(x) or F.value(x))
        inside = []

        def counted(fn):
            def run(*args):
                start = len(seen)
                out = fn(*args)
                inside.append(len(seen) - start)
                return out

            return run

        monkeypatch.setattr(maximize, "uqsfmax", counted(uqsfmax))
        result = u_prefix(G, counted(lambda sub: double_greedy(sub, list(range(1, sub.n + 1)))))
        assert result.value == 1.5
        assert len(inside) == (1 if result.lattice.is_point() else 2)
        assert len(seen) == sum(inside)

    @pytest.mark.parametrize("seed", range(8))
    def test_never_worse_than_lower_endpoint(self, seed):
        n = 4 + seed % 6
        F = make_random_qsb(n, seed + 2500)
        result = u_prefix(F, lambda sub: random_permutation_greedy(sub, 4, seed))
        assert result.value >= F.value(result.lattice.lower)
        assert result.lattice.contains(result.set)
        assert result.value == F.value(result.set)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("family", SIX_FAMILIES)
    def test_rls_reads_the_same_steps_as_through_the_two_batch_split(self, family, seed, monkeypatch):
        """u_prefix(F, rls) through the forwarded vector gives the set, value and oracle
        calls of a restricted cursor whose ``gains()`` is the base two-batch split."""
        F = instantiate(FunctionSpec(family, 60, seed))

        def run(sub):
            return randomized_local_search(sub, 3, seed)

        forwarded = u_prefix(F, run)

        class SplitCursor(maximize._RestrictedCursor):
            gains = Cursor.gains

        monkeypatch.setattr(maximize, "_RestrictedCursor", SplitCursor)
        split = u_prefix(F, run)
        assert (forwarded.set, forwarded.value, forwarded.lattice) == (split.set, split.value, split.lattice)
        if forwarded.inner is not None:
            assert forwarded.inner.oracle_calls == split.inner.oracle_calls

    @pytest.mark.parametrize("generic", [False, True], ids=["tabular", "generic"])
    def test_nan_inside_is_named_in_the_objective(self, generic):
        # F = 10*[5 in S] + [|S & {1..4}| = 2], NaN at {1,2,5}; uqsfmax leaves [{5}, full]
        values = [10.0 * (m >> 4) + (bin(m & 15).count("1") == 2) for m in range(32)]
        values[0b10011] = math.nan
        F = make_tabular(values)
        G = SetFunctionOracle(F.ground, F.value) if generic else F
        message = "marginal of element 1 is NaN (add at {2,5})"
        with pytest.raises(InternalInvariantError, match=re.escape(message)):
            u_prefix(G, lambda sub: randomized_local_search(sub, 1, 3))
        assert math.isnan(F.cursor(SubsetBits.from_members(5, [2, 5])).add_marginal(1))
