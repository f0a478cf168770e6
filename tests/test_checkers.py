import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checkers
from qsopt import (
    CapExceeded,
    GroundSet,
    InternalInvariantError,
    SetFunctionOracle,
    SubsetBits,
    is_local_max,
    is_local_min,
    is_quasi_submodular,
    is_submodular,
    make_random_qsb,
    make_tabular,
    satisfies_ssbc,
    satisfies_weak_marginal,
)
from qsopt import checkers
from qsopt.functions import seeded_stream

from conftest import NAN_TABLE, PROP_TABLE, TWIN_PEAKS_TABLE, random_spaced_values

CHECKERS = ("is_submodular", "is_quasi_submodular", "satisfies_ssbc", "satisfies_weak_marginal")

# Violates the strict half of the pair condition: joining {1} with {2} keeps
# the value flat even though the intersection strictly improved on {1}.
STRICT_VIOLATION_TABLE = [0.0, -1.0, 1.0, 1.0]
# The gain of element 1 flips from negative at {} to positive at {2}.
SIGN_FLIP_TABLE = [0.0, -1.0, 0.0, 0.5]


class TestIsSubmodular:
    def test_supermodular_counterexample(self):
        verdict = is_submodular(make_tabular(PROP_TABLE), 2)
        assert not verdict.holds
        w = verdict.witness
        assert w.sets["X"] == SubsetBits.from_members(2, [1])
        assert w.sets["Y"] == SubsetBits.from_members(2, [2])
        # F(X) + F(Y) < F(X&Y) + F(X|Y): 0 + 1.5 < 1 + 1
        assert w.values["F(X)"] + w.values["F(Y)"] < w.values["F(X&Y)"] + w.values["F(X|Y)"]

    def test_twin_peaks_is_submodular(self):
        assert is_submodular(make_tabular(TWIN_PEAKS_TABLE), 2).holds

    def test_modular_is_submodular(self):
        weights = [0.0, 1.0, -2.0, 3.0]
        table = [sum(w for k, w in enumerate(weights[1:], 1) if m >> (k - 1) & 1) for m in range(8)]
        assert is_submodular(make_tabular(table), 3).holds

    def test_cap(self):
        with pytest.raises(CapExceeded):
            is_submodular(make_tabular(np.zeros(1 << 15)), 15)


class TestIsQuasiSubmodular:
    def test_supermodular_counterexample_is_qsb(self):
        assert is_quasi_submodular(make_tabular(PROP_TABLE), 2).holds

    def test_submodular_implies_qsb(self):
        assert is_quasi_submodular(make_tabular(TWIN_PEAKS_TABLE), 2).holds

    def test_strict_violation(self):
        verdict = is_quasi_submodular(make_tabular(STRICT_VIOLATION_TABLE), 2)
        assert not verdict.holds
        w = verdict.witness
        assert {w.sets["X"], w.sets["Y"]} == {
            SubsetBits.from_members(2, [1]),
            SubsetBits.from_members(2, [2]),
        }

    def test_witness_replays(self):
        F = make_tabular(STRICT_VIOLATION_TABLE)
        w = is_quasi_submodular(F, 2).witness
        x, y = w.sets["X"], w.sets["Y"]
        assert F.value(x) == w.values["F(X)"]
        assert F.value(y) == w.values["F(Y)"]
        assert F.value(x.intersection(y)) == w.values["F(X&Y)"]
        assert F.value(x.union(y)) == w.values["F(X|Y)"]


class TestSatisfiesSsbc:
    def test_counterexample_table_passes(self):
        assert satisfies_ssbc(make_tabular(PROP_TABLE), 2).holds

    def test_strict_violation_table_fails(self):
        assert not satisfies_ssbc(make_tabular(STRICT_VIOLATION_TABLE), 2).holds

    def test_constant_function(self):
        assert satisfies_ssbc(make_tabular(np.ones(16)), 4).holds


class TestWeakMarginal:
    def test_implied_by_ssbc(self):
        assert satisfies_weak_marginal(make_tabular(PROP_TABLE), 2).holds

    def test_sign_flip_fails(self):
        verdict = satisfies_weak_marginal(make_tabular(SIGN_FLIP_TABLE), 2)
        assert not verdict.holds
        w = verdict.witness
        assert w.element == 1
        assert w.values["F(i|A)"] == -1.0
        assert w.values["F(i|B)"] == 0.5


@pytest.mark.parametrize("name", CHECKERS)
def test_nan_value_raises_naming_the_set(name):
    with pytest.raises(InternalInvariantError, match=rf"^{name}: value of \{{1\}} is NaN$"):
        getattr(checkers, name)(make_tabular(NAN_TABLE), 3)


@pytest.mark.filterwarnings("ignore:invalid value encountered in:RuntimeWarning")
@pytest.mark.parametrize("name", ["is_submodular", "satisfies_weak_marginal"])
def test_nan_gains_of_infinite_values_break_nothing(name):
    """F({}) = F({1}) = inf, so F(1|{}) is NaN; the violation at A={2}, B={2,3} still counts."""
    F = make_tabular([math.inf, math.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    got = getattr(checkers, name)(F, 3)
    assert repr(got) == repr(getattr(reference_checkers, name)(F, 3))
    assert got.witness.element == 1
    assert (str(got.witness.sets["A"]), str(got.witness.sets["B"])) == ("{2}", "{2,3}")


@pytest.mark.parametrize(
    "name, cap",
    [
        ("is_submodular", checkers.SUBMODULAR_MAX_N),
        ("is_quasi_submodular", checkers.QSB_MAX_N),
        ("satisfies_ssbc", checkers.SSBC_MAX_N),
        ("satisfies_weak_marginal", checkers.WEAK_MARGINAL_MAX_N),
    ],
)
def test_cap_raises_before_any_evaluation(name, cap):
    def value(_x):
        raise AssertionError("evaluated above the cap")

    oracle = SetFunctionOracle(GroundSet(cap + 1), value)
    with pytest.raises(CapExceeded, match=rf"^{name} needs n <= {cap}, got {cap + 1}$"):
        getattr(checkers, name)(oracle, cap + 1)


class TestLocalOptima:
    def test_reference_local_min(self):
        F = make_tabular(PROP_TABLE)
        assert is_local_min(F, SubsetBits.from_members(2, [1]))

    def test_twin_peaks_local_max(self):
        G = make_tabular(TWIN_PEAKS_TABLE)
        assert is_local_max(G, SubsetBits.from_members(2, [1]))
        assert not is_local_max(G, SubsetBits.empty(2))

    @pytest.mark.parametrize("check", [is_local_min, is_local_max])
    @pytest.mark.parametrize("members", [[], [1]], ids=["nan_neighbour", "nan_at_x"])
    def test_nan_value_raises_naming_the_set(self, check, members):
        """F({1}) is NaN: the first neighbour of {} and x itself at {1}."""
        x = SubsetBits.from_members(3, members)
        with pytest.raises(InternalInvariantError, match=rf"^{check.__name__}: value of \{{1\}} is NaN$"):
            check(make_tabular(NAN_TABLE), x)


class TestEquivalences:
    """Agreement properties between the pair condition and its per-element forms."""

    def test_pair_condition_equals_single_sub_crossing(self):
        rng = seeded_stream(2024, 0)
        for k in range(120):
            n = 2 + k % 5
            F = make_tabular(random_spaced_values(n, rng))
            assert is_quasi_submodular(F, n).holds == satisfies_ssbc(F, n).holds

    def test_ssbc_implies_weak_marginal(self):
        rng = seeded_stream(2025, 0)
        checked = 0
        for k in range(200):
            n = 2 + k % 5
            F = make_tabular(random_spaced_values(n, rng))
            if satisfies_ssbc(F, n).holds:
                assert satisfies_weak_marginal(F, n).holds
                checked += 1
        for seed in range(15):
            F = make_random_qsb(6, seed)
            assert satisfies_ssbc(F, 6).holds
            assert satisfies_weak_marginal(F, 6).holds

    def test_submodular_implies_qsb_not_conversely(self):
        rng = seeded_stream(2026, 0)
        for k in range(100):
            n = 2 + k % 4
            F = make_tabular(random_spaced_values(n, rng))
            if is_submodular(F, n).holds:
                assert is_quasi_submodular(F, n).holds
        prop = make_tabular(PROP_TABLE)
        assert is_quasi_submodular(prop, 2).holds and not is_submodular(prop, 2).holds


@st.composite
def small_int_tables(draw):
    """(n, table) for n <= 8: small integers, so ties are common, with a few edits.

    Half the tables start modular, which passes every check, so an edit places
    the first witness anywhere in the enumeration; edits may write NaN, which
    raises, or an infinity, whose gains inf - inf are NaN.
    """
    n = draw(st.integers(1, 8))
    size = 1 << n
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        values = [float(sum(w for k, w in enumerate(weights) if m >> k & 1)) for m in range(size)]
    else:
        values = [float(v) for v in draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))]
    for mask in draw(st.lists(st.integers(0, size - 1), max_size=3)):
        values[mask] = draw(st.sampled_from([math.nan, -math.inf, math.inf, -2.0, -1.0, 0.0, 1.0, 2.0]))
    return n, values


# inf - inf gains are NaN by design, and numpy says so
@pytest.mark.filterwarnings("ignore:invalid value encountered in:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(small_int_tables(), st.integers(1, 9))
def test_checkers_match_loop_reference(table, ssbc_block_n):
    """Verdict and first witness equal the one-(i, B)-at-a-time enumeration's.

    The single sub-crossing blocks are drawn smaller than n too, so that
    several blocks of B run at these sizes.
    """
    n, values = table
    F = make_tabular(values)
    for name in CHECKERS:
        with mock.patch.object(checkers, "_SSBC_BLOCK_N", ssbc_block_n):
            got = _outcome(getattr(checkers, name), F, n)
        assert got == _outcome(getattr(reference_checkers, name), F, n), name


def _outcome(check, F, n) -> str:
    """The verdict's repr, which shows every set and value, or the NaN error raised."""
    try:
        return repr(check(F, n))
    except InternalInvariantError as exc:
        return f"InternalInvariantError: {exc}"
