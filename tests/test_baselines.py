import numpy as np
import pytest

from qsopt import (
    FunctionSpec,
    InternalInvariantError,
    SetFunctionOracle,
    SubsetBits,
    double_greedy,
    exact_opt,
    instantiate,
    make_com,
    make_determinant,
    make_perturbed_facility,
    make_random_qsb,
    make_tabular,
    random_permutation_greedy,
    randomized_bidirectional_greedy,
    randomized_local_search,
    u_prefix,
)
from qsopt.oracle import Cursor
from qsopt.sets import IntervalLattice

from conftest import NAN_TABLE, nonneg_submodular_oracle

# the stem, the element, and the query with the set it was asked at
NAN_WITNESS = r"marginal of element \d is NaN \((add|drop) at \{[\d,]*\}\)"


class TestDoubleGreedy:
    def test_reference_table_hand_trace(self, prop_oracle):
        result = double_greedy(prop_oracle, [1, 2])
        assert result.set == SubsetBits.from_members(2, [2])
        assert result.value == 1.5

    def test_twin_peaks_keeps_first_element(self, twin_peaks_oracle):
        result = double_greedy(twin_peaks_oracle, [1, 2])
        assert result.set == SubsetBits.from_members(2, [1])
        assert result.value == 1.5

    def test_all_positive_modular_returns_everything(self):
        weights = [1.0, 2.0, 0.5, 3.0]
        table = [sum(w for k, w in enumerate(weights, 1) if m >> (k - 1) & 1) for m in range(16)]
        result = double_greedy(make_tabular(table), [3, 1, 4, 2])
        assert result.set == SubsetBits.full(4)

    def test_invalid_permutation(self, prop_oracle):
        with pytest.raises(ValueError):
            double_greedy(prop_oracle, [1, 1])
        with pytest.raises(ValueError):
            double_greedy(prop_oracle, [1])

    @pytest.mark.parametrize("build", [make_com, make_determinant], ids=["com", "determinant"])
    def test_numpy_order_equals_list_order(self, build):
        F = build(100, 1)
        assert double_greedy(F, np.arange(1, 101)) == double_greedy(F, list(range(1, 101)))

    def test_randomized_tie_rule_adds(self):
        table = np.zeros(8)  # every marginal is 0, so a = b = 0 at each step
        result = double_greedy(make_tabular(table), [1, 2, 3], randomized=True, seed=5)
        assert result.set == SubsetBits.full(3)

    @pytest.mark.parametrize(
        "order,message",
        [
            ([1, 2, 3], r"marginal of element 1 is NaN \(add at \{\}\)"),
            ([2, 3, 1], r"marginal of element 3 is NaN \(drop at \{1,3\}\)"),
        ],
    )
    @pytest.mark.parametrize("randomized", [False, True])
    def test_nan_marginal_fails_loudly(self, order, message, randomized):
        # a NaN fails the keep test, so a silent pass would drop the element
        with pytest.raises(InternalInvariantError, match=message):
            double_greedy(make_tabular(NAN_TABLE), order, randomized=randomized, seed=1)

    def test_randomized_reference_table_is_deterministic(self, prop_oracle):
        # the clipped gains are 0/positive at every step, no real coin flips
        for seed in range(5):
            result = double_greedy(prop_oracle, [1, 2], randomized=True, seed=seed)
            assert result.set == SubsetBits.from_members(2, [2])
            assert result.value == 1.5


class TestRandomPermutationGreedy:
    def test_single_trial_equals_seeded_order(self, prop_oracle):
        from qsopt.functions import seeded_stream

        order = [int(v) for v in seeded_stream(9, 0).permutation(2) + 1]
        assert random_permutation_greedy(prop_oracle, 1, 9).value == double_greedy(prop_oracle, order).value

    def test_reference_table_any_trials(self, prop_oracle):
        for trials in (1, 2, 5):
            assert random_permutation_greedy(prop_oracle, trials, 3).set == SubsetBits.from_members(2, [2])

    def test_value_nondecreasing_in_trials(self):
        F = make_random_qsb(8, 31)
        values = [random_permutation_greedy(F, t, 12).value for t in (1, 2, 4, 8)]
        assert values == sorted(values)

    def test_reproducible(self):
        F = make_random_qsb(9, 17)
        a = random_permutation_greedy(F, 6, 42)
        b = random_permutation_greedy(F, 6, 42)
        assert a.set == b.set and a.value == b.value


    @pytest.mark.parametrize("seed", range(3))
    def test_nan_marginal_fails_loudly(self, seed):
        with pytest.raises(InternalInvariantError, match=NAN_WITNESS):
            random_permutation_greedy(make_tabular(NAN_TABLE), 2, seed)


class TestRandomizedLocalSearch:
    def test_twin_peaks_from_any_start(self, twin_peaks_oracle):
        for seed in range(6):
            assert randomized_local_search(twin_peaks_oracle, 1, seed).value == 1.5

    def test_start_at_local_max_unchanged(self, twin_peaks_oracle):
        # restarts that land on {1} or {2} stay there; value is the peak either way
        result = randomized_local_search(twin_peaks_oracle, 3, 0)
        assert result.set in (SubsetBits.from_members(2, [1]), SubsetBits.from_members(2, [2]))

    def test_reference_table(self, prop_oracle):
        assert randomized_local_search(prop_oracle, 4, 1).set == SubsetBits.from_members(2, [2])

    def test_reaches_a_local_maximum(self):
        from qsopt import is_local_max

        F = make_random_qsb(8, 77)
        result = randomized_local_search(F, 1, 3)
        assert is_local_max(F, result.set)

    @pytest.mark.parametrize("seed", range(4))
    def test_nan_marginal_fails_loudly(self, seed):
        # every climb ends at {} or passes a set next to {1}, where a marginal is NaN
        with pytest.raises(InternalInvariantError, match=NAN_WITNESS):
            randomized_local_search(make_tabular(NAN_TABLE), 1, seed)


class TestRandomizedBidirectionalGreedy:
    def test_reference_table_certain(self, prop_oracle):
        for seed in range(5):
            result = randomized_bidirectional_greedy(prop_oracle, 1, seed)
            assert result.set == SubsetBits.from_members(2, [2])

    def test_reproducible(self):
        F = make_random_qsb(9, 23)
        a = randomized_bidirectional_greedy(F, 5, 8)
        b = randomized_bidirectional_greedy(F, 5, 8)
        assert a.set == b.set and a.value == b.value

    @pytest.mark.parametrize("seed", range(3))
    def test_nan_marginal_fails_loudly(self, seed):
        with pytest.raises(InternalInvariantError, match=NAN_WITNESS):
            randomized_bidirectional_greedy(make_tabular(NAN_TABLE), 2, seed)

    def test_mean_ratio_on_nonnegative_submodular(self):
        ratios = []
        for seed in range(60):
            n = 8 + seed % 4
            F = nonneg_submodular_oracle(n, seed)
            exact, _ = exact_opt(F, "max", IntervalLattice(SubsetBits.empty(n), SubsetBits.full(n)))
            if exact <= 0:
                continue
            ratios.append(randomized_bidirectional_greedy(F, 1, seed).value / exact)
        assert np.mean(ratios) >= 0.33


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_double_greedy_processes_each_element_once(self, seed):
        F = make_random_qsb(7, seed + 3000)
        order = [int(v) for v in np.random.default_rng(seed).permutation(7) + 1]
        result = double_greedy(F, order)
        assert result.value == F.value(result.set)

    def test_point_lattice_prefilter_passthrough(self, prop_oracle):
        for runner in (
            lambda sub: random_permutation_greedy(sub, 3, 1),
            lambda sub: randomized_local_search(sub, 3, 1),
            lambda sub: randomized_bidirectional_greedy(sub, 3, 1),
        ):
            result = u_prefix(prop_oracle, runner)
            assert result.value == 1.5
            assert result.set == SubsetBits.from_members(2, [2])


class _RefactoringCursor(Cursor):
    """A family cursor rebuilt after every move, so every query takes a refactor."""

    def __init__(self, F, start: SubsetBits):
        self._F = F
        self._inner = F.cursor(start)

    def members(self) -> SubsetBits:
        return self._inner.members()

    def add_marginal(self, u: int) -> float:
        return self._inner.add_marginal(u)

    def drop_marginal(self, d: int) -> float:
        return self._inner.drop_marginal(d)

    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        return self._inner.add_marginals(ids)

    def drop_marginals(self, ids: np.ndarray) -> np.ndarray:
        return self._inner.drop_marginals(ids)

    def add(self, u: int) -> None:
        self._inner = self._F.cursor(self.members().add(u))

    def remove(self, d: int) -> None:
        self._inner = self._F.cursor(self.members().remove(d))


def refactoring(F, cursor_class=_RefactoringCursor):
    return SetFunctionOracle(F.ground, F.value, cursor_factory=lambda _owner, s: cursor_class(F, s))


class _StuckCursor(_RefactoringCursor):
    """Ignores removals, so double greedy's outer set never shrinks."""

    def remove(self, d: int) -> None:
        pass


def test_double_greedy_gap_is_invariant_error(prop_oracle):
    # an InternalInvariantError, not an assert that python -O would strip
    with pytest.raises(InternalInvariantError, match=r"gap after one pass: S1=\{2\} S2=\{1,2\}"):
        double_greedy(refactoring(prop_oracle, _StuckCursor), [1, 2])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "build",
    [lambda s: make_perturbed_facility(120, 40, s), lambda s: make_determinant(80, s)],
    ids=["perturbed_facility", "determinant"],
)
def test_sequential_baselines_match_refactor_path(build, seed):
    """One move between queries takes the in-place update; it must decide as a refactor does."""
    F = build(seed)

    def runs(G):
        return (
            double_greedy(G, list(range(1, G.n + 1))),
            random_permutation_greedy(G, 2, seed),
            randomized_local_search(G, 1, seed),
            randomized_bidirectional_greedy(G, 1, seed),
        )

    assert runs(F) == runs(refactoring(F))


class _RecordingCursor(Cursor):
    """Forwards every query, ``gains`` included, to a family cursor and logs the moves."""

    def __init__(self, inner: Cursor, moves: list):
        self._inner = inner
        self._moves = moves

    def members(self) -> SubsetBits:
        return self._inner.members()

    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        return self._inner.add_marginals(ids)

    def drop_marginals(self, ids: np.ndarray) -> np.ndarray:
        return self._inner.drop_marginals(ids)

    def gains(self) -> np.ndarray:
        return self._inner.gains()

    def add(self, u: int) -> None:
        self._moves.append(u)
        self._inner.add(u)

    def remove(self, d: int) -> None:
        self._moves.append(-d)
        self._inner.remove(d)


class _TwoBatchCursor(_RecordingCursor):
    """Hides the family's ``gains``: every read asks the two batches afresh."""

    gains = Cursor.gains


def recorded(F, cursor_class, moves: list):
    return SetFunctionOracle(
        F.ground, F.value, cursor_factory=lambda _owner, s: cursor_class(F.cursor(s), moves)
    )


# the maximize-seq benchmark families at their benchmark sizes
MAXIMIZE_SEQ_FAMILIES = [
    ("perturbed_facility", 300, {"d": 400}),
    ("determinant", 200, {}),
    ("half_products", 400, {}),
    ("com", 400, {}),
]


@pytest.mark.parametrize("seed", [1, 2, 4242])
@pytest.mark.parametrize("family,n,params", MAXIMIZE_SEQ_FAMILIES, ids=[f[0] for f in MAXIMIZE_SEQ_FAMILIES])
def test_local_search_flip_gains_match_two_batch_path(family, n, params, seed):
    """The cursor's flip-gain vector takes the flips that two fresh batches per step take."""
    F = instantiate(FunctionSpec(family, n, seed, dict(params)))

    def rls(G):
        return randomized_local_search(G, 1, seed)

    for run in (rls, lambda G: u_prefix(G, rls)):
        kept, fresh = [], []
        got = run(recorded(F, _RecordingCursor, kept))
        want = run(recorded(F, _TwoBatchCursor, fresh))
        assert kept == fresh
        assert got == want
