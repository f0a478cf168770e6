"""Value formulas on membership matrices: the batch, the scalar and the exact layer agree.

Every family's ``value_rows`` answers a (k, n) block; ``value`` is the same
formula at one row. These tests pin that a row has the same bits as its
scalar at any block height, that the row-block path of ``exact_opt`` and
``eval_table`` returns exactly what the one-``value``-per-member loop returns
(the loop a scalar-only oracle, such as a timing proxy, takes), and that the
block form of the relabeling is ``IntervalLattice.member``.
"""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsopt import (
    CountingOracle,
    InternalInvariantError,
    SetFunctionOracle,
    SubsetBits,
    eval_table,
    exact_opt,
    make_cobb_douglas,
    make_com,
    make_determinant,
    make_half_products,
    make_iwata,
    make_perturbed_facility,
    make_random_qsb,
    make_tabular,
    min_lattice,
    principal_determinant,
    uqsfmax,
    values_close,
)
from qsopt import functions, oracle
from qsopt.functions import cobb_log_factors, seeded_stream
from qsopt.sets import IntervalLattice

BUILDERS = {
    "iwata": lambda n, seed: make_iwata(n),
    "com": make_com,
    "half_products": make_half_products,
    "perturbed_facility": lambda n, seed: make_perturbed_facility(n, 7, seed),
    "determinant": make_determinant,
    "cobb_douglas": make_cobb_douglas,
    "tabular": lambda n, seed: make_tabular(seeded_stream(seed, 0).normal(size=1 << n)),
}
FAMILIES = list(BUILDERS)


@functools.lru_cache(maxsize=32)
def instance(family: str, n: int, seed: int):
    return BUILDERS[family](n, seed)


def rows_of(n: int, masks) -> np.ndarray:
    return np.array([SubsetBits(n, m).to_bool_array() for m in masks]).reshape(-1, n)


def same_bits(a, b) -> bool:
    """Equal as IEEE bit patterns: stricter than ==, which takes 0.0 for -0.0."""
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64), np.asarray(b, dtype=float).view(np.int64))


@st.composite
def blocks(draw):
    """A family instance at n <= 20 and a block of its sets, empty, singleton and full among them."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 3))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=0, max_size=12))
    masks += [0, 1 << draw(st.integers(0, n - 1)), (1 << n) - 1]
    return instance(family, n, seed), n, draw(st.permutations(masks))


class TestRowsEqualScalars:
    @settings(max_examples=150, deadline=None)
    @given(blocks())
    def test_each_row_is_its_scalar_bit_for_bit(self, case):
        F, n, masks = case
        got = F.value_rows(rows_of(n, masks))
        assert got.shape == (len(masks),)
        assert same_bits(got, [F.value(SubsetBits(n, m)) for m in masks])

    @pytest.mark.parametrize("n", [1, 5, 12, 20])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_block_height_does_not_change_a_row(self, family, n):
        """The same set at heights 1, 7 and 4096, and as a bare row, gives the same bits."""
        F = instance(family, n, 2)
        rng = np.random.default_rng(n)
        masks = [0, (1 << n) - 1, *(1 << i for i in range(n))]
        masks += rng.integers(0, 1 << n, 4096 - len(masks)).tolist()
        block = rows_of(n, masks)
        tall = F.value_rows(block)
        sevens = np.concatenate([F.value_rows(block[s : s + 7]) for s in range(0, len(block), 7)])
        assert same_bits(sevens, tall)
        for r in [*range(n + 2), *rng.integers(0, len(block), 64)]:
            assert same_bits(F.value_rows(block[r : r + 1]), tall[r : r + 1])
            assert same_bits(F.value_rows(block[r]), tall[r])
            assert same_bits(F.value(SubsetBits(n, masks[r])), tall[r])


def dot_scalar(family: str, F, m: np.ndarray) -> float:
    """The one-row value as the formulas were written for a single set, with BLAS dots."""
    p = F.params
    if family == "iwata":
        k = int(m.sum())
        return k * (F.n - k) - float(p["weights"] @ m)
    if family == "com":
        return math.sqrt(float(p["w1"] @ m)) + (float(p["w2"].sum()) - float(p["w2"] @ m))
    if family == "half_products":
        return float(p["c"] @ m) - float((p["b"] * m) @ np.cumsum(p["a"] * m))
    if family == "perturbed_facility":
        return float(p["M"][m].max(axis=0).sum() + p["sigma"] @ m) if m.any() else 0.0
    if family == "determinant":
        idx = np.flatnonzero(m)
        chol = np.linalg.cholesky(p["kernel"][np.ix_(idx, idx)])
        return float(np.prod(np.diag(chol)) ** 2)
    delta = cobb_log_factors(p["w"], p["alpha"])
    return math.exp(float(delta @ m))


LARGE = {
    "iwata": lambda: make_iwata(5000),
    "com": lambda: make_com(5000, 1),
    "half_products": lambda: make_half_products(5000, 1),
    "perturbed_facility": lambda: make_perturbed_facility(5000, 400, 1),
    "determinant": lambda: make_determinant(1000, 1),
    "cobb_douglas": lambda: make_cobb_douglas(5000, 1),
}


@pytest.mark.parametrize("family", list(LARGE))
def test_one_large_row_equals_the_single_set_formula(family):
    F = LARGE[family]()
    n = F.n
    rng = np.random.default_rng(7)
    for size in (0, 1, n // 2, n):
        m = np.zeros(n, dtype=bool)
        m[rng.permutation(n)[:size]] = True
        got = F.value(SubsetBits.from_bool_array(m))
        assert got == F.value_rows(m[None, :])[0]
        assert values_close(got, dot_scalar(family, F, m)), (family, size)


def test_cobb_douglas_overflow_row_names_its_set_and_prints_no_warning():
    F = make_cobb_douglas(7000, 1)
    delta = cobb_log_factors(F.params["w"], F.params["alpha"])
    gainers = delta > 0.0
    few = gainers & (np.cumsum(gainers) <= 10)
    more = gainers.copy()
    more[np.flatnonzero(~gainers)[:5]] = True  # a second overflowing row, later in the block
    block = np.array([few, np.zeros(7000, dtype=bool), gainers, more])
    with pytest.raises(InternalInvariantError) as want:
        functions._cobb_exp(float(delta @ gainers), gainers.sum)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: F.value_rows(block), lambda: F.value(SubsetBits.from_bool_array(gainers))):
            with pytest.raises(InternalInvariantError) as got:
                call()
            assert str(got.value) == str(want.value)
        assert F.value_rows(block[:2]).tolist() == [F.value(SubsetBits.from_bool_array(few)), 1.0]


def full_lattice(n: int) -> IntervalLattice:
    return IntervalLattice(SubsetBits.empty(n), SubsetBits.full(n))


class TestBatchPathEqualsScalarPath:
    """A scalar-only oracle over ``F.value`` has the shape of the benchmark's tracing proxy."""

    @pytest.mark.parametrize("n", [3, 8, 12])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_exact_and_table(self, family, n, monkeypatch):
        # a random table need not be quasi-submodular, and the reductions would refuse it
        F = make_random_qsb(n, 1) if family == "tabular" else instance(family, n, 1)
        scalar = SetFunctionOracle(F.ground, F.value)
        assert scalar.value_rows is None
        table = eval_table(F, n)
        assert same_bits(table, eval_table(scalar, n))
        lattices = [full_lattice(n), uqsfmax(F)[0], min_lattice(F)[0]]
        for lattice in lattices:
            for direction in ("min", "max"):
                value, optimizers = exact_opt(F, direction, lattice)
                want_value, want_optimizers = exact_opt(scalar, direction, lattice)
                assert value.hex() == want_value.hex()
                assert optimizers == want_optimizers
            counted = CountingOracle(F)
            exact_opt(counted, "max", lattice)
            assert counted.eval_calls == 1 << len(lattice.free_elements())
        # blocks of a few rows: the values do not depend on where the blocks split
        monkeypatch.setattr(oracle, "BLOCK_CELLS", 5 * n)
        assert same_bits(eval_table(F, n), table)

    def test_counting_oracle_books_every_row(self):
        F = instance("com", 6, 0)
        counted = CountingOracle(F)
        counted.value_rows(rows_of(6, range(9)))
        counted.value(SubsetBits.full(6))
        assert counted.eval_calls == 10
        assert CountingOracle(SetFunctionOracle(F.ground, F.value)).value_rows is None

    def test_an_oracle_takes_one_formula(self):
        F = instance("com", 3, 0)
        for kwargs in ({}, {"eval_fn": F.value, "value_rows": F.value_rows}):
            with pytest.raises(ValueError, match="exactly one of eval_fn and value_rows"):
                SetFunctionOracle(F.ground, **kwargs)


@st.composite
def lattices(draw):
    n = draw(st.integers(1, 40))
    a = draw(st.integers(0, (1 << n) - 1))
    b = draw(st.integers(0, (1 << n) - 1))
    free = (a | b) & ~(a & b)
    while free.bit_count() > 9:  # keep 2**free small: drop the highest free bits
        free &= ~(1 << (free.bit_length() - 1))
    return IntervalLattice(SubsetBits(n, a & b), SubsetBits(n, (a & b) | free))


@settings(max_examples=200, deadline=None)
@given(lattices())
def test_member_rows_is_member(lattice):
    count = 1 << len(lattice.free_elements())
    rows = lattice.member_rows(np.arange(count))
    assert rows.dtype == bool and rows.shape == (count, lattice.capacity)
    assert [SubsetBits.from_bool_array(r) for r in rows] == [lattice.member(i) for i in range(count)]
    for index in (-1, count):
        with pytest.raises(ValueError, match=f"member index {index} out of range"):
            lattice.member_rows(np.array([0, index]))


def peak_bytes(call) -> int:
    """Peak traced allocation of ``call()`` above what was held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_temporaries_are_bounded_per_block():
    """A table holds one row block's temporaries at a time, and a formula its own blocks."""
    n = 16
    F = make_perturbed_facility(n, 48, 3)
    # unblocked, the (2**16, n, d) member mask alone would be 400 MB, the column maxima 25 MB
    assert peak_bytes(lambda: eval_table(F, n)) < (8 << n) + (2 << 20)
    K = make_determinant(n, 3).params["kernel"]
    block = rows_of(n, range(1 << n))
    eights = block[block.sum(axis=1) == 8]
    # unblocked, the 12870 restrictions to 8 members would stack to 6.6 MB
    assert peak_bytes(lambda: principal_determinant(K, eights)) < 2 << 20
