"""The determinant family's shared factor: ``value`` and the cursor's refactor factor a set once.

A ``value``, the formula at a one-row block, records the Cholesky factor of
the last two sets it factored, and a cursor's refactor at such a set takes
the factor over instead of factoring again. These tests pin that this
changes no bit (every ``value`` equals the block formula, which never reads
the memo, and every batch a fresh cursor's), that each set of a reduction is
factored once, that a failed factorization records nothing, and that the
memo holds at most two factors, none of them taken over by a cursor. A set
whose det has underflowed to 0.0 keeps no factor and no inverse: its
marginals are zeros, and it is factored once however many cursors visit it.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsopt import InternalInvariantError, SubsetBits, make_determinant, min_lattice, principal_determinant, uqsfmax
from qsopt import functions
from test_oracle import walk_move_patterns

#: At n = 10, seed 3, the kernel times this has a normal det at every set of
#: at most five members and det 0.0 at every larger one.
ZERO_DET_SCALE = 1e-60


def block_value(F, x: SubsetBits) -> str:
    """F(x) by the block formula, which bypasses the memo, as ``float.hex``."""
    return float(principal_determinant(F.params["kernel"], x.to_bool_array()[None, :])[0]).hex()


def held_factors(F) -> list:
    """The factors F's memo holds: at most two, and none a cursor has taken over."""
    entries = F.value_rows._entries
    assert len(entries) <= 2
    return [chol for _det, chol in entries.values() if chol is not None]


def memo_state(F) -> list:
    """The memo's keys in order with each det and the identity of each factor."""
    return [(key, det, id(chol)) for key, (det, chol) in F.value_rows._entries.items()]


@st.composite
def programs(draw):
    """A determinant instance at n <= 40 and a mix of values, batch moves and batch queries on two cursors."""
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 3))
    mask = st.integers(0, (1 << n) - 1)
    op = st.one_of(
        st.tuples(st.just("value"), mask),
        st.tuples(st.just("move"), st.integers(0, 1), mask),
        st.tuples(st.just("query"), st.integers(0, 1)),
    )
    starts = draw(st.tuples(mask, mask))
    return n, seed, starts, draw(st.lists(op, min_size=1, max_size=30))


@settings(max_examples=120, deadline=None)
@given(programs())
def test_the_shared_factor_changes_no_bit(program):
    n, seed, starts, ops = program
    F = make_determinant(n, seed)
    fresh = make_determinant(n, seed)  # its own memo, which no value call fills
    cursors = [F.cursor(SubsetBits(n, m)) for m in starts]
    for op in ops:
        if op[0] == "value":
            x = SubsetBits(n, op[1])
            assert F.value(x).hex() == block_value(F, x)
        elif op[0] == "move":
            _, c, target = op
            here = cursors[c].members().to_bool_array()
            there = SubsetBits(n, target).to_bool_array()
            added = np.flatnonzero(there & ~here) + 1
            removed = np.flatnonzero(here & ~there) + 1
            if len(added) + len(removed) >= 2:  # a refactor at the next query, as a fresh cursor's
                cursors[c].move(added, removed)
        else:
            cursor = cursors[op[1]]
            x = cursor.members()
            inside = np.flatnonzero(x.to_bool_array()) + 1
            outside = np.flatnonzero(~x.to_bool_array()) + 1
            reference = fresh.cursor(x)
            assert cursor.add_marginals(outside).tobytes() == reference.add_marginals(outside).tobytes()
            assert cursor.drop_marginals(inside).tobytes() == reference.drop_marginals(inside).tobytes()
            # the cursor has refactored at x, perhaps from the factor a value left: F(x) is still exact
            assert F.value(x).hex() == block_value(F, x)
        for chol in held_factors(F):
            assert not any(c._inv is not None and np.shares_memory(chol, c._inv) for c in cursors)


def test_a_refactor_takes_the_factor_value_left():
    F = make_determinant(30, 2)
    x = SubsetBits(30, 0b1011_0110_1101_0011)
    want = block_value(F, x)
    assert F.value(x).hex() == want
    (chol,) = held_factors(F)
    cursor = F.cursor(x)
    cursor.add_marginals(np.array([3]))
    assert np.shares_memory(cursor._inv, chol)  # dpotri turned the factor into the inverse in place
    assert held_factors(F) == []
    assert F.value(x).hex() == want  # answered from the recorded det


@pytest.mark.parametrize("run", [min_lattice, uqsfmax])
def test_a_reduction_factors_each_set_once(run, monkeypatch):
    """Without the shared factor, n=300 took 17 and 23 factorizations of 9 and 11 distinct sets."""
    factored = []
    cholesky_det = functions._cholesky_det

    def spy(la, restricted):
        factored.append(hashlib.sha1(restricted.tobytes()).hexdigest())
        return cholesky_det(la, restricted)

    monkeypatch.setattr(functions, "_cholesky_det", spy)
    run(make_determinant(300, 1))
    assert factored and len(factored) == len(set(factored))


def test_a_one_row_block_at_n_1_takes_the_memo():
    """At n = 1 a one-row block is (1, 1): it is still the value of one set, and the memo records it."""
    F = make_determinant(1, 0)
    got = F.value_rows(np.array([[True]]))
    assert memo_state(F) == [(np.array([0]).tobytes(), got[0], id(held_factors(F)[0]))]
    assert block_value(F, SubsetBits.full(1)) == float(got[0]).hex()
    before = memo_state(F)
    F.value_rows(np.array([[True], [False]]))  # any taller block is the stack path
    assert memo_state(F) == before


def test_the_empty_set_factors_nothing(monkeypatch):
    F = make_determinant(1000, 1)

    def refuse(la, restricted):
        raise AssertionError("the empty set gathers and factors nothing")

    monkeypatch.setattr(functions, "_cholesky_det", refuse)
    assert F.value(SubsetBits.empty(1000)) == 1.0
    assert F.value_rows._entries == {}


def test_a_failed_factorization_records_nothing(monkeypatch):
    """K restricted to {1, 2} is singular: value and cursor raise, and the memo is as it was."""
    kernel = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 4.0]])
    monkeypatch.setattr(functions, "_determinant_kernel", lambda n, seed: kernel)
    F = make_determinant(3, 0)
    assert F.value(SubsetBits.from_members(3, [1])) == 1.0
    assert F.value(SubsetBits.from_members(3, [1, 3])) == 4.0
    pair = SubsetBits.from_members(3, [1, 2])
    cursor = F.cursor(SubsetBits.from_members(3, [1]))
    cursor.add_marginals(np.array([2]))
    cursor.add(2)  # a zero pivot: the update falls back to the refactor
    failing = [
        lambda: F.value(pair),
        lambda: F.cursor(pair).add_marginals(np.array([3])),
        lambda: cursor.drop_marginals(np.array([1])),
    ]
    for call in failing:
        before = memo_state(F)
        with pytest.raises(InternalInvariantError, match="not positive definite"):
            call()
        assert memo_state(F) == before


def test_repeated_reductions_retain_no_more_memory():
    """The memo is bounded: a second pair of reductions on one oracle keeps what the first kept.

    numpy's caches of small blocks and array shapes, which fill over the
    first runs of a process, keep a few hundred bytes per run without the
    memo too; the slack is far below one 300 x 300 factor, 720 KB.
    """
    F = make_determinant(300, 1)
    factor_bytes = F.params["kernel"].nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        min_lattice(F)
        uqsfmax(F)
        first = tracemalloc.get_traced_memory()[0] - base
        min_lattice(F)
        uqsfmax(F)
        second = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert second <= first + (16 << 10)
    assert first <= 2 * factor_bytes + (64 << 10)
    assert sum(chol.nbytes for chol in held_factors(F)) <= 2 * factor_bytes


@pytest.fixture
def scaled(monkeypatch):
    """make_determinant(10, 3) over the kernel scaled by ``ZERO_DET_SCALE``."""
    kernel = functions._determinant_kernel
    monkeypatch.setattr(functions, "_determinant_kernel", lambda n, seed: kernel(n, seed) * ZERO_DET_SCALE)
    return make_determinant(10, 3)


def spy_on(monkeypatch, owner, name: str) -> list:
    """Record the arguments of every call to ``owner.name``, which still answers; an array by its shape."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append([getattr(arg, "shape", arg) for arg in args])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


SIX = SubsetBits.from_members(10, range(1, 7))  # det 0.0 under the scaled kernel


def test_a_zero_det_set_answers_zeros_without_an_inverse(scaled, monkeypatch):
    assert scaled.value(SIX) == 0.0
    inverted = spy_on(monkeypatch, scaled.value_rows.la, "dpotri")
    cursor = scaled.cursor(SIX)
    assert cursor.add_marginals(np.arange(7, 11)).tobytes() == np.zeros(4).tobytes()
    assert cursor.drop_marginals(np.arange(1, 7)).tobytes() == np.zeros(6).tobytes()
    assert cursor.gains().tobytes() == np.zeros(10).tobytes()
    assert inverted == []
    cursor.remove(6)  # five members: the det is normal, and the refactor inverts
    assert (cursor.drop_marginals(np.arange(1, 6)) < 0.0).all()
    assert len(inverted) == 1
    cursor.add(6)  # back at det 0.0: the update refactors, and the memo answers without a factor
    assert cursor.gains().tobytes() == np.zeros(10).tobytes()
    assert len(inverted) == 1


def test_the_cursor_agrees_with_fresh_cursors_across_zero_det_sets(scaled, monkeypatch):
    """Walks of single moves and bursts into and out of det-0.0 sets agree with fresh cursors."""
    inverses = []
    refactor = functions._DeterminantCursor._refactor

    def spy(cursor):
        refactor(cursor)
        inverses.append(cursor._inv is not None)

    monkeypatch.setattr(functions._DeterminantCursor, "_refactor", spy)
    walk_move_patterns(scaled, det_scaled=True)
    assert not all(inverses) and any(inverses)  # the walks reached both kinds of set


def test_a_zero_det_set_keeps_no_factor(scaled, monkeypatch):
    assert scaled.value(SIX) == 0.0
    assert held_factors(scaled) == []
    factored = spy_on(monkeypatch, functions, "_cholesky_det")
    scaled.cursor(SIX).gains()  # the refactor takes (None, 0.0) from the memo
    assert scaled.value(SIX) == 0.0
    assert factored == []


def test_both_reductions_factor_a_zero_det_ground_set_once(monkeypatch):
    """At n = 1000, F(N) is 0.0: ``min_lattice`` and then ``uqsfmax`` refactor at N, from one factorization."""
    factored = spy_on(monkeypatch, functions, "_cholesky_det")
    F = make_determinant(1000, 1)
    min_lattice(F)
    uqsfmax(F)
    assert [shape for _la, shape in factored].count((1000, 1000)) == 1
    assert F.value(SubsetBits.full(1000)) == 0.0
