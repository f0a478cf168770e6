import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsopt import (
    CapacityMismatch,
    CountingOracle,
    GroundSet,
    InternalInvariantError,
    SetFunctionOracle,
    SubsetBits,
    double_greedy,
    exact_opt,
    is_local_max,
    is_local_min,
    make_com,
    make_determinant,
    make_half_products,
    make_iwata,
    make_perturbed_facility,
    make_cobb_douglas,
    make_random_qsb,
    make_tabular,
    min_lattice,
    nested_argmin_check,
    parse_set,
    random_permutation_greedy,
    randomized_bidirectional_greedy,
    randomized_local_search,
    u_prefix,
    uqsfmax,
    uqsfmin,
    values_close,
)
from qsopt import functions
from qsopt.functions import _FacilityCursor, facility_value, seeded_stream
from qsopt.maximize import restricted_oracle
from qsopt.oracle import ABS_TOL, REL_TOL, Cursor
from qsopt.sets import IntervalLattice

from conftest import NAN_TABLE, PROP_TABLE, SpyCursor


def test_marginal_gain_reference_table():
    F = make_tabular(PROP_TABLE)
    assert F.cursor(SubsetBits.empty(2)).add_marginal(1) == -1.0


def test_marginal_gain_deterministic():
    F = make_com(6, 3)
    x = SubsetBits.from_members(6, [2, 5])
    assert F.cursor(x).add_marginal(3) == F.cursor(x).add_marginal(3)


def test_marginal_gain_iwata():
    F = make_iwata(5)
    assert F.cursor(SubsetBits.empty(5)).add_marginal(5) == -11.0


def test_drop_marginal_reference_table():
    F = make_tabular(PROP_TABLE)
    assert F.cursor(SubsetBits.full(2)).drop_marginal(2) == 1.0


def test_drop_marginal_singleton_equals_gain_from_empty():
    F = make_com(5, 11)
    for i in range(1, 6):
        single = SubsetBits.from_members(5, [i])
        assert values_close(
            F.cursor(single).drop_marginal(i), F.cursor(SubsetBits.empty(5)).add_marginal(i)
        )


def test_drop_marginal_iwata_full_set():
    # direct evaluation of both sets: F(N) - F(N - 1) = -25 - (-26)
    F = make_iwata(5)
    assert F.cursor(SubsetBits.full(5)).drop_marginal(1) == 1.0
    assert F.value(SubsetBits.full(5)) == -25.0
    assert F.value(SubsetBits.full(5).remove(1)) == -26.0


FAMILY_INSTANCES = [
    ("iwata", lambda: make_iwata(40)),
    ("com", lambda: make_com(40, 5)),
    ("half_products", lambda: make_half_products(40, 5)),
    ("perturbed_facility", lambda: make_perturbed_facility(30, 60, 5)),
    ("determinant", lambda: make_determinant(30, 5)),
    ("cobb_douglas", lambda: make_cobb_douglas(40, 5)),
]


@pytest.mark.parametrize("name,build", FAMILY_INSTANCES, ids=[f[0] for f in FAMILY_INSTANCES])
def test_telescoping_sum(name, build):
    F = build()
    n = F.n
    rng = seeded_stream(123, 0)
    for _ in range(20):
        target = SubsetBits.from_bool_array(rng.random(n) < 0.5)
        order = [i for i in rng.permutation(n) + 1 if target.contains(int(i))]
        x = SubsetBits.empty(n)
        total = 0.0
        for i in order:
            total += F.cursor(x).add_marginal(int(i))
            x = x.add(int(i))
        assert x == target
        assert values_close(total, F.value(target) - F.value(SubsetBits.empty(n)), rel=1e-9)


def restricted_com():
    """com over 40 elements seen through the 30 free elements of [{1..5}, N - {36..40}]."""
    lower = SubsetBits.from_members(40, range(1, 6))
    upper = SubsetBits.from_members(40, range(1, 36))
    return restricted_oracle(make_com(40, 5), IntervalLattice(lower, upper))


CURSOR_INSTANCES = FAMILY_INSTANCES + [
    ("tabular", lambda: make_random_qsb(8, 5)),
    ("restricted", restricted_com),
]


@pytest.mark.parametrize("name,build", CURSOR_INSTANCES, ids=[f[0] for f in CURSOR_INSTANCES])
def test_oracle_marginal_matches_eval_difference(name, build):
    """One-off marginals from a fresh family cursor at each random anchor."""
    F = build()
    n = F.n
    rng = seeded_stream(77, 0)
    for _ in range(1000):
        x = SubsetBits.from_bool_array(rng.random(n) < 0.5)
        i = int(rng.integers(1, n + 1))
        if x.contains(i):
            got = F.cursor(x).drop_marginal(i)
            want = F.value(x) - F.value(x.remove(i))
        else:
            got = F.cursor(x).add_marginal(i)
            want = F.value(x.add(i)) - F.value(x)
        assert values_close(got, want), (name, i, str(x), got, want)


def assert_batch_matches_scalar(batch, scalar, exact=True):
    """Each scalar answer against its batch entry.

    ``exact`` asks for equal bits: a family cursor answers a scalar query with
    its batch formula at the bare id. Otherwise each number must be close and
    of the same strict sign.
    """
    scalar = np.array(scalar, dtype=float)
    assert batch.shape == scalar.shape
    if exact:
        differ = np.flatnonzero(batch.view(np.int64) != scalar.view(np.int64))
        assert len(differ) == 0, [(batch[i], scalar[i]) for i in differ]
        return
    for b, s in zip(batch.tolist(), scalar.tolist()):
        assert values_close(b, s), (b, s)
        assert (b > 0.0, b < 0.0) == (s > 0.0, s < 0.0), (b, s)


@pytest.mark.parametrize("name,build", CURSOR_INSTANCES, ids=[f[0] for f in CURSOR_INSTANCES])
def test_cursor_matches_oracle(name, build):
    F = build()
    n = F.n
    # the determinant answers a scalar as a batch of one, and BLAS and einsum
    # sum a one-column batch in another order than a wide one
    exact = name != "determinant"
    # the empty and full anchors ask one side of each batch pair for no ids at all
    for anchor in (SubsetBits.empty(n), SubsetBits.full(n)):
        cursor = F.cursor(anchor)
        members = anchor.to_bool_array()
        outside = np.flatnonzero(~members) + 1
        inside = np.flatnonzero(members) + 1
        assert_batch_matches_scalar(
            cursor.add_marginals(outside), [cursor.add_marginal(int(u)) for u in outside], exact
        )
        assert_batch_matches_scalar(
            cursor.drop_marginals(inside), [cursor.drop_marginal(int(d)) for d in inside], exact
        )
    rng = seeded_stream(99, 0)
    x = SubsetBits.from_bool_array(rng.random(n) < 0.5)
    cursor = F.cursor(x)
    for _ in range(200):
        members = x.to_bool_array()
        outside = np.flatnonzero(~members) + 1
        inside = np.flatnonzero(members) + 1
        assert_batch_matches_scalar(
            cursor.add_marginals(outside), [cursor.add_marginal(int(u)) for u in outside], exact
        )
        assert_batch_matches_scalar(
            cursor.drop_marginals(inside), [cursor.drop_marginal(int(d)) for d in inside], exact
        )
        i = int(rng.integers(1, n + 1))
        if x.contains(i):
            assert values_close(cursor.drop_marginal(i), F.value(x) - F.value(x.remove(i)))
            if rng.random() < 0.5:
                cursor.remove(i)
                x = x.remove(i)
        else:
            assert values_close(cursor.add_marginal(i), F.value(x.add(i)) - F.value(x))
            if rng.random() < 0.5:
                cursor.add(i)
                x = x.add(i)
    assert cursor.members() == x


def test_cursor_moves_take_numpy_ids():
    """A numpy id past bit 63 moves the set and the running sum alike."""
    F = make_com(100, 1)
    cursor = F.cursor(SubsetBits.empty(100))
    cursor.add(np.int64(70))
    assert cursor.members() == SubsetBits.from_members(100, [70])
    assert cursor.add_marginal(3) == F.cursor(cursor.members()).add_marginal(3)
    cursor.remove(np.int64(70))
    assert cursor.members() == SubsetBits.empty(100)


def restricted_determinant():
    """determinant over 40 elements seen through the 30 free elements of [{1..5}, N - {36..40}]."""
    lower = SubsetBits.from_members(40, range(1, 6))
    upper = SubsetBits.from_members(40, range(1, 36))
    return restricted_oracle(make_determinant(40, 5), IntervalLattice(lower, upper))


def tied_facility():
    """Facility cursor over a matrix of quarter steps: columns tie for their maximum."""
    rng = seeded_stream(5, 0)
    mat = rng.integers(2, 5, (10, 12)) / 4.0
    sigma = rng.uniform(-0.01, 0.01, 10)
    return SetFunctionOracle(
        GroundSet(10),
        lambda x: facility_value(mat, sigma, x.to_bool_array()),
        cursor_factory=lambda o, s: _FacilityCursor(s, mat, sigma),
    )


def generic_com():
    """com with no cursor factory: the base ``Cursor``, which answers from value differences."""
    F = make_com(12, 5)
    return SetFunctionOracle(F.ground, F.value)


# the small instances walk through 0, 1 and 2 members, where the updates special-case
MOVE_INSTANCES = CURSOR_INSTANCES + [
    ("generic", generic_com),
    ("restricted_determinant", restricted_determinant),
    ("tied_facility", tied_facility),
    ("small_facility", lambda: make_perturbed_facility(5, 8, 5)),
    ("small_determinant", lambda: make_determinant(5, 5)),
]


def assert_cursor_agrees(F, cursor, x, exact=False, det_scaled=False):
    """Both batches and the flip gains of ``cursor`` against a cursor of F built fresh at x.

    The flip gains are compared with the vector made of the fresh cursor's
    two batches. ``exact`` asks for equal bits. Otherwise each number must be
    close and of the same strict sign. A determinant marginal is
    det * (ratio - 1), so its rounding error scales with det, not with the
    marginal: ``det_scaled`` scales the absolute floor by det.
    """
    fresh = F.cursor(x)
    members = x.to_bool_array()
    outside = np.flatnonzero(~members) + 1
    inside = np.flatnonzero(members) + 1
    fresh_add = fresh.add_marginals(outside)
    fresh_drop = fresh.drop_marginals(inside)
    fresh_gains = np.empty(len(members))
    fresh_gains[outside - 1] = fresh_add
    fresh_gains[inside - 1] = -fresh_drop
    pairs = [
        (cursor.add_marginals(outside), fresh_add),
        (cursor.drop_marginals(inside), fresh_drop),
        (cursor.gains(), fresh_gains),
    ]
    floor = max(REL_TOL * abs(F.value(x)), ABS_TOL) if det_scaled else ABS_TOL
    for got, want in pairs:
        if exact:
            assert np.array_equal(got, want), (got, want)
            continue
        for g, w in zip(got.tolist(), want.tolist()):
            assert values_close(g, w, abs_floor=floor), (g, w)
            assert (g > 0.0, g < 0.0) == (w > 0.0, w < 0.0), (g, w)


def walk_move_patterns(F, exact=False, det_scaled=False):
    """Random walks of single moves and bursts, each checked by ``assert_cursor_agrees``."""
    n = F.n
    single = st.lists(st.integers(1, n), min_size=1, max_size=1)
    burst = st.lists(st.integers(1, n), min_size=2, max_size=5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, (1 << n) - 1), st.lists(st.one_of(single, single, burst), max_size=30))
    # {} -> {1} -> {} -> {1, 2}, one move at a time, each after a gains() read
    @example(0, [[1], [1], [1], [2]])
    def walk(mask, rounds):
        x = SubsetBits(n, mask)
        cursor = F.cursor(x)
        assert_cursor_agrees(F, cursor, x, exact, det_scaled)
        for moves in rounds:
            for i in moves:
                if x.contains(i):
                    cursor.remove(i)
                    x = x.remove(i)
                else:
                    cursor.add(i)
                    x = x.add(i)
            assert cursor.members() == x
            assert_cursor_agrees(F, cursor, x, exact, det_scaled)

    walk()


@pytest.mark.parametrize("name,build", MOVE_INSTANCES, ids=[f[0] for f in MOVE_INSTANCES])
def test_cursor_agrees_with_fresh_cursor_under_move_patterns(name, build):
    """Single moves between queries take the update path; bursts and moves into or
    out of the empty set take the refactor."""
    # exact updates, a refactor at every sync, or (generic) F evaluated afresh at every move
    exact = "facility" in name or name in ("half_products", "generic")
    walk_move_patterns(build(), exact, det_scaled="determinant" in name)


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("name", ["tied_facility", "small_facility"])
def test_facility_cursor_agrees_under_move_patterns_in_small_blocks(name, block, monkeypatch):
    """Row blocks of 1-3 rows make every facility pass merge blocks, ties included."""
    monkeypatch.setattr(functions, "_FACILITY_BLOCK", block)
    walk_move_patterns(dict(MOVE_INSTANCES)[name](), exact=True)


# the seven families, the generic cursor and a restricted oracle's cursor
BATCH_MOVE_INSTANCES = CURSOR_INSTANCES + [("generic", generic_com)]


@pytest.mark.parametrize("name,build", BATCH_MOVE_INSTANCES, ids=[f[0] for f in BATCH_MOVE_INSTANCES])
def test_batch_move_equals_the_same_moves_one_at_a_time(name, build):
    """One ``move`` through the counting cursor reaches the set, and the marginal bits,
    of its ids moved one at a time; a wrapper with only single moves takes the base loop."""
    F = build()
    n = F.n
    exact = name != "determinant"  # the wrapper's batches are scalar loops; see test_cursor_matches_oracle

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, (1 << n) - 1),
        st.lists(st.tuples(st.sets(st.integers(1, n), max_size=n), st.booleans()), max_size=6),
    )
    # {} -> {1} -> {} -> {1, 2}: single moves into and out of the empty set, then a burst from it
    @example(0, [({1}, False), ({1}, False), ({1, 2}, False)])
    def walk(mask, bursts):
        x = SubsetBits(n, mask)
        batch = CountingOracle(F).cursor(x)
        single = F.cursor(x)
        wrapped = _ScalarOnlyCursor(F.cursor(x))
        for ids, also_remove in bursts:
            added = np.array(sorted(i for i in ids if not x.contains(i)), dtype=np.int64)
            removed = np.array(sorted(i for i in ids if x.contains(i)), dtype=np.int64)
            if also_remove:  # ids added and removed in one move end outside, as one at a time
                removed = np.concatenate((removed, added[::2]))
            batch.move(added, removed)
            wrapped.move(added, removed)
            for u in added.tolist():
                single.add(u)
            for d in removed.tolist():
                single.remove(d)
            x = single.members()
            assert batch.members() == wrapped.members() == x
            members = x.to_bool_array()
            outside = np.flatnonzero(~members) + 1
            inside = np.flatnonzero(members) + 1
            for ask in ("add_marginals", "drop_marginals"):
                ids_of = outside if ask == "add_marginals" else inside
                want = getattr(single, ask)(ids_of)
                assert np.array_equal(getattr(batch, ask)(ids_of).view(np.int64), want.view(np.int64))
                assert_batch_matches_scalar(getattr(wrapped, ask)(ids_of), want, exact)
            assert_cursor_agrees(F, batch, x, det_scaled=name == "determinant")

    walk()


@pytest.mark.parametrize("name,build", BATCH_MOVE_INSTANCES, ids=[f[0] for f in BATCH_MOVE_INSTANCES])
def test_moves_that_leave_the_set_as_it_is_are_rejected(name, build):
    """Adding a member or removing a non-member raises, alone or in a batch, and leaves
    the cursor's answers those of a fresh cursor at its set."""
    F = build()
    n = F.n
    x = SubsetBits.from_members(n, range(1, n, 2))  # the odd ids
    member, other = 1, 2
    none = np.array([], dtype=np.int64)
    for make in (F.cursor, CountingOracle(F).cursor):
        cursor = make(x)
        with pytest.raises(ValueError, match=rf"cannot add element 1: it is already in \{{1,3,"):
            cursor.add(member)
        with pytest.raises(ValueError, match=r"cannot remove element 2: it is not in \{1,3,"):
            cursor.remove(other)
        assert cursor.members() == x
        assert_cursor_agrees(F, cursor, x, det_scaled=name == "determinant")
        # every batch is checked whole, so none moves an id before the bad one
        for added, removed in (([member], []), ([], [other]), ([other, other], []), ([other], [member, member])):
            with pytest.raises(ValueError, match="cannot add|cannot remove|twice"):
                cursor.move(np.array(added, dtype=np.int64), np.array(removed, dtype=np.int64))
            assert cursor.members() == x
        with pytest.raises(ValueError, match=rf"element id {n + 1} out of range 1..{n}"):
            cursor.move(np.array([n + 1]), none)
        with pytest.raises(ValueError, match=rf"element id 0 out of range 1..{n}"):
            cursor.move(none, np.array([0]))
        assert cursor.members() == x
        assert_cursor_agrees(F, cursor, x, det_scaled=name == "determinant")


def test_a_bad_batch_leaves_the_generic_cursor_where_it_was():
    """The base ``move`` checks the batch before its first ``add``: at {}, ``move([1,2,2], [])``
    once raised at the second 2 and left the cursor at {1,2}, and ``move([1], [3])`` left it at {1}."""
    cursor = generic_com().cursor(SubsetBits.empty(12))
    with pytest.raises(ValueError, match="^a move names element 2 twice among the ids it adds$"):
        cursor.move(np.array([1, 2, 2]), np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match=re.escape("cannot remove element 3: it is not in {1}")):
        cursor.move(np.array([1]), np.array([3]))
    with pytest.raises(ValueError, match="^a move names element 4 twice among the ids it removes$"):
        cursor.move(np.array([4, 5]), np.array([5, 4, 4, 5]))
    assert cursor.members() == SubsetBits.empty(12)


@pytest.mark.parametrize("name,build", BATCH_MOVE_INSTANCES, ids=[f[0] for f in BATCH_MOVE_INSTANCES])
def test_a_batch_move_takes_integer_ids_only(name, build):
    """Float ids and a bool mask raise TypeError, as ``add(1.9)`` does, where they once were
    cast (1.9 moved element 1, a mask moved ids 1 and 0); an empty list still moves nothing."""
    F = build()
    x = SubsetBits.from_members(F.n, [2])
    for make in (F.cursor, CountingOracle(F).cursor):
        cursor = make(x)
        for added, removed in (([1.9], []), ([], [2.0]), (np.ones(F.n, dtype=bool), [])):
            with pytest.raises(TypeError, match="^element ids must be integers, got an array of (float64|bool)$"):
                cursor.move(np.asarray(added), np.asarray(removed))
            assert cursor.members() == x
        with pytest.raises(TypeError):
            cursor.add(1.9)
        cursor.move([], [])
        assert cursor.members() == x
        assert_cursor_agrees(F, cursor, x, det_scaled=name == "determinant")


def test_epoch_cursor_updates_one_pending_id_and_refactors_more():
    """One id moved between two queries, by ``add``/``remove`` or by ``move``, is one
    ``_insert``/``_delete``; two ids, in one move or two, are one ``_refactor``. The
    bit-for-bit tests cannot tell an update from a refactor, so a spy counts them."""
    F = make_perturbed_facility(30, 60, 5)
    cursor = F.cursor(SubsetBits.from_members(30, [1, 2, 3]))
    calls = []
    for name in ("_insert", "_delete", "_refactor"):
        method = getattr(cursor, name)
        setattr(cursor, name, lambda *args, _name=name, _method=method: (calls.append(_name), _method(*args)))
    none = np.array([], dtype=np.int64)
    moves = [
        (lambda: None, "_refactor"),  # the first query
        (lambda: cursor.add(4), "_insert"),
        (lambda: cursor.move(np.array([5]), none), "_insert"),
        (lambda: cursor.remove(4), "_delete"),
        (lambda: cursor.move(none, np.array([5])), "_delete"),
        (lambda: cursor.move(np.array([6, 7]), none), "_refactor"),
        (lambda: cursor.move(np.array([8]), np.array([6])), "_refactor"),
        (lambda: (cursor.add(9), cursor.remove(9)), "_refactor"),
    ]
    for move, sync in moves:
        move()
        cursor.drop_marginals(np.array([1]))
        cursor.move(none, none)  # a move of nothing leaves nothing to sync
        cursor.drop_marginals(np.array([1]))
        assert calls == [sync]
        calls.clear()
    x = SubsetBits.from_members(30, [1, 2, 3, 7, 8])
    assert cursor.members() == x
    assert_cursor_agrees(F, cursor, x, exact=True)


# the cursors whose statistics over the members keep the bits of a fresh cursor's at the same set
EXACT_STATE_INSTANCES = [
    ("half_products", lambda: make_half_products(60, 1)),
    ("perturbed_facility", lambda: make_perturbed_facility(60, 40, 1)),
]


@pytest.mark.parametrize("name,build", EXACT_STATE_INSTANCES, ids=[f[0] for f in EXACT_STATE_INSTANCES])
def test_kept_statistics_answer_like_a_fresh_cursor_after_every_move(name, build):
    """Single moves (facility's updates) and batch moves (its refactors), into and out of the
    empty set: after every move the adds, drops and ``gains()`` have the bits of a fresh cursor."""
    F = build()
    n = F.n
    flip = st.integers(1, n)  # one id by add/remove
    batch = st.sets(st.integers(1, n), min_size=2, max_size=8)  # their flips in one move
    clear = st.just("clear")  # every member out in one move

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, (1 << n) - 1), st.lists(st.one_of(flip, flip, batch, clear), min_size=5, max_size=30))
    # {1} -> {} -> {1} -> {1,2} one id at a time, then out to {} and back in by batches
    @example(1, [1, 1, 2, "clear", {3, 4}, 3])
    def walk(mask, moves):
        x = SubsetBits(n, mask)
        cursor = F.cursor(x)
        for move in moves:
            if isinstance(move, int):
                if x.contains(move):
                    cursor.remove(move)
                else:
                    cursor.add(move)
            else:
                ids = sorted(x) if move == "clear" else sorted(move)
                added = np.array([i for i in ids if not x.contains(i)], dtype=np.int64)
                removed = np.array([i for i in ids if x.contains(i)], dtype=np.int64)
                cursor.move(added, removed)
            x = SubsetBits.from_members(n, set(x) ^ ({move} if isinstance(move, int) else set(ids)))
            assert cursor.members() == x
            assert_cursor_agrees(F, cursor, x, exact=True)

    walk()


#: A table of four elements with infinities and a NaN: {1,2} and {1,2,3} are +inf, {1,4} and
#: {1,2,4} -inf, so flipping 3 at the first pair or 2 at the second subtracts two infinities.
INF_NAN_TABLE = [0.0, 1.5, -2.0, math.inf, 0.25, 3.0, math.nan, math.inf]
INF_NAN_TABLE += [1.0, -math.inf, 2.5, -math.inf, math.inf, -math.inf, -0.5, 4.0]

# the cursors whose gains() evaluates their batch formulas once over all n ids
ONE_READ_GAINS = [
    (f"{name}-{n}", build, n)
    for name, build, sizes in (
        ("iwata", lambda n: make_iwata(n), (1, 2, 60)),
        ("com", lambda n: make_com(n, 3), (1, 2, 60)),
        ("half_products", lambda n: make_half_products(n, 3), (1, 2, 60)),
        ("cobb_douglas", lambda n: make_cobb_douglas(n, 3), (1, 2, 60)),
        ("tabular", lambda n: make_random_qsb(n, 3), (1, 2, 8)),
        ("inf_nan_table", lambda n: make_tabular(INF_NAN_TABLE), (4,)),
    )
    for n in sizes
]


def _flips_and_warnings(read):
    """``read()`` and the set of RuntimeWarning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        vector = read()
    return vector, {str(w.message) for w in caught}


@pytest.mark.parametrize("name,build,n", ONE_READ_GAINS, ids=[g[0] for g in ONE_READ_GAINS])
def test_one_read_gains_have_the_bits_of_the_two_batch_split(name, build, n):
    """Single and batch moves, into and out of the empty set and the full set: after
    every move ``gains()`` equals the base split into a drop and an add batch, bit
    for bit with a NaN entry counted as equal, and warns exactly when the split does:
    never but on the table with infinities, where both subtract the same two entries."""
    F = build(n)
    flip = st.integers(1, n)  # one id by add/remove
    batch = st.sets(st.integers(1, n), min_size=1, max_size=8)  # their flips in one move
    ends = st.sampled_from(["clear", "fill"])  # every member out, every non-member in

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, (1 << n) - 1), st.lists(st.one_of(flip, flip, batch, ends), min_size=3, max_size=20))
    # {} -> {1} -> {} one id at a time, then out to N and back to {} by batches
    @example(0, [1, 1, "fill", "clear"])
    def walk(mask, moves):
        cursor = F.cursor(SubsetBits(n, mask))
        for move in moves:
            x = cursor.members()
            if isinstance(move, int):
                (cursor.remove if x.contains(move) else cursor.add)(move)
            else:
                ids = move if isinstance(move, set) else set(x if move == "clear" else x.complement())
                added = np.array(sorted(i for i in ids if not x.contains(i)), dtype=np.int64)
                removed = np.array(sorted(i for i in ids if x.contains(i)), dtype=np.int64)
                cursor.move(added, removed)
            got, got_warned = _flips_and_warnings(cursor.gains)
            want, want_warned = _flips_and_warnings(lambda: Cursor.gains(cursor))
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), (got, want)
            assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)), (got, want)
            assert got_warned == want_warned
            assert name.startswith("inf_nan_table") or not want_warned

    if name.startswith("inf_nan_table"):  # through {1,2}, {1,4} and {1,2,3}: a flip subtracts two infinities
        walk = example(3, [3, 3, 3])(example(9, [2, 2, 2])(example(15, [4, 4])(walk)))
    walk()


def test_double_greedy_reads_the_half_products_mask_only_in_its_cursor_constructors(monkeypatch):
    """A move writes each entry that moved: a double greedy pass reads the member mask
    in the constructors of its two cursors and in ``value``, never once per move."""
    F = make_half_products(60, 1)
    callers = []
    read = SubsetBits.to_bool_array

    def spy(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return read(self)

    monkeypatch.setattr(SubsetBits, "to_bool_array", spy)
    double_greedy(F, list(range(1, F.n + 1)))
    assert callers == ["__init__", "__init__", "value"]  # S1's and S2's cursors, then F of the result


def test_com_add_of_a_member_no_longer_corrupts_the_running_sum():
    """At {1,2}, add(2) once left members() at {1,2} and w1 counted twice: add_marginal(3)
    read 0.0324 against a fresh cursor's 0.0526 (Cobb-Douglas 0.0875 against 0.1031)."""
    at = SubsetBits.from_members(6, [1, 2])
    for F in (make_com(6, 1), make_cobb_douglas(6, 1)):
        cursor = F.cursor(at)
        with pytest.raises(ValueError, match=re.escape("cannot add element 2: it is already in {1,2}")):
            cursor.add(2)
        assert cursor.add_marginal(3) == F.cursor(at).add_marginal(3)


BLOCK = functions._FACILITY_BLOCK


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
    st.integers(1, 6),
    st.sampled_from([2, 5, 40, 4000]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example(2 * BLOCK + 1, 3, 2, 0, True)
def test_top_two_matches_sorted_columns(k, d, levels, seed, all_columns):
    """The blocked two-max equals a column sort, on k rows around the block size.

    The matrices are quarter steps of ``levels`` integers, so few levels tie
    the maximum across blocks and many levels leave it to one row.
    """
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, levels, (k + 5, d)) / 4.0
    rows = np.sort(rng.choice(k + 5, k, replace=False))
    cols = None if all_columns else np.flatnonzero(rng.random(d) < 0.6)
    sub = mat[rows] if cols is None else mat[np.ix_(rows, cols)]
    ordered = -np.sort(-sub, axis=0)
    max1, max2, counts = functions._top_two(mat, rows, cols)
    assert np.array_equal(max1, ordered[0])
    assert np.array_equal(max2, ordered[1] if k >= 2 else np.zeros(sub.shape[1]))
    assert np.array_equal(counts, (sub == ordered[0]).sum(axis=0))


@pytest.mark.parametrize("direction", ["down", "up"])
def test_determinant_update_chain(direction):
    """n single removals from the full set, or n additions to the empty set, one query each.

    Every query takes the in-place update, so rounding builds up over the
    whole chain; it must stay within the tolerance of a fresh refactor.
    """
    n = 400
    F = make_determinant(n, 1)
    x = SubsetBits.full(n) if direction == "down" else SubsetBits.empty(n)
    cursor = F.cursor(x)
    cursor.add_marginals(np.array([], dtype=np.int64))  # the first query factors
    for i in range(1, n + 1):
        if direction == "down":
            cursor.remove(i)
            x = x.remove(i)
        else:
            cursor.add(i)
            x = x.add(i)
        assert_cursor_agrees(F, cursor, x, det_scaled=True)


class TestCountingOracle:
    def test_value_transparency(self):
        F = make_com(12, 4)
        C = CountingOracle(F)
        for mask in (0, 5, 4095):
            x = SubsetBits(12, mask)
            assert C.value(x) == F.value(x)

    def test_eval_counting(self):
        F = make_tabular(PROP_TABLE)
        C = CountingOracle(F)
        C.value(SubsetBits.empty(2))
        C.value(SubsetBits.full(2))
        assert C.eval_calls == 2

    def test_marginal_counting_fast_path(self):
        # a family cursor: one anchor evaluation each, then counted marginal queries
        F = make_iwata(6)
        C = CountingOracle(F)
        empty, full = SubsetBits.empty(6), SubsetBits.full(6)
        assert C.cursor(empty).add_marginal(3) == F.cursor(empty).add_marginal(3)
        assert C.cursor(full).drop_marginal(2) == F.cursor(full).drop_marginal(2)
        assert C.marginal_calls == 2
        assert C.eval_calls == 2

    def test_marginal_counting_slow_path(self):
        # no cursor factory: the generic cursor's evaluations route through the counter
        D = make_determinant(6, 1)
        F = SetFunctionOracle(GroundSet(6), D.value)
        C = CountingOracle(F)
        gain = C.cursor(SubsetBits.empty(6)).add_marginal(3)
        assert values_close(gain, D.cursor(SubsetBits.empty(6)).add_marginal(3))
        assert C.eval_calls == 2
        assert C.marginal_calls == 0

    def test_batch_counts_one_marginal_call_per_id(self):
        F = make_iwata(6)
        C = CountingOracle(F)
        cursor = C.cursor(SubsetBits.from_members(6, [2, 5]))
        gains = cursor.add_marginals(np.array([1, 3, 4]))
        drops = cursor.drop_marginals(np.array([2, 5]))
        assert (C.eval_calls, C.marginal_calls) == (1, 5)
        assert gains.tolist() == [cursor.add_marginal(u) for u in (1, 3, 4)]
        assert drops.tolist() == [cursor.drop_marginal(d) for d in (2, 5)]

    def test_generic_batch_routes_evaluations_through_counter(self):
        D = make_determinant(6, 1)
        F = SetFunctionOracle(GroundSet(6), D.value)
        C = CountingOracle(F)
        gains = C.cursor(SubsetBits.empty(6)).add_marginals(np.array([1, 2, 3]))
        assert C.eval_calls == 4  # the anchor plus one evaluation per id
        assert C.marginal_calls == 0
        for u, gain in zip((1, 2, 3), gains.tolist()):
            assert values_close(gain, D.cursor(SubsetBits.empty(6)).add_marginal(u))

    def test_counters_monotone(self):
        F = make_com(8, 2)
        C = CountingOracle(F)
        seen = []
        cursor = C.cursor(SubsetBits.empty(8))
        for i in range(1, 9):
            cursor.add_marginal(i)
            seen.append((C.eval_calls, C.marginal_calls))
        assert seen == sorted(seen)
        assert C.total_calls == C.eval_calls + C.marginal_calls


class _ScalarOnlyCursor(Cursor):
    """Forwards the scalar queries and moves only, so batches take the base loop."""

    def __init__(self, inner: Cursor):
        self._inner = inner

    def members(self) -> SubsetBits:
        return self._inner.members()

    def add_marginal(self, u: int) -> float:
        return self._inner.add_marginal(u)

    def drop_marginal(self, d: int) -> float:
        return self._inner.drop_marginal(d)

    def add(self, u: int) -> None:
        self._inner.add(u)

    def remove(self, d: int) -> None:
        self._inner.remove(d)


def scalar_only(F):
    return SetFunctionOracle(
        F.ground, F.value, cursor_factory=lambda _owner, s: _ScalarOnlyCursor(F.cursor(s))
    )


SWEEP_INSTANCES = [
    ("iwata", lambda: make_iwata(300)),
    ("com", lambda: make_com(300, 11)),
    ("half_products", lambda: make_half_products(300, 11)),
    ("perturbed_facility", lambda: make_perturbed_facility(300, 400, 11)),
    ("determinant", lambda: make_determinant(120, 11)),
    ("cobb_douglas", lambda: make_cobb_douglas(300, 11)),
]


@pytest.mark.parametrize("name,build", SWEEP_INSTANCES, ids=[f[0] for f in SWEEP_INSTANCES])
def test_batched_sweeps_match_scalar_path(name, build):
    """The family batches and the scalar loop give the same runs and the same counts."""
    F = build()

    def runs(G):
        lattice, traces = min_lattice(G)
        interval, max_trace = uqsfmax(G)
        return lattice, traces, interval, max_trace, randomized_local_search(G, 2, 7)

    batched, scalar = runs(F), runs(scalar_only(F))
    assert batched == scalar
    assert batched[1][0].marginal_calls > 0 and batched[3].marginal_calls > 0


@pytest.mark.parametrize("name,build", SWEEP_INSTANCES, ids=[f[0] for f in SWEEP_INSTANCES])
def test_reductions_move_each_cursor_once_per_phase(name, build):
    """The move cost model: one ``move`` per phase on each cursor, no single-element move."""
    F = build()
    logs = []

    def spy_cursor(_owner, start):
        logs.append([])
        return SpyCursor(F.cursor(start), logs[-1])

    spied = SetFunctionOracle(F.ground, F.value, cursor_factory=spy_cursor)
    _, (up, down) = min_lattice(spied)
    _, max_trace = uqsfmax(spied)
    phases = [2 * up.iterations, 2 * down.iterations, max_trace.iterations, max_trace.iterations]
    assert len(logs) == len(phases)
    for log, most in zip(logs, phases):
        assert "add" not in log and "remove" not in log
        assert 0 < log.count("move") <= most
        assert "move,move" not in ",".join(log)  # a query between any two moves
        assert log[0] == "query"


@pytest.mark.parametrize("seed", [1, 3])
def test_single_element_determinant_sweeps_reach_empty_set(seed):
    """n=1: k11 >= 1 keeps {1} in min_lattice; k11 < 1 drives uqsfmax's Y to the empty set.

    Either way some sweep anchors a determinant cursor at the empty set and asks
    it for drop marginals of no ids.
    """
    F = make_determinant(1, seed)
    assert (F.params["kernel"][0, 0] >= 1.0) == (seed == 1)

    def runs(G):
        return min_lattice(G), uqsfmax(G), randomized_local_search(G, 3, seed)

    assert runs(F) == runs(scalar_only(F))


NAN_RUNS = [
    ("uqsfmin", lambda F: uqsfmin(F, SubsetBits.empty(3)), 1, "add", "{}"),
    ("uqsfmax", uqsfmax, 1, "add", "{}"),
    ("dg", lambda F: double_greedy(F, [1, 2, 3]), 1, "add", "{}"),
    ("dg_drop", lambda F: double_greedy(F, [2, 3, 1]), 3, "drop", "{1,3}"),
    ("rp", lambda F: random_permutation_greedy(F, 1, 7), 3, "drop", "{1,3}"),
    ("rg", lambda F: randomized_bidirectional_greedy(F, 2, 0), 1, "add", "{}"),
    ("rls", lambda F: randomized_local_search(F, 1, 0), 1, "add", "{}"),
    ("rls_drop", lambda F: randomized_local_search(F, 1, 9), 2, "drop", "{1,2}"),
    ("u_prefix_rls", lambda F: u_prefix(F, lambda G: randomized_local_search(G, 1, 0)), 1, "add", "{}"),
]
NAN_ORACLES = {
    "family": lambda: make_tabular(NAN_TABLE),
    "generic": lambda: SetFunctionOracle(GroundSet(3), make_tabular(NAN_TABLE).value),
    "scalar_only": lambda: scalar_only(make_tabular(NAN_TABLE)),
}


@pytest.mark.parametrize("oracle", sorted(NAN_ORACLES))
@pytest.mark.parametrize("name,run,element,query,at", NAN_RUNS, ids=[r[0] for r in NAN_RUNS])
def test_nan_marginal_raises_with_replayable_witness(oracle, name, run, element, query, at):
    """F({1}) is NaN: every algorithm stops at its first NaN marginal, whatever cursor answers.

    The message names the element, the query and the anchored set; the family
    cursor at that set answers the same query with NaN.
    """
    witness = f"marginal of element {element} is NaN ({query} at {at})"
    with pytest.raises(InternalInvariantError, match=f"^{re.escape(witness)}$"):
        run(NAN_ORACLES[oracle]())
    replay = make_tabular(NAN_TABLE).cursor(parse_set(at, 3))
    assert math.isnan(getattr(replay, f"{query}_marginal")(element))


#: Every public entry that judges a set or a lattice against the oracle, at a set x.
CAPACITY_ENTRIES = [
    ("value", lambda F, x: F.value(x)),
    ("cursor", lambda F, x: F.cursor(x)),
    ("counted_value", lambda F, x: CountingOracle(F).value(x)),
    ("counted_cursor", lambda F, x: CountingOracle(F).cursor(x)),
    ("uqsfmin", uqsfmin),
    ("exact_opt", lambda F, x: exact_opt(F, "min", IntervalLattice(SubsetBits.empty(x.capacity), x))),
    ("is_local_min", is_local_min),
    ("is_local_max", is_local_max),
    ("nested_argmin_check", lambda F, x: nested_argmin_check(F, SubsetBits.empty(x.capacity), x)),
]


def _spied(F):
    """F with its value formula and cursor factory booking each call in the returned list."""
    calls = []
    rows, factory = F.value_rows, F._cursor_factory
    F.value_rows = lambda members: (calls.append("value_rows"), rows(members))[1]
    if factory is not None:
        F._cursor_factory = lambda owner, start: (calls.append("cursor"), factory(owner, start))[1]
    return F, calls


def _counting_oracle():
    """An oracle of 3 elements whose scalar ``eval_fn`` books each call in the returned list."""
    calls = []
    return SetFunctionOracle(GroundSet(3), lambda x: (calls.append(x), float(len(x)))[1]), calls


CAPACITY_ORACLES = {
    "counting_eval_fn": _counting_oracle,
    # the three families seen to answer on another cube or to fail inside numpy
    "tabular": lambda: _spied(make_tabular(list(range(8)))),
    "com": lambda: _spied(make_com(3, 1)),
    "iwata": lambda: _spied(make_iwata(3)),
}


@pytest.mark.parametrize("capacity", [2, 4])
@pytest.mark.parametrize("oracle", sorted(CAPACITY_ORACLES))
@pytest.mark.parametrize("name,call", CAPACITY_ENTRIES, ids=[e[0] for e in CAPACITY_ENTRIES])
def test_a_set_of_another_capacity_is_refused_before_any_evaluation(name, call, oracle, capacity):
    """At n - 1 and n + 1 elements on an oracle of n = 3, each entry raises naming both
    sizes, where tabular once answered on the cube of its own n and com and iwata
    failed inside numpy; the oracle sees no call."""
    F, calls = CAPACITY_ORACLES[oracle]()
    x = SubsetBits.from_members(capacity, [1, 2])
    with pytest.raises(CapacityMismatch, match=rf"^a (set|lattice) has capacity {capacity}, but the oracle has n = 3$"):
        call(F, x)
    assert calls == []
