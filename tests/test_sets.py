import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsopt import (
    CapExceeded,
    CapacityMismatch,
    IntervalLattice,
    SubsetBits,
    enumerate_lattice,
    format_set,
    lattice_free_count,
    parse_set,
)
from qsopt.sets import GroundSet


def bits(n, *members):
    return SubsetBits.from_members(n, members)


class TestSubsetOps:
    def test_union(self):
        assert bits(2, 1).union(bits(2, 2)) == bits(2, 1, 2)

    def test_empty_is_subset_of_anything(self):
        for mask in range(8):
            assert SubsetBits.empty(3).is_subset(SubsetBits(3, mask))

    def test_difference(self):
        assert bits(3, 1, 2, 3).difference(bits(3, 2)) == bits(3, 1, 3)

    def test_add_remove_contains(self):
        x = SubsetBits.empty(4).add(2).add(4)
        assert x.contains(2) and 4 in x and 1 not in x
        assert x.remove(2) == bits(4, 4)
        assert x.remove(2).remove(2) == bits(4, 4)  # removal is idempotent

    def test_cardinality(self):
        assert bits(5, 1, 3, 5).cardinality() == 3
        assert len(SubsetBits.full(5)) == 5

    def test_capacity_mismatch(self):
        with pytest.raises(CapacityMismatch):
            bits(2, 1).union(bits(3, 1))

    def test_element_out_of_range(self):
        with pytest.raises(ValueError):
            SubsetBits.empty(3).add(4)
        with pytest.raises(ValueError):
            SubsetBits.empty(3).contains(0)

    def test_numpy_ids_past_bit_63(self):
        assert SubsetBits.from_members(100, np.array([3, 70])) == bits(100, 3, 70)
        x = SubsetBits.empty(100).add(np.int64(70))
        assert x == bits(100, 70) and x.contains(np.int64(70))
        assert x.remove(np.int64(70)) == SubsetBits.empty(100)

    def test_from_ids_is_from_members_of_an_id_array(self):
        for n, ids in ((100, [70, 3, 100, 1]), (5, []), (1, [1])):
            assert SubsetBits.from_ids(n, np.array(ids, dtype=np.int64)) == SubsetBits.from_members(n, ids)
        for bad in (0, 6, -3):
            with pytest.raises(ValueError, match=f"^element id {bad} out of range 1..5$"):
                SubsetBits.from_ids(5, np.array([2, bad, 9]))
            with pytest.raises(ValueError, match=f"^element id {bad} out of range 1..5$"):
                SubsetBits.from_members(5, [2, bad, 9])

    def test_members_are_one_based_ascending(self):
        assert bits(6, 5, 1, 3).members() == [1, 3, 5]

    def test_bool_array_roundtrip(self):
        x = bits(10, 2, 7, 10)
        assert SubsetBits.from_bool_array(x.to_bool_array()) == x


subsets = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=0, max_value=(1 << n) - 1),
        st.integers(min_value=0, max_value=(1 << n) - 1),
    )
)


@given(subsets)
def test_intersection_inside_union_outside(case):
    n, xm, ym = case
    x, y = SubsetBits(n, xm), SubsetBits(n, ym)
    assert x.intersection(y).is_subset(x)
    assert x.is_subset(x.union(y))


@given(subsets)
def test_difference_disjoint_from_subtrahend(case):
    n, xm, ym = case
    x, y = SubsetBits(n, xm), SubsetBits(n, ym)
    assert x.difference(y).intersection(y) == SubsetBits.empty(n)


class TestSetLiterals:
    @pytest.mark.parametrize(
        "text,members",
        [("{}", ()), ("{1}", (1,)), ("{1,3,7}", (1, 3, 7)), ("{ 2 , 5 }", (2, 5))],
    )
    def test_parse(self, text, members):
        assert parse_set(text, 8) == bits(8, *members)

    def test_format(self):
        assert format_set(bits(8, 1, 3, 7)) == "{1,3,7}"
        assert format_set(SubsetBits.empty(8)) == "{}"

    def test_roundtrip(self):
        for mask in range(16):
            x = SubsetBits(4, mask)
            assert parse_set(format_set(x), 4) == x

    def test_bad_literal(self):
        with pytest.raises(ValueError):
            parse_set("1,2", 4)
        with pytest.raises(ValueError):
            parse_set("{1,x}", 4)


class TestIntervalLattice:
    def test_full_lattice_contains_everything(self):
        lat = IntervalLattice(SubsetBits.empty(3), SubsetBits.full(3))
        for mask in range(8):
            assert lat.contains(SubsetBits(3, mask))

    def test_lower_bound_enforced(self):
        lat = IntervalLattice(bits(2, 1), bits(2, 1, 2))
        assert not lat.contains(bits(2, 2))
        assert lat.contains(bits(2, 1, 2))

    def test_free_count(self):
        assert lattice_free_count(IntervalLattice(SubsetBits.empty(5), SubsetBits.full(5))) == 5
        point = IntervalLattice(bits(5, 2), bits(5, 2))
        assert lattice_free_count(point) == 0
        assert lattice_free_count(IntervalLattice(bits(3, 1), bits(3, 1, 2, 3))) == 2

    def test_free_count_empty_lattice(self):
        empty = IntervalLattice(bits(2, 1), bits(2, 2))
        assert empty.is_empty()
        with pytest.raises(ValueError):
            lattice_free_count(empty)

    def test_enumerate_small(self):
        lat = IntervalLattice(SubsetBits.empty(1), SubsetBits.full(1))
        assert list(enumerate_lattice(lat)) == [SubsetBits(1, 0), SubsetBits(1, 1)]
        point = IntervalLattice(bits(3, 1), bits(3, 1))
        assert list(enumerate_lattice(point)) == [bits(3, 1)]
        quad = IntervalLattice(SubsetBits.empty(2), SubsetBits.full(2))
        assert len(list(enumerate_lattice(quad))) == 4

    def test_member_sets_free_elements_ascending(self):
        lat = IntervalLattice(bits(4, 2), bits(4, 1, 2, 4))
        assert [lat.member(i) for i in range(4)] == [
            bits(4, 2), bits(4, 1, 2), bits(4, 2, 4), bits(4, 1, 2, 4)
        ]
        point = IntervalLattice(bits(3, 1), bits(3, 1))
        assert point.member(0) == bits(3, 1)
        for index in (-1, 4):
            with pytest.raises(ValueError):
                lat.member(index)

    def test_enumerate_cap(self):
        """The cap raises at the call, before the iterator exists."""
        lat = IntervalLattice(SubsetBits.empty(6), SubsetBits.full(6))
        with pytest.raises(CapExceeded, match=r"^lattice has 6 free elements, cap is 5$"):
            enumerate_lattice(lat, cap=5)

    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=0, max_value=(1 << n) - 1),
            st.integers(min_value=0, max_value=(1 << n) - 1),
        )
    ))
    def test_enumeration_exact_and_distinct(self, case):
        n, am, bm = case
        lower = SubsetBits(n, am & bm)
        upper = SubsetBits(n, am | bm)
        lat = IntervalLattice(lower, upper)
        out = list(enumerate_lattice(lat))
        assert len(out) == 1 << lattice_free_count(lat)
        assert len({s.mask for s in out}) == len(out)
        assert all(lat.contains(s) for s in out)
        masks = [s.mask for s in out]
        assert masks == sorted(masks)
        assert out == [lat.member(i) for i in range(len(out))]


def test_ground_set():
    g = GroundSet(4)
    assert list(g.elements()) == [1, 2, 3, 4]
    assert g.full() == SubsetBits(4, 0b1111)
    with pytest.raises(ValueError):
        GroundSet(0)
