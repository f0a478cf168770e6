import pytest

from qsopt import (
    CountingOracle,
    GroundSet,
    SetFunctionOracle,
    SubsetBits,
    make_com,
    make_determinant,
    make_half_products,
    make_iwata,
    make_perturbed_facility,
    make_cobb_douglas,
    make_tabular,
    values_close,
)
from qsopt.functions import _stream

from conftest import PROP_TABLE


def test_marginal_gain_reference_table():
    F = make_tabular(PROP_TABLE)
    assert F.marginal(1, SubsetBits.empty(2)) == -1.0


def test_marginal_gain_deterministic():
    F = make_com(6, 3)
    x = SubsetBits.from_members(6, [2, 5])
    assert F.marginal(3, x) == F.marginal(3, x)


def test_marginal_gain_iwata():
    F = make_iwata(5)
    assert F.marginal(5, SubsetBits.empty(5)) == -11.0


def test_marginal_gain_requires_absent_element():
    F = make_iwata(4)
    with pytest.raises(ValueError):
        F.marginal(2, SubsetBits.from_members(4, [2]))
    with pytest.raises(ValueError):
        F.marginal(9, SubsetBits.empty(4))


def test_drop_marginal_reference_table():
    F = make_tabular(PROP_TABLE)
    assert F.drop_marginal(2, SubsetBits.full(2)) == 1.0


def test_drop_marginal_singleton_equals_gain_from_empty():
    F = make_com(5, 11)
    for i in range(1, 6):
        single = SubsetBits.from_members(5, [i])
        assert values_close(
            F.drop_marginal(i, single), F.marginal(i, SubsetBits.empty(5))
        )


def test_drop_marginal_iwata_full_set():
    # direct evaluation of both sets: F(N) - F(N - 1) = -25 - (-26)
    F = make_iwata(5)
    assert F.drop_marginal(1, SubsetBits.full(5)) == 1.0
    assert F.value(SubsetBits.full(5)) == -25.0
    assert F.value(SubsetBits.full(5).remove(1)) == -26.0


def test_drop_marginal_requires_member():
    F = make_iwata(4)
    with pytest.raises(ValueError):
        F.drop_marginal(1, SubsetBits.empty(4))


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
    rng = _stream(123, 0)
    for _ in range(20):
        target = SubsetBits.from_bool_array(rng.random(n) < 0.5)
        order = [i for i in rng.permutation(n) + 1 if target.contains(int(i))]
        x = SubsetBits.empty(n)
        total = 0.0
        for i in order:
            total += F.marginal(int(i), x)
            x = x.add(int(i))
        assert x == target
        assert values_close(total, F.value(target) - F.value(SubsetBits.empty(n)), rel=1e-9)


@pytest.mark.parametrize("name,build", FAMILY_INSTANCES, ids=[f[0] for f in FAMILY_INSTANCES])
def test_fast_marginal_matches_eval_difference(name, build):
    F = build()
    n = F.n
    rng = _stream(77, 0)
    for _ in range(1000):
        x = SubsetBits.from_bool_array(rng.random(n) < 0.5)
        i = int(rng.integers(1, n + 1))
        if x.contains(i):
            got = F.drop_marginal(i, x)
            want = F.value(x) - F.value(x.remove(i))
        else:
            got = F.marginal(i, x)
            want = F.value(x.add(i)) - F.value(x)
        assert values_close(got, want), (name, i, str(x), got, want)


@pytest.mark.parametrize("name,build", FAMILY_INSTANCES, ids=[f[0] for f in FAMILY_INSTANCES])
def test_cursor_matches_oracle(name, build):
    F = build()
    n = F.n
    rng = _stream(99, 0)
    x = SubsetBits.from_bool_array(rng.random(n) < 0.5)
    cursor = F.cursor(x)
    for _ in range(200):
        assert values_close(cursor.value(), F.value(x))
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
        assert C.cursor(SubsetBits.empty(6)).add_marginal(3) == F.marginal(3, SubsetBits.empty(6))
        assert C.cursor(SubsetBits.full(6)).drop_marginal(2) == F.drop_marginal(2, SubsetBits.full(6))
        assert C.marginal_calls == 2
        assert C.eval_calls == 2

    def test_marginal_counting_slow_path(self):
        # no cursor factory: the generic cursor's evaluations route through the counter
        D = make_determinant(6, 1)
        F = SetFunctionOracle(GroundSet(6), D.value)
        C = CountingOracle(F)
        gain = C.cursor(SubsetBits.empty(6)).add_marginal(3)
        assert values_close(gain, D.marginal(3, SubsetBits.empty(6)))
        assert C.eval_calls == 2
        assert C.marginal_calls == 0

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
