import json
import math

import numpy as np
import pytest

from qsopt import (
    ConfigError,
    FunctionSpec,
    InternalInvariantError,
    SubsetBits,
    cobb_log_factors,
    cobb_value,
    com_value,
    facility_value,
    half_products_value,
    instantiate,
    is_quasi_submodular,
    iwata_value,
    load_spec,
    make_cobb_douglas,
    make_com,
    make_determinant,
    make_half_products,
    make_iwata,
    make_perturbed_facility,
    make_random_qsb,
    make_tabular,
    principal_determinant,
    satisfies_ssbc,
    save_spec,
    tabular_spec,
    values_close,
)
from qsopt import functions
from qsopt.functions import seeded_stream

from conftest import MALFORMED_SPECS, PROP_TABLE, TWIN_PEAKS_TABLE


def members(n, *ids):
    return SubsetBits.from_members(n, ids).to_bool_array()


class TestIwata:
    def test_empty(self):
        assert make_iwata(5).value(SubsetBits.empty(5)) == 0.0

    def test_singleton(self):
        # 1*4 - (25 - 10)
        assert make_iwata(5).value(SubsetBits.from_members(5, [5])) == -11.0

    def test_full(self):
        assert make_iwata(5).value(SubsetBits.full(5)) == -25.0

    def test_pure_function_agrees(self):
        F = make_iwata(9)
        for mask in range(0, 512, 7):
            x = SubsetBits(9, mask)
            assert F.value(x) == iwata_value(F.params["weights"], x.to_bool_array())


class TestCom:
    def test_empty_is_total_complement_weight(self):
        F = make_com(8, 3)
        assert values_close(F.value(SubsetBits.empty(8)), float(F.params["w2"].sum()))

    def test_full_is_sqrt_of_total(self):
        F = make_com(8, 3)
        assert values_close(F.value(SubsetBits.full(8)), math.sqrt(float(F.params["w1"].sum())))

    def test_hand_value(self):
        assert com_value(np.array([0.25]), np.array([0.3]), np.array([True])) == 0.5

    def test_oracle_matches_pure_function(self):
        F = make_com(7, 9)
        for mask in range(128):
            x = SubsetBits(7, mask)
            assert values_close(F.value(x), com_value(F.params["w1"], F.params["w2"], x.to_bool_array()))


class TestHalfProducts:
    def test_empty(self):
        assert make_half_products(6, 1).value(SubsetBits.empty(6)) == 0.0

    def test_hand_values(self):
        ones = np.ones(2)
        assert half_products_value(ones, ones, np.zeros(2), np.array([True, True])) == -3.0
        got = half_products_value(np.array([0.5]), np.array([0.4]), np.array([0.1]), np.array([True]))
        assert values_close(got, -0.1)

    def test_matches_pairwise_brute_force(self):
        F = make_half_products(8, 3)
        a, b, c = F.params["a"], F.params["b"], F.params["c"]
        for mask in range(256):
            ids = [i for i in range(8) if (mask >> i) & 1]
            brute = sum(c[i] for i in ids) - sum(
                a[i] * b[j] for i in ids for j in ids if i <= j
            )
            assert values_close(F.value(SubsetBits(8, mask)), brute)


class TestPerturbedFacility:
    def test_empty(self):
        assert make_perturbed_facility(4, 7, 1).value(SubsetBits.empty(4)) == 0.0

    def test_column_max(self):
        mat = np.array([[0.5], [0.9]])
        sigma = np.zeros(2)
        assert facility_value(mat, sigma, np.array([True, True])) == 0.9
        assert facility_value(mat, sigma, np.array([True, False])) == 0.5

    def test_oracle_matches_pure_function(self):
        F = make_perturbed_facility(6, 11, 4)
        for mask in range(64):
            x = SubsetBits(6, mask)
            want = facility_value(F.params["M"], F.params["sigma"], x.to_bool_array())
            assert values_close(F.value(x), want)


class TestDeterminant:
    def test_empty(self):
        assert make_determinant(5, 1).value(SubsetBits.empty(5)) == 1.0

    def test_singleton_is_diagonal(self):
        F = make_determinant(5, 1)
        for i in range(1, 6):
            got = F.value(SubsetBits.from_members(5, [i]))
            assert values_close(got, float(F.params["kernel"][i - 1, i - 1]))

    def test_two_by_two(self):
        kernel = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert values_close(principal_determinant(kernel, np.array([True, True])), 3.0)

    def test_full_matches_dense_determinant(self):
        F = make_determinant(12, 5)
        got = F.value(SubsetBits.full(12))
        want = float(np.linalg.det(F.params["kernel"]))
        assert values_close(got, want, rel=1e-6)

    @pytest.mark.parametrize("n,dim", [(1, 8), (37, 3), (64, 8), (200, 8), (150, 13)])
    def test_blocked_kernel_equals_one_shot_kernel(self, n, dim, monkeypatch):
        """Row blocks of the distance matrix give the kernel of one n x n x dim difference.

        37 rows fit in one block of 64, 64 fill it, 150 and 200 end on a partial block.
        """
        monkeypatch.setitem(functions._KERNEL_PARAMS, "dim", dim)
        blocked = make_determinant(n, 7).params["kernel"]
        monkeypatch.setattr(functions, "_KERNEL_BLOCK", n)  # one block: the one-shot formula
        one_shot = make_determinant(n, 7).params["kernel"]
        assert np.array_equal(blocked, one_shot)


class TestCobbDouglas:
    def test_empty(self):
        assert make_cobb_douglas(6, 2).value(SubsetBits.empty(6)) == 1.0

    def test_hand_values(self):
        assert cobb_value(cobb_log_factors(np.array([2.0]), np.array([1.0])), np.array([True])) == 2.0
        delta = cobb_log_factors(np.array([2.0, 0.5]), np.array([1.0, 1.0]))
        got = cobb_value(delta, np.array([True, True]))
        assert values_close(got, 1.0)

    def test_zero_weight_with_positive_exponent(self):
        got = cobb_value(cobb_log_factors(np.array([0.0, 2.0]), np.array([0.5, 1.0])), np.array([True, True]))
        assert got == 0.0
        neutral = cobb_value(cobb_log_factors(np.array([0.0]), np.array([0.0])), np.array([True]))
        assert neutral == 1.0

    def test_overflow_is_invariant_error(self):
        F = make_cobb_douglas(7000, 1)
        gainers = cobb_log_factors(F.params["w"], F.params["alpha"]) > 0.0
        x = SubsetBits.from_bool_array(gainers)
        size = f"set of {int(gainers.sum())} members"
        with pytest.raises(InternalInvariantError, match=size):
            F.value(x)
        cursor = F.cursor(x)
        with pytest.raises(InternalInvariantError, match="log F"):
            cursor.drop_marginals(np.array([1, 2, 3]))
        with pytest.raises(InternalInvariantError, match="log F"):
            cursor.add_marginal(1)

    def test_oracle_matches_pure_function(self):
        F = make_cobb_douglas(7, 8)
        delta = cobb_log_factors(F.params["w"], F.params["alpha"])
        for mask in range(128):
            x = SubsetBits(7, mask)
            assert values_close(F.value(x), cobb_value(delta, x.to_bool_array()))


class TestTabular:
    def test_reference_values(self):
        F = make_tabular(PROP_TABLE)
        assert F.value(SubsetBits.from_members(2, [2])) == 1.5
        G = make_tabular(TWIN_PEAKS_TABLE)
        assert G.value(SubsetBits.full(2)) == 1.0

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            make_tabular([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            make_tabular(np.zeros(1 << 21))


class TestSpecPersistence:
    @pytest.mark.parametrize(
        "spec",
        [
            FunctionSpec("iwata", 20),
            FunctionSpec("com", 15, 42),
            FunctionSpec("half_products", 10, 7),
            FunctionSpec("perturbed_facility", 8, 3, {"d": 16}),
            FunctionSpec("determinant", 12, 9),
            FunctionSpec("cobb_douglas", 14, 5),
            FunctionSpec("tabular", 2, 0, {"values": PROP_TABLE}),
        ],
        ids=lambda s: s.family,
    )
    def test_roundtrip_reproduces_parameters(self, spec, tmp_path):
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        loaded = load_spec(path)
        assert (loaded.family, loaded.n, loaded.seed) == (spec.family, spec.n, spec.seed)
        first = instantiate(spec)
        second = instantiate(loaded)
        for key, value in first.params.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, second.params[key]), key
            else:
                assert value == second.params[key], key
        probe = SubsetBits.from_members(spec.n, [1, spec.n])
        assert first.value(probe) == second.value(probe)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_spec(path)

    def test_unsupported_family(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"family": "mystery", "n": 4, "seed": 0}))
        with pytest.raises(ConfigError):
            load_spec(path)

    def test_tabular_over_cap(self):
        with pytest.raises(ConfigError):
            FunctionSpec("tabular", 21, 0, {"values": [0.0] * (1 << 21)})

    def test_tabular_values_preserved_exactly(self, tmp_path):
        values = list(np.random.default_rng(1).uniform(-1, 1, 8))
        path = tmp_path / "t.json"
        save_spec(tabular_spec(values), path)
        loaded = instantiate(load_spec(path))
        assert np.array_equal(loaded.params["values"], np.array(values))


    def test_numpy_scalars_saved_as_numbers(self, tmp_path):
        spec = FunctionSpec("perturbed_facility", np.int64(8), np.int64(3), {"d": np.int64(16)})
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == FunctionSpec("perturbed_facility", 8, 3, {"d": 16})

    def test_non_finite_values_round_trip(self, tmp_path):
        values = [7.0, math.nan, 5.0, math.inf, -math.inf, 2.0, 1.0, 0.0]
        path = tmp_path / "t.json"
        save_spec(tabular_spec(values), path)
        text = path.read_text()
        assert "NaN" in text and "-Infinity" in text
        loaded = load_spec(path).params["values"]
        assert math.isnan(loaded[1])
        assert loaded[:1] + loaded[2:] == values[:1] + values[2:]

    @pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
    def test_malformed_params_are_config_errors(self, case, tmp_path):
        payload, field = MALFORMED_SPECS[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=field):
            instantiate(load_spec(path))
        with pytest.raises(ConfigError, match=field):
            FunctionSpec(**payload)


class TestRandomQsb:
    def test_transform_preserves_value_order(self):
        base = make_com(6, 5)
        base_table = np.array([base.value(SubsetBits(6, m)) for m in range(64)])
        from qsopt.functions import _increasing_transform

        transformed = _increasing_transform(base_table, seeded_stream(3, 0))
        assert np.array_equal(np.argsort(base_table), np.argsort(transformed))

    def test_submodular_base_is_quasi_submodular(self):
        G = make_tabular(TWIN_PEAKS_TABLE)
        assert is_quasi_submodular(G, 2).holds

    def test_seeded_draws_verify(self):
        for seed in range(10):
            n = 2 + seed % 5
            F = make_random_qsb(n, seed)
            assert is_quasi_submodular(F, n).holds

    def test_reproducible(self):
        a = make_random_qsb(6, 123)
        b = make_random_qsb(6, 123)
        assert np.array_equal(a.params["values"], b.params["values"])


@pytest.mark.parametrize(
    "family,build",
    [
        ("iwata", lambda s: make_iwata(10)),
        ("com", lambda s: make_com(10, s)),
        ("half_products", lambda s: make_half_products(10, s)),
        ("perturbed_facility", lambda s: make_perturbed_facility(10, 40, s)),
        ("determinant", lambda s: make_determinant(10, s)),
        ("cobb_douglas", lambda s: make_cobb_douglas(10, s)),
    ],
    ids=["iwata", "com", "half_products", "perturbed_facility", "determinant", "cobb_douglas"],
)
def test_every_family_single_sub_crossing(family, build):
    for seed in range(20):
        oracle = build(seed)
        verdict = satisfies_ssbc(oracle, 10)
        assert verdict.holds, (family, seed, verdict.witness and verdict.witness.describe())
