"""Shared fixtures: reference tables and small instance generators."""

from __future__ import annotations

import numpy as np
import pytest

from qsopt import SubsetBits, make_com, make_tabular
from qsopt.functions import seeded_stream

# Two-element reference tables, index order: {}, {1}, {2}, {1,2}.
# QSB but not submodular; unique min {1}, unique max {2}.
PROP_TABLE = [1.0, 0.0, 1.5, 1.0]
# Submodular with two incomparable local maxima {1} and {2}.
TWIN_PEAKS_TABLE = [1.0, 1.5, 1.5, 1.0]
# Three elements, values 7..0 by bitmask, with F({1}) = NaN: every strict sign
# test on a NaN marginal is false, so a silent run would report a "fixed point".
NAN_TABLE = [7.0, float("nan"), 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]
# Instance files with a parameter of the wrong type or value or an unknown
# parameter key, each with the field the config error must name.
MALFORMED_SPECS = {
    "facility_params_list": ({"family": "perturbed_facility", "n": 4, "params": [1, 2]}, "params"),
    "tabular_params_list": ({"family": "tabular", "n": 1, "params": [1, 2]}, "params"),
    "facility_d_string": ({"family": "perturbed_facility", "n": 4, "params": {"d": "3"}}, "params.d"),
    "tabular_values_int": ({"family": "tabular", "n": 1, "params": {"values": 5}}, "params.values"),
    "half_products_c_scale_string": (
        {"family": "half_products", "n": 4, "params": {"c_scale": "0.5"}},
        "params.c_scale",
    ),
    "com_n_float": ({"family": "com", "n": 3.7, "seed": 1.9}, "'n'"),
    "com_n_bool": ({"family": "com", "n": True}, "'n'"),
    "com_seed_float": ({"family": "com", "n": 3, "seed": 1.9}, "'seed'"),
    # numpy's SeedSequence takes no negative seed
    "seed_negative": ({"family": "com", "n": 4, "seed": -1}, "'seed'"),
    "determinant_dim_float": ({"family": "determinant", "n": 4, "params": {"dim": 2.5}}, "params.dim"),
    "determinant_dim_bool": ({"family": "determinant", "n": 4, "params": {"dim": True}}, "params.dim"),
    "determinant_length_scale_string": (
        {"family": "determinant", "n": 4, "params": {"length_scale": "0.35"}},
        "params.length_scale",
    ),
    # a key the family does not take: never silently dropped
    "facility_key_misspelt": ({"family": "perturbed_facility", "n": 4, "params": {"D": 16}}, "params.D"),
    "com_key_unknown": ({"family": "com", "n": 4, "params": {"d": 16}}, "params.d"),
    "determinant_key_unknown": ({"family": "determinant", "n": 4, "params": {"sigma": 1.0}}, "params.sigma"),
    "tabular_key_unknown": (
        {"family": "tabular", "n": 1, "params": {"values": [0.0, 1.0], "seed": 3}},
        "params.seed",
    ),
    # values no instance can be built from: a table entry that is no number, no facility
    "tabular_values_string": ({"family": "tabular", "n": 1, "params": {"values": ["a", 1]}}, "params.values"),
    "facility_d_zero": ({"family": "perturbed_facility", "n": 4, "params": {"d": 0}}, "params.d"),
}

# Experiment configs with a field of the wrong type, an unknown size key or a
# family x size cell that cannot build, each with the field the config error
# must name; the rest of the config is a small valid run.
MALFORMED_CONFIGS = {
    "size_n_float": ({"sizes": [{"n": 8.7}]}, "sizes[0].n"),
    "size_n_bool": ({"sizes": [True]}, "sizes[0].n"),
    "size_d_float": (
        {"families": ["perturbed_facility"], "sizes": [{"n": 8, "d": 2.5}]},
        "sizes[0].d",
    ),
    "size_key_misspelt": (
        {"families": ["perturbed_facility"], "sizes": [{"n": 8, "D": 48}]},
        "sizes[0].D",
    ),
    "trials_float": ({"trials": 1.5}, "'trials'"),
    "trials_bool": ({"trials": True}, "'trials'"),
    "master_seed_float": ({"master_seed": 1.5}, "'master_seed'"),
    "baseline_trials_float": ({"baseline_trials": 2.5}, "'baseline_trials'"),
    "ls_restarts_string": ({"ls_restarts": "3"}, "'ls_restarts'"),
    "enumeration_cap_float": ({"enumeration_cap": 1e6}, "'enumeration_cap'"),
    # integers out of range
    "baseline_trials_zero": ({"baseline_trials": 0}, "'baseline_trials'"),
    "ls_restarts_zero": ({"ls_restarts": 0}, "'ls_restarts'"),
    "master_seed_negative": ({"master_seed": -3}, "'master_seed'"),
    "enumeration_cap_negative": ({"enumeration_cap": -1}, "'enumeration_cap'"),
    # cells whose instance spec can never build
    "family_tabular": ({"families": ["tabular"], "sizes": [4]}, "families[0]"),
    "size_d_zero": ({"families": ["perturbed_facility"], "sizes": [{"n": 8, "d": 0}]}, "sizes[0]"),
}


def malformed_config(case: str) -> tuple[dict, str]:
    """The config of ``MALFORMED_CONFIGS[case]`` in full, and the field it must name."""
    override, field = MALFORMED_CONFIGS[case]
    base = {"experiment": "reduction", "families": ["com"], "sizes": [8], "trials": 1}
    return {**base, **override}, field


@pytest.fixture
def prop_oracle():
    return make_tabular(PROP_TABLE)


@pytest.fixture
def twin_peaks_oracle():
    return make_tabular(TWIN_PEAKS_TABLE)


def random_spaced_values(n: int, rng: np.random.Generator, gap: float = 1e-6) -> np.ndarray:
    """Arbitrary subset values with every pair at least ``gap`` apart."""
    size = 1 << n
    while True:
        values = rng.uniform(0.0, 100.0, size)
        ordered = np.sort(values)
        if np.min(np.diff(ordered)) >= gap:
            return values


def nonneg_submodular_oracle(n: int, seed: int):
    """Random nonnegative submodular instance: coverage or concave-over-modular."""
    if seed % 2:
        return make_com(n, seed)
    rng = seeded_stream(seed, 0)
    m = 2 * n
    covers = rng.random((n, m)) < 0.35
    weights = rng.uniform(0.0, 1.0, m)
    table = np.empty(1 << n)
    for mask in range(1 << n):
        sel = SubsetBits(n, mask).to_bool_array()
        covered = covers[sel].any(axis=0) if sel.any() else np.zeros(m, dtype=bool)
        table[mask] = float(weights @ covered)
    return make_tabular(table)
