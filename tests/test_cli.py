import csv
import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

import qsopt.cli as cli_module
from qsopt import FunctionSpec, SetFunctionOracle, instantiate, is_local_min, save_spec, tabular_spec, uqsfmin

from conftest import (
    MALFORMED_CONFIGS,
    MALFORMED_SPECS,
    NAN_TABLE,
    PROP_TABLE,
    TWIN_PEAKS_TABLE,
    malformed_config,
)

# table that is not quasi-submodular and trips the reduction guard
CYCLING_TABLE = [
    0.5436249914654229, 0.9350724237877682, 0.8158535541215322,
    0.002738500170148095, 0.8574042765875693, 0.033585575305464355,
    0.7296554464299441, 0.17565562060255901,
]


def qsopt(*args):
    return subprocess.run(
        [sys.executable, "-m", "qsopt", *args], capture_output=True, text=True
    )


@pytest.fixture
def prop_spec(tmp_path):
    path = tmp_path / "prop.json"
    save_spec(tabular_spec(PROP_TABLE), path)
    return str(path)


@pytest.fixture
def com_spec(tmp_path):
    path = tmp_path / "com.json"
    save_spec(FunctionSpec("com", 10, 7), path)
    return str(path)


@pytest.fixture
def evaluations(monkeypatch):
    """Every set the CLI's instances evaluate, in order."""
    seen = []

    def counting_instantiate(spec):
        F = instantiate(spec)
        return SetFunctionOracle(F.ground, lambda x: seen.append(x) or F.value(x))

    monkeypatch.setattr(cli_module, "instantiate", counting_instantiate)
    return seen


class TestCheck:
    def test_verdicts_and_witness(self, prop_spec):
        proc = qsopt("check", "--spec", prop_spec)
        assert proc.returncode == 0
        out = proc.stdout
        assert "submodular: holds=false" in out
        assert "qsb: holds=true" in out
        assert "X={1}" in out and "Y={2}" in out

    def test_single_property(self, prop_spec):
        proc = qsopt("check", "--spec", prop_spec, "--property", "ssbc")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ssbc: holds=true"

    def test_all_properties_evaluate_the_table_once(self, tmp_path, evaluations):
        """A spec without a dense table costs 2^n evaluations for one check or all four."""
        path = tmp_path / "det.json"
        save_spec(FunctionSpec("determinant", 8, 5), path)
        runner = CliRunner()
        every = runner.invoke(cli_module.cli, ["check", "--spec", str(path)])
        assert every.exit_code == 0, every.output
        assert len(evaluations) == 1 << 8
        single = []
        for prop in ("submodular", "qsb", "ssbc", "weak"):
            evaluations.clear()
            single.append(runner.invoke(cli_module.cli, ["check", "--spec", str(path), "--property", prop]))
            assert len(evaluations) == 1 << 8, prop
        assert [r.exit_code for r in single] == [0, 0, 0, 0]
        assert every.output == "".join(r.output for r in single)

    def test_nan_value_exit_code(self, tmp_path):
        path = tmp_path / "nan.json"
        save_spec(tabular_spec(NAN_TABLE), path)
        for prop in ("all", "qsb"):
            proc = qsopt("check", "--spec", str(path), "--property", prop)
            assert proc.returncode == 3
            assert "value of {1} is NaN" in proc.stderr
            assert "holds" not in proc.stdout

    def test_a_property_over_its_cap_prints_no_verdict(self, tmp_path, capsys, evaluations):
        """Every selected cap is checked before any evaluation, so n = 13-14, where only
        quasi-submodularity (cap 12) is over its cap, evaluates no set either."""
        for n, error in [
            (13, "is_quasi_submodular needs n <= 12, got 13"),
            (14, "is_quasi_submodular needs n <= 12, got 14"),
            (15, "is_submodular needs n <= 14, got 15"),
        ]:
            path = tmp_path / f"com{n}.json"
            save_spec(FunctionSpec("com", n, 1), path)
            assert cli_module.main(["check", "--spec", str(path), "--property", "all"]) == 2
            out, err = capsys.readouterr()
            assert (len(evaluations), out, err) == (0, "", f"error: {error}\n")

    def test_cap_exceeded_is_config_error(self, tmp_path):
        path = tmp_path / "big.json"
        save_spec(FunctionSpec("com", 40, 1), path)
        proc = qsopt("check", "--spec", str(path), "--property", "qsb")
        assert proc.returncode == 2

    def test_infinite_values_print_verdicts_and_no_warning(self, tmp_path):
        """inf - inf gains are NaN by rule: the run judges them and numpy says nothing."""
        path = tmp_path / "inf.json"
        save_spec(tabular_spec([float("inf"), float("inf"), 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]), path)
        proc = qsopt("check", "--spec", str(path), "--property", "all")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.count("holds=false") == 4


class TestMin:
    def test_result_and_trace(self, prop_spec, tmp_path):
        trace = tmp_path / "trace.csv"
        proc = qsopt("min", "--spec", prop_spec, "--start", "full", "--trace", str(trace))
        assert proc.returncode == 0
        assert "result={1}" in proc.stdout
        rows = list(csv.reader(open(trace)))
        assert rows[0] == ["t", "added", "removed", "value", "eval_calls"]
        assert rows[1][2] == "{2}"  # first pass drops element 2

    def test_start_literal(self, prop_spec):
        proc = qsopt("min", "--spec", prop_spec, "--start", "{1}")
        assert proc.returncode == 0
        assert "iterations=1" in proc.stdout

    def test_bad_start_literal(self, prop_spec):
        proc = qsopt("min", "--spec", prop_spec, "--start", "nope")
        assert proc.returncode == 2

    def test_lines_and_quiet(self, prop_spec, capsys, monkeypatch):
        assert cli_module.main(["min", "--spec", prop_spec]) == 0
        assert capsys.readouterr().out == (
            "start={} result={1}\nvalue=0.0 iterations=2 eval_calls=7 local_min=True\n"
        )
        monkeypatch.setattr(cli_module, "is_local_min", None)  # called, it would raise
        assert cli_module.main(["--quiet", "min", "--spec", prop_spec]) == 0
        assert capsys.readouterr() == ("", "")

    def test_value_line_evaluates_nothing(self, prop_spec, capsys, monkeypatch, evaluations):
        """F(result) comes from the trace: the local-min check makes the first evaluation after the reduction."""
        marks = {}

        def reduce(oracle, x0):
            out = uqsfmin(oracle, x0)
            marks["reduced"] = len(evaluations)
            return out

        def local_min(oracle, x):
            marks["check"] = len(evaluations)
            return is_local_min(oracle, x)

        monkeypatch.setattr(cli_module, "uqsfmin", reduce)
        monkeypatch.setattr(cli_module, "is_local_min", local_min)
        assert cli_module.main(["min", "--spec", prop_spec]) == 0
        assert "value=0.0 " in capsys.readouterr().out
        assert marks["check"] == marks["reduced"] > 0


class TestMax:
    def test_final_line_reports_lattice(self, prop_spec, tmp_path):
        trace = tmp_path / "trace.csv"
        proc = qsopt("max", "--spec", prop_spec, "--trace", str(trace))
        assert proc.returncode == 0
        last = proc.stdout.strip().splitlines()[-1]
        assert last.startswith("X+={2} Y+={2} free=0 reduction_rate=1.0")
        rows = list(csv.reader(open(trace)))
        assert rows[0] == ["t", "added", "removed", "fx", "fy", "eval_calls"]

    def test_lines_and_quiet(self, prop_spec, capsys, monkeypatch):
        last = "X+={2} Y+={2} free=0 reduction_rate=1.0\n"
        assert cli_module.main(["max", "--spec", prop_spec]) == 0
        assert capsys.readouterr().out == (
            "lower_local_max=True upper_local_max=True iterations=2 eval_calls=10\n" + last
        )
        monkeypatch.setattr(cli_module, "is_local_max", None)  # called, it would raise
        assert cli_module.main(["--quiet", "max", "--spec", prop_spec]) == 0
        assert capsys.readouterr() == (last, "")

    def test_stuck_interval(self, tmp_path):
        path = tmp_path / "twin.json"
        save_spec(tabular_spec(TWIN_PEAKS_TABLE), path)
        proc = qsopt("max", "--spec", str(path))
        assert "X+={} Y+={1,2} free=2 reduction_rate=0.0" in proc.stdout
        # neither endpoint of the stuck interval is a local maximum here
        assert "lower_local_max=False upper_local_max=False" in proc.stdout

    def test_cobb_douglas_overflow_exit_code(self, tmp_path):
        path = tmp_path / "cobb.json"
        path.write_text(json.dumps({"family": "cobb_douglas", "n": 7000, "seed": 1}))
        proc = qsopt("max", "--spec", str(path))
        assert proc.returncode == 3
        assert "cobb_douglas value overflows" in proc.stderr


class TestBaseline:
    @pytest.mark.parametrize("alg", ["rp", "rls", "rg", "dg"])
    def test_algorithms_run(self, alg, prop_spec):
        proc = qsopt("baseline", "--alg", alg, "--spec", prop_spec, "--trials", "3", "--seed", "1")
        assert proc.returncode == 0
        assert "set={2} value=1.5" in proc.stdout

    def test_nan_marginal_exit_code(self, tmp_path):
        path = tmp_path / "nan.json"
        save_spec(tabular_spec(NAN_TABLE), path)
        proc = qsopt("baseline", "--alg", "dg", "--spec", str(path))
        assert proc.returncode == 3
        assert "marginal of element 1 is NaN (add at {})" in proc.stderr

    @pytest.mark.parametrize(
        "alg,option,value",
        [("dg", "--seed", "-1"), ("rp", "--seed", "-1"), ("rp", "--trials", "0"), ("rls", "--trials", "0")],
    )
    def test_out_of_range_option_is_usage_error(self, com_spec, alg, option, value):
        proc = qsopt("baseline", "--alg", alg, "--spec", com_spec, option, value)
        assert proc.returncode == 2
        assert f"Invalid value for '{option}'" in proc.stderr

    def test_prefilter(self, com_spec):
        proc = qsopt("baseline", "--alg", "rp", "--spec", com_spec, "--trials", "3", "--seed", "1", "--prefilter")
        assert proc.returncode == 0
        assert "reduction_rate=" in proc.stdout


class TestExact:
    def test_direction_max(self, prop_spec):
        proc = qsopt("exact", "--spec", prop_spec, "--direction", "max")
        assert proc.returncode == 0
        assert "value=1.5 optimizers={2}" in proc.stdout

    def test_within_reduced_lattice(self, com_spec):
        proc = qsopt("exact", "--spec", com_spec, "--direction", "max", "--within-from", "max-lattice")
        assert proc.returncode == 0

    def test_invariant_failure_exit_code(self, tmp_path):
        path = tmp_path / "cycling.json"
        save_spec(tabular_spec(CYCLING_TABLE), path)
        proc = qsopt("exact", "--spec", str(path), "--direction", "min", "--within-from", "min-lattice")
        assert proc.returncode == 3
        assert "invariant" in proc.stderr

    def test_nan_marginal_exit_code(self, tmp_path):
        # json.dumps writes NaN as a literal that the spec loader reads back
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"family": "tabular", "n": 3, "params": {"values": NAN_TABLE}}))
        proc = qsopt("min", "--spec", str(path))
        assert proc.returncode == 3
        assert "marginal of element 1 is NaN (add at {})" in proc.stderr

    def test_negative_cap_is_usage_error(self, com_spec):
        proc = qsopt("exact", "--spec", com_spec, "--direction", "max", "--cap", "-1")
        assert proc.returncode == 2
        assert "Invalid value for '--cap'" in proc.stderr

    def test_nan_value_exit_code(self, tmp_path):
        path = tmp_path / "nan.json"
        save_spec(tabular_spec(NAN_TABLE), path)
        proc = qsopt("exact", "--spec", str(path), "--direction", "max")
        assert proc.returncode == 3
        assert "value of {1} is NaN" in proc.stderr
        assert "optimizers" not in proc.stdout


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_malformed_spec_is_config_error(case, tmp_path):
    payload, field = MALFORMED_SPECS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    proc = qsopt("max", "--spec", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and field in proc.stderr


class TestBench:
    def test_end_to_end_and_determinism(self, tmp_path):
        cfg = {
            "experiment": "ratio",
            "families": ["com"],
            "sizes": [10],
            "trials": 2,
            "master_seed": 4,
            "algorithms": ["rp", "urp"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        a = qsopt("bench", "--config", str(cfg_path), "--out", str(tmp_path / "a"))
        b = qsopt("--quiet", "bench", "--config", str(cfg_path), "--out", str(tmp_path / "b"))
        assert a.returncode == 0 and b.returncode == 0
        assert b.stdout == ""

        def masked(path):
            rows = list(csv.reader(open(path)))
            for row in rows[1:]:
                row[-1] = ""
            return rows

        assert masked(tmp_path / "a" / "runs.csv") == masked(tmp_path / "b" / "runs.csv")

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "nope", "families": ["com"], "sizes": [4]}))
        proc = qsopt("bench", "--config", str(cfg_path), "--out", str(tmp_path / "x"))
        assert proc.returncode == 2

    def test_json_format_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"experiment": "reduction", "families": ["com"], "sizes": [8], "trials": 1})
        )
        proc = qsopt("--format", "json", "bench", "--config", str(cfg_path), "--out", str(tmp_path / "j"))
        assert proc.returncode == 0
        assert (tmp_path / "j" / "runs.json").exists()
        # the flag overrides the config's format either way
        cfg_path.write_text(
            json.dumps(
                {"experiment": "reduction", "families": ["com"], "sizes": [8], "trials": 1, "format": "json"}
            )
        )
        proc = qsopt("--format", "csv", "bench", "--config", str(cfg_path), "--out", str(tmp_path / "c"))
        assert proc.returncode == 0
        assert (tmp_path / "c" / "runs.csv").exists()
        assert not (tmp_path / "c" / "runs.json").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_is_config_error(self, case, tmp_path):
        payload, field = malformed_config(case)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        proc = qsopt("bench", "--config", str(cfg_path), "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and field in proc.stderr

    def test_out_under_a_file_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "reduction", "families": ["com"], "sizes": [6], "trials": 1}))
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        proc = qsopt("bench", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and str(out) in proc.stderr


@pytest.mark.parametrize("command", ["min", "max"])
def test_unwritable_trace_is_config_error(command, com_spec, tmp_path):
    trace = tmp_path / "missing" / "t.csv"
    proc = qsopt(command, "--spec", com_spec, "--trace", str(trace))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and str(trace) in proc.stderr


@pytest.mark.parametrize("command,reduction", [("min", "uqsfmin"), ("max", "uqsfmax")])
def test_unwritable_trace_fails_before_the_reduction(command, reduction, com_spec, tmp_path, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError(f"{reduction} ran before --trace was opened")

    monkeypatch.setattr(cli_module, reduction, unreachable)
    trace = tmp_path / "missing" / "t.csv"
    assert cli_module.main([command, "--spec", com_spec, "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(trace) in err


def test_seed_override(tmp_path):
    path = tmp_path / "com.json"
    save_spec(FunctionSpec("com", 8, 1), path)
    base = qsopt("exact", "--spec", str(path), "--direction", "max")
    other = qsopt("--seed", "2", "exact", "--spec", str(path), "--direction", "max")
    assert base.returncode == other.returncode == 0
    assert base.stdout != other.stdout


def test_negative_seed_override_is_config_error(com_spec):
    proc = qsopt("--seed", "-5", "max", "--spec", com_spec)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "'seed' must be >= 0, got -5" in proc.stderr
