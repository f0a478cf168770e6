import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from qsopt import (
    ConfigError,
    ExperimentConfig,
    FunctionSpec,
    SetFunctionOracle,
    SubsetBits,
    instantiate,
    min_lattice,
    reduction_rate,
    run_ratio_experiment,
    run_reduction_experiment,
    run_timing_experiment,
    uqsfmax,
)
from qsopt import harness
from qsopt.harness import RUN_CSV_HEADER, run_experiment
from qsopt.sets import IntervalLattice

from conftest import MALFORMED_CONFIGS, malformed_config

README = Path(__file__).resolve().parent.parent / "README.md"


def assert_uqsfmax_row_of(row, spec):
    """``row`` is the ``uqsfmax`` row of the instance ``spec`` builds."""
    F = instantiate(spec)
    lattice, trace = uqsfmax(F)
    assert (row.algorithm, row.seed) == ("uqsfmax", spec.seed)
    assert row.value == max(F.value(lattice.lower), F.value(lattice.upper))
    assert row.eval_calls == trace.total_calls


class TestReductionRate:
    def test_point_lattice(self):
        point = IntervalLattice(SubsetBits.from_members(4, [2]), SubsetBits.from_members(4, [2]))
        assert reduction_rate(point, 4) == 1.0

    def test_full_lattice(self):
        full = IntervalLattice(SubsetBits.empty(4), SubsetBits.full(4))
        assert reduction_rate(full, 4) == 0.0

    def test_partial(self):
        lat = IntervalLattice(SubsetBits.from_members(4, [1]), SubsetBits.from_members(4, [1, 2, 3]))
        assert reduction_rate(lat, 4) == 0.5


class TestConfig:
    def test_normalizes_int_sizes(self):
        cfg = ExperimentConfig("reduction", ["iwata"], [10, 20])
        assert cfg.sizes == [{"n": 10}, {"n": 20}]

    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("reduction", ["mystery"], [10])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("speedrun", ["iwata"], [10])

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("reduction", ["iwata"], [10], trials=0)

    def test_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "reduction", "families": ["iwata"], "sizes": [8], "bogus": 1}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "experiment": "ratio",
                    "families": ["com"],
                    "sizes": [10],
                    "trials": 2,
                    "master_seed": 5,
                    "algorithms": ["rp", "urp"],
                }
            )
        )
        cfg = ExperimentConfig.from_file(path)
        assert cfg.experiment == "ratio" and cfg.trials == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_rejects_non_integer_fields(self, case, tmp_path):
        payload, field = malformed_config(case)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=re.escape(field)):
            ExperimentConfig.from_file(path)


class TestCellSpecs:
    def test_facility_without_d_builds_the_spec_default(self):
        cfg = ExperimentConfig("reduction", ["perturbed_facility"], [10], trials=1, master_seed=4)
        row = run_reduction_experiment(cfg).rows[1]
        assert_uqsfmax_row_of(row, FunctionSpec("perturbed_facility", 10, row.seed))

    def test_readme_bench_example_builds_every_cell(self, tmp_path):
        text = README.read_text()
        section = text[text.index("`qsopt bench` runs one of three experiments"):]
        path = tmp_path / "cfg.json"
        path.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        cfg = ExperimentConfig.from_file(path)
        report = run_experiment(replace(cfg, experiment="reduction", trials=1))
        assert not report.failures
        cells = {(row.family, row.n) for row in report.rows}
        assert cells == {(family, size["n"]) for family in cfg.families for size in cfg.sizes}
        for row in report.rows:
            if row.family == "perturbed_facility" and row.algorithm == "uqsfmax":
                assert_uqsfmax_row_of(row, FunctionSpec(row.family, row.n, row.seed, {"d": 400}))

    def test_readme_python_examples_run(self, capsys):
        """Every python block of the README runs, and the second prints what its comments say."""
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        assert len(blocks) >= 2
        printed = []
        for block in blocks:
            exec(block, {})
            printed.append(capsys.readouterr().out.splitlines())
        commented = [line.split("# ", 1)[1] for line in blocks[1].splitlines() if line.startswith("print(")]
        assert printed[1] == commented


class TestReductionExperiment:
    def test_rows_and_rates(self):
        cfg = ExperimentConfig("reduction", ["com", "cobb_douglas"], [30], trials=2, master_seed=11)
        report = run_reduction_experiment(cfg)
        assert len(report.rows) == 2 * 2 * 2  # families x trials x directions
        for row in report.rows:
            assert 0.0 <= row.reduction_rate <= 1.0
            assert row.iterations >= 1
            assert row.eval_calls > 0
            assert row.wall_ms >= 0.0
        assert not report.failures

    def test_rows_sum_their_reductions_traces(self):
        """uqsfmin sums min_lattice's two traces and uqsfmax has one; value is the better endpoint."""
        cfg = ExperimentConfig("reduction", ["com", "half_products"], [12], trials=2, master_seed=5)
        rows = run_reduction_experiment(cfg).rows
        assert [r.algorithm for r in rows] == ["uqsfmin", "uqsfmax"] * 4
        for row_min, row_max in zip(rows[::2], rows[1::2]):
            F = instantiate(FunctionSpec(row_min.family, row_min.n, row_min.seed))
            lattice, (up, down) = min_lattice(F)
            assert row_min.value == min(F.value(lattice.lower), F.value(lattice.upper))
            assert row_min.iterations == up.iterations + down.iterations
            assert row_min.eval_calls == up.total_calls + down.total_calls
            assert row_max.iterations == uqsfmax(F)[1].iterations
            assert_uqsfmax_row_of(row_max, FunctionSpec(row_max.family, row_max.n, row_max.seed))

    def test_nothing_is_evaluated_after_a_reduction_returns(self, monkeypatch):
        """Each row's value comes from its reduction's traces, not from F at the endpoints again."""
        seen = []

        def counted_instance(spec):
            F = instantiate(spec)
            return SetFunctionOracle(
                F.ground,
                lambda x: seen.append(x) or F.value(x),
                cursor_factory=lambda _owner, start: F.cursor(start),
            )

        spans = []  # the evaluation count when each reduction is called and when it returns

        def counted(reduce):
            def run(oracle):
                start = len(seen)
                out = reduce(oracle)
                spans.append((start, len(seen)))
                return out

            return run

        monkeypatch.setattr(harness, "instantiate", counted_instance)
        monkeypatch.setattr(harness, "min_lattice", counted(min_lattice))
        monkeypatch.setattr(harness, "uqsfmax", counted(uqsfmax))
        cfg = ExperimentConfig("reduction", ["com", "half_products"], [12], trials=2, master_seed=5)
        report = run_reduction_experiment(cfg)
        assert len(report.rows) == len(spans) == 8 and not report.failures
        # every evaluation falls inside a reduction: each starts where the last returned
        assert [start for start, _ in spans] == [0] + [end for _, end in spans[:-1]]
        assert spans[-1][1] == len(seen)
        expected = run_reduction_experiment(cfg)  # unpatched: the same rows, wall time aside
        assert [replace(r, wall_ms=0.0) for r in report.rows] == [replace(r, wall_ms=0.0) for r in expected.rows]

    def test_csv_header_pinned(self):
        cfg = ExperimentConfig("reduction", ["com"], [8], trials=1, master_seed=1)
        text = run_reduction_experiment(cfg).runs_csv()
        assert text.splitlines()[0] == RUN_CSV_HEADER
        assert RUN_CSV_HEADER == (
            "family,n,seed,algorithm,direction,value,exact_value,ratio,"
            "reduction_rate,iterations,eval_calls,wall_ms"
        )


class TestRatioExperiment:
    def test_ratios_bounded_by_one(self):
        cfg = ExperimentConfig(
            "ratio", ["com", "half_products"], [10], trials=3, master_seed=7,
            algorithms=["rp", "urp", "rg", "urg"],
        )
        report = run_ratio_experiment(cfg)
        assert report.rows
        for row in report.rows:
            if row.ratio is not None:
                assert row.ratio <= 1.0 + 1e-12
                assert row.exact_value > 0.0

    def test_paired_seeds_reduced_variant_from_same_stream(self):
        cfg = ExperimentConfig("ratio", ["com"], [10], trials=2, master_seed=3, algorithms=["rp", "urp"])
        report = run_ratio_experiment(cfg)
        by_alg = {}
        for row in report.rows:
            by_alg.setdefault(row.algorithm, []).append(row)
        assert len(by_alg["rp"]) == len(by_alg["urp"]) == 2
        for plain, reduced in zip(by_alg["rp"], by_alg["urp"]):
            assert plain.seed == reduced.seed

    def test_nonpositive_exact_flags_row(self):
        # the negated half-products of a tiny instance can have max 0 at the
        # empty set when c is dominated; force it via a crafted seed search
        cfg = ExperimentConfig("ratio", ["com"], [6], trials=1, master_seed=1, algorithms=["dg"])
        report = run_ratio_experiment(cfg)
        # com is strictly positive, so ratios always present here
        assert all(r.ratio is not None for r in report.rows)

    def test_failed_cells_recorded_and_successful_rows_kept(self, tmp_path):
        # a zero enumeration cap fails every trial whose reduced interval keeps a free element
        cfg = ExperimentConfig(
            "ratio", ["com", "determinant"], [{"n": 24}], trials=2, master_seed=1,
            algorithms=["dg", "udg"], enumeration_cap=0,
        )
        report = run_ratio_experiment(cfg)
        failed = [(f["family"], f["trial"]) for f in report.failures]
        assert failed == [("com", 0), ("determinant", 0), ("determinant", 1)]
        assert all("cap is 0" in f["error"] for f in report.failures)
        assert [(r.family, r.algorithm) for r in report.rows] == [("com", "dg"), ("com", "udg")]
        assert len({r.seed for r in report.rows}) == 1
        written = report.write(tmp_path)
        assert tmp_path / "failures.json" in written
        assert json.loads((tmp_path / "failures.json").read_text()) == report.failures


class TestTimingExperiment:
    def test_fields_nonnegative_and_median_present(self):
        cfg = ExperimentConfig(
            "timing", ["com"], [12], trials=3, master_seed=9, algorithms=["rp", "urp"]
        )
        report = run_timing_experiment(cfg)
        assert all(row.wall_ms >= 0.0 for row in report.rows)
        aggs = {(a.algorithm): a for a in report.aggregates()}
        assert aggs["rp"].median_wall_ms is not None
        assert aggs["rp"].mean_wall_ms is not None

    def test_reduced_variant_faster_on_high_reduction_instances(self):
        # com reduces to a near-point interval, so the restricted local search
        # has almost nothing left to climb
        cfg = ExperimentConfig(
            "timing", ["com"], [400], trials=2, master_seed=13,
            algorithms=["rls", "urls"], ls_restarts=2,
        )
        report = run_timing_experiment(cfg)
        aggs = {a.algorithm: a for a in report.aggregates()}
        assert aggs["urls"].mean_rate >= 0.9
        assert aggs["urls"].mean_wall_ms <= aggs["rls"].mean_wall_ms


class TestReportDeterminism:
    @pytest.mark.parametrize("experiment", ["reduction", "ratio", "timing"])
    def test_identical_runs_modulo_timing(self, tmp_path, experiment):
        cfg = ExperimentConfig(
            experiment, ["com", "half_products"], [10], trials=2, master_seed=77,
            algorithms=["rp", "urp", "rls", "urls"],
        )
        out_a = run_experiment(cfg)
        out_b = run_experiment(cfg)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        out_a.write(tmp_path / "a")
        out_b.write(tmp_path / "b")

        def masked(path):
            rows = list(csv.reader(open(path)))
            head = rows[0]
            wall_cols = [i for i, name in enumerate(head) if "wall" in name]
            for row in rows[1:]:
                for i in wall_cols:
                    row[i] = ""
            return rows

        assert masked(tmp_path / "a" / "runs.csv") == masked(tmp_path / "b" / "runs.csv")
        assert masked(tmp_path / "a" / "summary.csv") == masked(tmp_path / "b" / "summary.csv")

    def test_json_format(self, tmp_path):
        cfg = ExperimentConfig("reduction", ["com"], [8], trials=1, master_seed=2, format="json")
        report = run_reduction_experiment(cfg)
        written = report.write(tmp_path, "json")
        payload = json.loads((tmp_path / "runs.json").read_text())
        assert payload["experiment"] == "reduction"
        assert len(payload["rows"]) == 2


class TestReportFormats:
    def test_csv_and_json_carry_the_same_records(self, tmp_path):
        # a zero cap fails com's trial 0 and both determinant trials
        cfg = ExperimentConfig(
            "ratio", ["com", "perturbed_facility", "determinant"], [{"n": 24}], trials=2,
            master_seed=1, algorithms=["rls", "urls", "dg", "udg"], enumeration_cap=0,
            ls_restarts=2,
        )
        report = run_ratio_experiment(cfg)
        assert len(report.failures) == 3
        report.write(tmp_path / "csv", "csv")
        report.write(tmp_path / "json", "json")
        runs = json.loads((tmp_path / "json" / "runs.json").read_text())
        assert runs["experiment"] == "ratio"
        for fmt in ("csv", "json"):
            assert json.loads((tmp_path / fmt / "failures.json").read_text()) == runs["failures"]
        summary = json.loads((tmp_path / "json" / "summary.json").read_text())
        integral_means = 0
        for name, records in (("runs", runs["rows"]), ("summary", summary)):
            with open(tmp_path / "csv" / f"{name}.csv", newline="") as f:
                reader = csv.reader(f)
                header = next(reader)
                lines = list(reader)
            # the summary's statistics follow its run count
            statistics = header[header.index("runs") + 1 :] if name == "summary" else []
            assert len(lines) == len(records)
            for line, record in zip(lines, records):
                assert header == list(record)
                for key, text in zip(header, line):
                    value = record[key]
                    if value is None:
                        assert text == ""
                    elif isinstance(value, float):
                        assert float(text) == value
                    elif key in statistics:
                        # mean of integer call counts: an int in the JSON, a float in the CSV
                        assert text == f"{value}.0"
                        integral_means += 1
                    else:
                        assert text == str(value)
        assert integral_means > 0
