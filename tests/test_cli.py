import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import read_table
from coretune.cli import main
from coretune.data import load_split_bundle
from coretune.runconfig import ConfigError, RunConfig, atomic_output, load_run_config
from coretune.tuner import TrialResult, curve_rows, run_grid

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    n, d = 240, 4
    n_pos = 72
    X = np.vstack([rng.normal(-0.8, 1.0, size=(n - n_pos, d)),
                   rng.normal(0.8, 1.0, size=(n_pos, d))])
    y = np.array([0] * (n - n_pos) + [1] * n_pos)
    perm = rng.permutation(n)
    X, y = X[perm], y[perm]
    lines = ["f0,f1,f2,f3,label"]
    lines += [",".join(repr(float(v)) for v in row) + f",{label}"
              for row, label in zip(X, y)]
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(lines) + "\n")
    config = {
        "dataset": {"path": str(data_path), "format": "csv",
                    "label_column": "label"},
        "split": {"fractions": [0.7, 0.15, 0.15], "seed": 3},
        "sensitivity": {"provider": "leverage", "params": {"mix": 0.5}},
        "grid": {"coreset_ratios": [0.25, 0.4],
                 "det_ratios": [0.0, 0.2],
                 "weight_strategies": ["inv", "prop"],
                 "class_allocations": ["proportional", {"0": 0.5, "1": 0.5}],
                 "repeats": 1, "base_seed": 11},
        "train": {"loss": "logistic", "regularization": 1.0,
                  "tolerance": 1e-8, "max_iterations": 200,
                  "fit_intercept": True},
        "refine": {"batch_size": 8, "patience": 1, "metric": "f1"},
        "build": {"coreset_ratio": 0.25, "det_ratio": 0.2,
                  "weight_strategy": "inv", "seed": 5},
        "output_dir": str(tmp_path / "run"),
        "workers": 1,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    return tmp_path, str(config_path), config


def run(config_path, command, *extra):
    return main([command, "--config", config_path, *extra])


def five_point_minority(tmp_path) -> list[str]:
    """Rewrite the workdir's data.csv as 300 class-0 rows and 5 class-1
    rows; return the override flags for fractions 0.8/0.1/0.1, under which
    the minority's counts round to 4/1/0."""
    rng = np.random.default_rng(1)
    rows = [f"{a:.17g},{b:.17g},{int(i >= 300)}"
            for i, (a, b) in enumerate(rng.normal(size=(305, 2)))]
    (tmp_path / "data.csv").write_text("\n".join(["f0,f1,label", *rows]) + "\n")
    return ["--override", "split.fractions=[0.8,0.1,0.1]"]


# A class -> fraction map that names class 2 of a two-class dataset.
ABSENT_CLASS_MAP = '{"0": 0.5, "1": 0.3, "2": 0.2}'


class TestPipeline:
    def test_full_pipeline_and_artifacts(self, workdir):
        tmp_path, config_path, config = workdir
        out = tmp_path / "run"
        assert run(config_path, "split") == 0
        assert (out / "splits" / "manifest.json").exists()
        assert (out / "splits" / "train.npz").exists()

        assert run(config_path, "score") == 0
        scores_text = (out / "scores.csv").read_text()
        assert scores_text.startswith("# config_hash=")
        assert "point_id,sensitivity,probability" in scores_text

        assert run(config_path, "build") == 0
        coreset_text = (out / "coreset.csv").read_text()
        assert "point_id,class,weight,provenance,count" in coreset_text

        assert run(config_path, "tune") == 0
        assert (out / "trials.csv").exists()
        best = json.loads((out / "best_config.json").read_text())
        assert "sampler" in best and "validation" in best
        curves = (out / "curves.csv").read_text()
        assert "coreset_ratio,method,split,f1" in curves

        assert run(config_path, "refine") == 0
        assert (out / "refined_coreset.csv").exists()
        trace = (out / "refine_trace.csv").read_text()
        assert "round,pool_size,phi_before,phi_after,patience,decision" in trace

        assert run(config_path, "report") == 0
        comparison = (out / "comparison.csv").read_text()
        assert "method,split,balanced_accuracy,f1,roc_auc" in comparison
        assert comparison.count("full,") == 2

    def test_build_is_byte_reproducible(self, workdir):
        tmp_path, config_path, _ = workdir
        out = tmp_path / "run"
        assert run(config_path, "split") == 0
        assert run(config_path, "build") == 0
        first = (out / "coreset.csv").read_bytes()
        assert run(config_path, "build") == 0
        assert (out / "coreset.csv").read_bytes() == first

    def test_tune_is_byte_reproducible(self, workdir):
        tmp_path, config_path, _ = workdir
        out = tmp_path / "run"
        assert run(config_path, "split") == 0
        assert run(config_path, "tune") == 0
        first = (out / "trials.csv").read_bytes()
        assert run(config_path, "tune") == 0
        assert (out / "trials.csv").read_bytes() == first

    def test_config_hash_consistent_across_artifacts(self, workdir):
        tmp_path, config_path, config = workdir
        out = tmp_path / "run"
        for command in ("split", "score", "build", "tune", "refine", "report"):
            assert run(config_path, command) == 0, command
        manifest = json.loads((out / "splits" / "manifest.json").read_text())
        stamp = f"# config_hash={manifest['config_hash']}"
        first = {name: (out / name).read_text().splitlines()[0]
                 for name in HASHED if name.endswith(".csv")}
        for name in ("scores.csv", "trials.csv", "refine_trace.csv",
                     "comparison.csv", "curves.csv"):
            assert first[name] == stamp, name
        best = json.loads((out / "best_config.json").read_text())
        assert best["config_hash"] == manifest["config_hash"]

        sampler = first["coreset.csv"].removeprefix(stamp + " sampler=")
        assert sampler != first["coreset.csv"]
        built = json.loads(sampler)
        assert (built["det_ratio"], built["weight_strategy"], built["seed"]) == (
            config["build"]["det_ratio"], config["build"]["weight_strategy"],
            config["build"]["seed"])
        decision = (out / "refine_trace.csv").read_text().splitlines()[-1]
        assert first["refined_coreset.csv"] == \
            f"{stamp} decision={decision.rsplit(',', 1)[1]}"

    def test_refine_logs_why_it_stopped(self, workdir):
        tmp_path, config_path, _ = workdir
        for command in ("split", "tune"):
            assert run(config_path, command) == 0, command
        # One round absorbs the whole pool; the next finds it empty.
        assert run(config_path, "refine", "--override", "refine.batch_size=100000",
                   "--override", "refine.patience=2") == 0
        logged = [line for line in (tmp_path / "run" / "run.log").read_text()
                  .splitlines() if " refine: " in line]
        assert len(logged) == 1 and "after 1 rounds; pool exhausted;" in logged[0]

    def test_workers_flag_is_not_hashed(self, workdir):
        # The worker count, from the file or an override, moves no byte.
        tmp_path, config_path, config = workdir
        out = tmp_path / "run"
        pooled = tmp_path / "pooled.json"
        pooled.write_text(json.dumps(dict(config, workers=2)))
        assert run(config_path, "split") == 0
        manifest = json.loads((out / "splits" / "manifest.json").read_text())
        tuned = ("trials.csv", "best_config.json", "curves.csv")
        written = []
        for args in ([config_path], [config_path, "--override", "workers=2"],
                     [str(pooled)]):
            assert run(args[0], "tune", *args[1:]) == 0, args
            written.append({name: (out / name).read_bytes() for name in tuned})
            assert (out / "trials.csv").read_text().splitlines()[0] == \
                f"# config_hash={manifest['config_hash']}"
            best = json.loads((out / "best_config.json").read_text())
            assert best["config_hash"] == manifest["config_hash"]
        assert written == [written[0]] * 3


def tune_in_process(config_path):
    cfg = load_run_config(config_path)
    bundle, _ = load_split_bundle(os.path.join(cfg.output_dir, "splits"))
    return run_grid(bundle, cfg.grid, cfg.train)


class TestTrialRecord:
    def test_best_config_reads_back_as_the_tuned_best(self, workdir):
        tmp_path, config_path, _ = workdir
        assert run(config_path, "split") == 0
        assert run(config_path, "tune") == 0
        with open(tmp_path / "run" / "best_config.json") as fh:
            loaded = TrialResult.from_dict(json.load(fh))
        best = tune_in_process(config_path).best
        assert loaded == replace(best, coreset_stats=None)

    def test_tune_curves_equal_curve_rows(self, workdir):
        tmp_path, _, config = workdir
        config = dict(config, grid=dict(config["grid"], repeats=2))
        config_path = str(tmp_path / "repeats.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        for command in ("split", "tune"):
            assert run(config_path, command) == 0, command
        lines = (tmp_path / "run" / "curves.csv").read_text().splitlines()
        written = [(float(r), m, s, float(f))
                   for r, m, s, f in (line.split(",") for line in lines[2:])]
        assert written == curve_rows(tune_in_process(config_path).summaries)

    def test_report_reads_no_trials_table(self, workdir):
        tmp_path, config_path, _ = workdir
        out = tmp_path / "run"
        for command in ("split", "tune", "report"):
            assert run(config_path, command) == 0, command
        comparison = (out / "comparison.csv").read_bytes()
        (out / "trials.csv").unlink()
        assert run(config_path, "report") == 0
        assert (out / "comparison.csv").read_bytes() == comparison

    def test_refine_and_report_train_with_the_recorded_settings(self, workdir):
        tmp_path, config_path, _ = workdir
        out = tmp_path / "run"
        for command in ("split", "tune", "refine", "report"):
            assert run(config_path, command) == 0, command
        best = json.loads((out / "best_config.json").read_text())
        assert best["train"]["max_iterations"] == 200
        outputs = ("refined_coreset.csv", "refine_trace.csv", "comparison.csv")

        def data_rows():
            return {name: [line for line in (out / name).read_text().splitlines()
                           if not line.startswith("#")] for name in outputs}

        tuned_rows = data_rows()
        for command in ("refine", "report"):
            assert run(config_path, command, "--override",
                       "train.max_iterations=2") == 0, command
        assert data_rows() == tuned_rows

    def test_regularization_axis_reaches_trials_best_and_refine(
            self, workdir, monkeypatch):
        import coretune.refine

        tmp_path, config_path, config = workdir
        out = tmp_path / "run"
        assert run(config_path, "split") == 0
        assert run(config_path, "tune", "--override",
                   "grid.regularizations=[0.1,10.0]") == 0
        columns, rows = read_table(out / "trials.csv")
        vanilla = [row[columns.index("vanilla")] == "1" for row in rows]
        regularizations = [float(row[columns.index("regularization")])
                           for row in rows]
        # Each product cell and each vanilla cell runs once per value; the
        # product cell with the vanilla knobs is the vanilla cell.
        grid = config["grid"]
        ratios = len(grid["coreset_ratios"])
        cells = (np.prod([len(grid[axis]) for axis in (
            "det_ratios", "weight_strategies", "class_allocations")]) - 1) * ratios
        assert Counter(r for r, v in zip(regularizations, vanilla) if not v) == \
            {0.1: cells * grid["repeats"], 10.0: cells * grid["repeats"]}
        assert Counter(r for r, v in zip(regularizations, vanilla) if v) == \
            {0.1: ratios * grid["repeats"], 10.0: ratios * grid["repeats"]}
        best = json.loads((out / "best_config.json").read_text())
        assert best["regularization"] == regularizations[0]  # rank 0 leads
        assert best["regularization"] != config["train"]["regularization"]
        assert best["train"]["regularization"] == best["regularization"]

        trained_with = []
        train = coretune.refine.train

        def recording(features, labels, weights, train_config):
            trained_with.append(train_config.regularization)
            return train(features, labels, weights, train_config)

        monkeypatch.setattr(coretune.refine, "train", recording)
        assert run(config_path, "refine") == 0
        assert trained_with and set(trained_with) == {best["regularization"]}

    def test_record_without_train_settings_asks_to_rerun_tune(self, workdir,
                                                              capsys):
        tmp_path, config_path, _ = workdir
        path = tmp_path / "run" / "best_config.json"
        assert run(config_path, "split") == 0
        assert run(config_path, "tune") == 0
        record = json.loads(path.read_text())
        del record["train"]
        path.write_text(json.dumps(record))
        for command in ("refine", "report"):
            assert run(config_path, command) == 2, command
            assert "rerun the tune command" in capsys.readouterr().err

    def test_record_of_a_fit_without_intercept_is_refused(self, workdir,
                                                          capsys):
        tmp_path, config_path, _ = workdir
        path = tmp_path / "run" / "best_config.json"
        assert run(config_path, "split") == 0
        assert run(config_path, "tune") == 0
        record = json.loads(path.read_text())
        record["train"]["fit_intercept"] = False
        path.write_text(json.dumps(record))
        capsys.readouterr()
        assert run(config_path, "refine") == 2
        assert "fit_intercept must be true" in capsys.readouterr().err


class TestSparseLibsvmPipeline:
    def test_one_hot_data_with_lewis_and_hinge(self, tmp_path):
        from conftest import write_libsvm
        from coretune.data import CSRMatrix, parse_libsvm

        rng = np.random.default_rng(0)
        n, d = 400, 40
        X = np.zeros((n, d))
        for i in range(n):
            X[i, rng.choice(d, size=5, replace=False)] = 1.0
        logits = X @ rng.normal(size=d) * 0.8 - 0.5
        y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(int)
        data_path = tmp_path / "sparse.libsvm"
        write_libsvm(data_path, X, y)
        assert isinstance(parse_libsvm(str(data_path)).features, CSRMatrix)

        config = {
            "dataset": {"path": str(data_path), "format": "libsvm"},
            "split": {"fractions": [0.7, 0.15, 0.15], "seed": 1},
            "sensitivity": {"provider": "lewis", "params": {"mix": 0.5}},
            "grid": {"coreset_ratios": [0.3], "det_ratios": [0.0, 0.2],
                     "weight_strategies": ["inv", "keep"],
                     "class_allocations": ["proportional"],
                     "repeats": 1, "base_seed": 0},
            "train": {"loss": "hinge", "regularization": 1.0,
                      "tolerance": 1e-8, "max_iterations": 200,
                      "fit_intercept": True},
            "refine": {"batch_size": 20, "patience": 1,
                       "metric": "balanced_accuracy"},
            "output_dir": str(tmp_path / "run"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        for command in ("split", "score", "build", "tune", "refine", "report"):
            assert run(str(config_path), command) == 0, command


class TestErrorsAndExitCodes:
    def test_report_before_tune(self, workdir, capsys):
        _, config_path, _ = workdir
        assert run(config_path, "split") == 0
        assert run(config_path, "report") == 2
        assert "run the tune command first" in capsys.readouterr().err

    def test_nonfinite_feature_fails_split(self, workdir, capsys):
        tmp_path, config_path, config = workdir
        data_path = tmp_path / "data.csv"
        lines = data_path.read_text().splitlines()
        cells = lines[5].split(",")
        lines[5] = ",".join(["nan"] + cells[1:])
        data_path.write_text("\n".join(lines) + "\n")
        assert run(config_path, "split") == 2
        err = capsys.readouterr().err
        assert f"{data_path}:6: non-finite feature cell 'nan' in column 0" in err
        assert not (tmp_path / "run" / "splits").exists()

    def test_nonfinite_label_fails_split(self, workdir, capsys):
        tmp_path, config_path, config = workdir
        data_path = tmp_path / "data.csv"
        lines = data_path.read_text().splitlines()
        cells = lines[3].split(",")
        lines[3] = ",".join(cells[:-1] + ["inf"])
        data_path.write_text("\n".join(lines) + "\n")
        assert run(config_path, "split") == 2
        err = capsys.readouterr().err
        assert f"{data_path}:4: non-integer label 'inf'" in err
        assert not (tmp_path / "run" / "splits").exists()

    @pytest.mark.parametrize("fmt", ["csv", "libsvm"])
    def test_split_rejects_non_binary_labels(self, workdir, capsys, fmt):
        tmp_path, config_path, config = workdir
        if fmt == "csv":  # a third class
            data_path = tmp_path / "data.csv"
            lines = data_path.read_text().splitlines()
            lines[1:4] = [f"{row.rsplit(',', 1)[0]},2" for row in lines[1:4]]
            classes = 3
        else:  # every row +1
            data_path = tmp_path / "data.libsvm"
            lines = [f"+1 1:{i + 1}.5 3:-2" for i in range(30)]
            config["dataset"] = {"path": str(data_path), "format": "libsvm"}
            classes = 1
        data_path.write_text("\n".join(lines) + "\n")
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run(config_path, "split") == 2
        err = capsys.readouterr().err
        assert f"{data_path}: expected 2 label classes, found {classes}" in err
        assert not (tmp_path / "run" / "splits").exists()

    def test_failed_split_leaves_no_store_to_run_on(self, workdir, capsys):
        tmp_path, config_path, config = workdir
        assert run(config_path, "split") == 0
        three_class = tmp_path / "three_class.csv"
        lines = (tmp_path / "data.csv").read_text().splitlines()
        lines[1:4] = [f"{row.rsplit(',', 1)[0]},2" for row in lines[1:4]]
        three_class.write_text("\n".join(lines) + "\n")
        config["dataset"]["path"] = str(three_class)
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run(config_path, "split") == 2
        assert not (tmp_path / "run" / "splits").exists()
        capsys.readouterr()
        for command in ("score", "build", "tune"):
            assert run(config_path, command) == 2, command
            assert "run the split command first" in capsys.readouterr().err

    def test_score_before_split(self, workdir, capsys):
        _, config_path, _ = workdir
        assert run(config_path, "score") == 2
        assert "run the split command first" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["split", "--config", "/nonexistent/config.json"]) == 1
        assert "config" in capsys.readouterr().err

    def test_invalid_config_field(self, workdir, capsys):
        tmp_path, config_path, config = workdir
        bad = dict(config)
        bad["dataset"] = {"path": config["dataset"]["path"], "format": "parquet"}
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        assert main(["split", "--config", str(bad_path)]) == 1
        assert "dataset.format" in capsys.readouterr().err

    def test_missing_field_names_path(self, workdir, capsys):
        tmp_path, config_path, config = workdir
        bad = {k: v for k, v in config.items() if k != "output_dir"}
        bad_path = tmp_path / "bad2.json"
        bad_path.write_text(json.dumps(bad))
        assert main(["split", "--config", str(bad_path)]) == 1
        assert "output_dir" in capsys.readouterr().err

    def test_usage_error_unknown_command(self, capsys):
        assert main(["tame", "--config", "x.json"]) == 1

    def test_partial_grid_exit_code(self, workdir):
        tmp_path, config_path, config = workdir
        partial = dict(config)
        partial["grid"] = {"coreset_ratios": [0.25, 0.4],
                           "det_ratios": [0.0],
                           "weight_strategies": ["inv"],
                           "class_allocations": [{"0": 1.0}],
                           "repeats": 1, "base_seed": 11}
        partial_path = tmp_path / "partial.json"
        partial_path.write_text(json.dumps(partial))
        assert run(str(partial_path), "split") == 0
        assert run(str(partial_path), "tune") == 3
        log = (tmp_path / "run" / "run.log").read_text()
        assert log.count("tune: failed cell") == 2

    def test_allocation_naming_a_class_the_data_lacks(self, workdir, capsys):
        tmp_path, config_path, _ = workdir
        assert run(config_path, "split") == 0
        assert run(config_path, "tune", "--override", "grid.class_allocations="
                   f'["proportional", {ABSENT_CLASS_MAP}]') == 3
        failed = [line for line in
                  (tmp_path / "run" / "run.log").read_text().splitlines()
                  if "tune: failed cell" in line]
        assert len(failed) == 8  # the map's half of the 16 cells
        assert all("allocation map names classes [2]" in line for line in failed)
        capsys.readouterr()
        assert run(config_path, "build", "--override",
                   f"build.class_allocation={ABSENT_CLASS_MAP}") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: AllocationError: allocation map names "
                              "classes [2]")

    def test_split_missing_a_class_fails_and_leaves_no_store(self, workdir,
                                                             capsys):
        tmp_path, config_path, _ = workdir
        assert run(config_path, "split") == 0
        flags = five_point_minority(tmp_path)
        capsys.readouterr()
        assert run(config_path, "split", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SplitError: class 1 has 5 points")
        assert "the test split" in err
        assert not (tmp_path / "run" / "splits").exists()
        assert run(config_path, "score", *flags) == 2
        assert "run the split command first" in capsys.readouterr().err

    def test_bad_weight_strategy_fails_before_scoring(self, workdir, monkeypatch,
                                                      capsys):
        _, config_path, _ = workdir
        assert run(config_path, "split") == 0

        def no_scoring(*args, **kwargs):
            raise AssertionError("scores computed before the grid was validated")

        monkeypatch.setattr("coretune.tuner.compute_scores", no_scoring)
        assert run(config_path, "tune", "--override",
                   'grid.weight_strategies=["inv", "mean"]') == 1
        assert "weight_strategy" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["entropy", "margin"])
    def test_retired_query_strategy_is_an_unknown_field(self, workdir, capsys,
                                                        strategy):
        _, config_path, _ = workdir
        assert run(config_path, "split") == 0
        assert run(config_path, "tune") == 0
        assert run(config_path, "refine", "--override",
                   f"refine.query_strategy={strategy}") == 1
        assert "unknown config field 'refine.query_strategy'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "train.foo=1", "grid.foo=1", "build.foo=1",
        "grid.sensitivity_provider=lewis", "build.coreset_size=5"])
    def test_unknown_section_field_is_named(self, workdir, capsys, override):
        # grid's provider and build's size are set by the run config itself
        _, config_path, _ = workdir
        assert run(config_path, "split", "--override", override) == 1
        path = override.partition("=")[0]
        assert f"unknown config field '{path}'" in capsys.readouterr().err

    @pytest.mark.parametrize("provider", ["unified", "random"])
    def test_unknown_provider_is_a_config_error(self, workdir, capsys, provider):
        _, config_path, _ = workdir
        assert run(config_path, "split", "--override",
                   f"sensitivity.provider={provider}") == 1
        err = capsys.readouterr().err
        assert f"sensitivity.provider {provider!r}" in err
        assert "'leverage'" in err and "'uniform'" in err

    @pytest.mark.parametrize("command,override", [
        ("split", "split.fractions=0.5"),
        ("split", "dataset=5"),
        ("split", 'split.seed="x"'),
        ("tune", 'workers="abc"'),
        ("build", 'build.coreset_ratio="x"'),
        ("tune", "train=5"),
        ("tune", "train.max_iterations=Infinity"),
        ("refine", "refine=5"),
        ("split", 'dataset.path=["data.csv"]'),
        ("split", 'dataset.has_header="no"'),
        ("tune", 'dataset.has_header="no"'),
        ("split", 'train.fit_intercept="no"'),
        ("split", "train.fit_intercept=false"),
        ("split", "dataset.label_column=3.7"),
        ("split", "dataset.label_column=true"),
        ("split", "dataset.label_column=-1"),
        ("split", "dataset.dimension_hint=0"),
        ("split", 'dataset.dimension_hint="x"'),
        ("split", "dataset.dimension_hint=8.5"),
        ("split", "dataset.dimension_hint=true"),
        # Misspelt fields, and fields another part of the config owns.
        ("split", "train.fit_intercep=false"),
        ("tune", "grid.repeat=5"),
        ("split", "refine.batchsize=3"),
        ("split", "build.det_ration=0.3"),
        ("split", 'dataset.label_col="label"'),
        ("split", "split.sed=3"),
        ("split", "sensitivity.param={}"),
        ("split", "wokers=2"),
        ("split", 'grid.sensitivity_provider="uniform"'),
        ("split", "build.coreset_size=5"),
        # An empty axis and a zero cap once meant "none"; a metric that is
        # no metric name failed only after training.
        ("split", "grid.regularizations=[]"),
        ("split", "refine.max_rounds=0"),
        ("split", "refine.metric=5"),
        # A ratio must be a JSON number: true once ran as the whole split.
        ("split", "grid.coreset_ratios=[true]"),
        ("split", "build.coreset_ratio=true"),
        ("split", "grid.det_ratios=[false]"),
        ("split", 'grid.coreset_ratios=["0.2"]'),
        ("split", 'build.det_ratio="0.2"'),
        ("split", 'build.class_allocation={"0": "0.5", "1": 0.5}'),
    ])
    def test_malformed_value_is_a_config_error(self, workdir, capsys, command,
                                               override):
        _, config_path, _ = workdir
        assert run(config_path, "split") == 0
        capsys.readouterr()
        assert run(config_path, command, "--override", override) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        # The message names the section and the field.
        assert all(part in err for part in override.split("=")[0].split("."))

    @pytest.mark.parametrize("fractions", ["[0.5,0.3,0.3]", "[Infinity,0.1,0.1]",
                                           "[NaN,0.1,0.1]", "[0.5,0.2,0.2]",
                                           '["0.7",0.15,0.15]'])
    def test_fractions_not_summing_to_one_are_a_config_error(
            self, workdir, capsys, fractions):
        _, config_path, _ = workdir
        assert run(config_path, "split", "--override",
                   f"split.fractions={fractions}") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "split.fractions" in err

    @pytest.mark.parametrize("params", ["5", "[1,2]", '"mix"'])
    def test_non_object_provider_params_are_a_config_error(
            self, workdir, capsys, params):
        tmp_path, _, config = workdir
        # Without a grid section nothing else reads the params at load.
        no_grid = {k: v for k, v in config.items() if k != "grid"}
        path = tmp_path / "no_grid.json"
        path.write_text(json.dumps(no_grid))
        for config_path in (workdir[1], str(path)):
            for command in ("split", "score"):
                assert run(config_path, command, "--override",
                           f"sensitivity.params={params}") == 1
                err = capsys.readouterr().err
                assert err.startswith("config error: ")
                assert "sensitivity.params must be an object" in err

    @pytest.mark.parametrize("overrides,named", [
        (["train.tolerance=NaN"], "tolerance"),
        (["train.regularization=NaN"], "regularization"),
        (["train.regularization=-Infinity"], "regularization"),
        (["grid.regularizations=[1.0,NaN]"], "regularizations"),
        # Once these passed split, and failed in score or ran unconverged.
        (["sensitivity.params.mixx=0.3"], "mixx"),
        (['sensitivity.provider="lewis"', "sensitivity.params.tol=NaN"], "tol"),
        (['sensitivity.provider="lewis"', "sensitivity.params.max_iters=2.5"],
         "max_iters"),
        (['sensitivity.provider="leverage"',
          'sensitivity.params.add_intercept="no"'], "add_intercept"),
        (['sensitivity.provider="uniform"'], "mix"),
        (["sensitivity.params.mix=true"], "mix"),
    ])
    def test_nonfinite_real_or_unfit_provider_param_fails_split(
            self, workdir, capsys, overrides, named):
        tmp_path, config_path, _ = workdir
        flags = [arg for override in overrides for arg in ("--override", override)]
        assert run(config_path, "split", *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not (tmp_path / "run" / "splits").exists()

    def test_override_through_a_non_object_section(self, workdir, capsys):
        _, config_path, _ = workdir
        assert run(config_path, "split", "--override", "build=5",
                   "--override", "build.seed=3") == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {config_path}: cannot override through non-object "
            "field 'build'")

    def test_dataset_file_missing(self, workdir, capsys):
        tmp_path, config_path, config = workdir
        bad = dict(config)
        bad["dataset"] = dict(config["dataset"], path=str(tmp_path / "nope.csv"))
        bad_path = tmp_path / "bad3.json"
        bad_path.write_text(json.dumps(bad))
        assert main(["split", "--config", str(bad_path)]) == 1

    @pytest.mark.parametrize("args", [
        ["--override", "split.seed=1.5"],
        ["--override", "split.seed=true"],
        ["--override", "split.seed=-1"],
        ["--override", "build.seed=0.5"],
        ["--override", "build.seed=-2"],
        ["--override", "grid.base_seed=2.5"],
        ["--override", "grid.base_seed=-1"],
        ["--override", "grid.repeats=1.5"],
        ["--override", "train.max_iterations=2.5"],
        ["--override", "refine.batch_size=1.5"],
        ["--override", "refine.patience=1.5"],
        ["--override", "refine.max_rounds=2.5"],
        ["--override", "workers=2.9"],
        ["--override", "workers=true"],
        ["--override", "workers=0"],
        ["--override", "workers=-3"],
    ], ids=" ".join)
    def test_integer_fields_must_be_integers(self, workdir, capsys, args):
        tmp_path, config_path, _ = workdir
        # A truncated value would run, and hash, as a different config.
        assert run(config_path, "split", *args) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["5", "null", '""', "[]"])
    def test_output_dir_must_be_a_string(self, workdir, capsys, value):
        _, config_path, _ = workdir
        assert run(config_path, "split", "--override", f"output_dir={value}") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "output_dir must be a non-empty string" in err

    def test_runtime_failure_logs_its_traceback(self, workdir, capsys):
        tmp_path, config_path, _ = workdir
        assert run(config_path, "split") == 0
        train_file = tmp_path / "run" / "splits" / "train.npz"
        with np.load(train_file) as stored:
            arrays = {key: stored[key] for key in stored.files}
        arrays["weights"] = arrays["weights"] * 2.0
        np.savez(train_file, **arrays)
        capsys.readouterr()
        assert run(config_path, "score") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SplitError: ")
        assert "contents do not match the manifest digest" in err
        assert err.count("\n") == 1
        log = (tmp_path / "run" / "run.log").read_text()
        assert "score: exit 2\nTraceback (most recent call last)" in log
        assert "SplitError: " in log.split("Traceback (most recent call last)")[1]


def _config_file(tmp_path, content: bytes) -> str:
    path = tmp_path / "other.json"
    path.write_bytes(content)
    return str(path)


def _build_with_absent_class(tmp_path, config_path) -> list[str]:
    assert run(config_path, "split") == 0
    return ["build", "--config", config_path, "--override",
            f"build.class_allocation={ABSENT_CLASS_MAP}"]


NOT_AN_OBJECT = "config error: {config}: must hold a JSON object"

# name -> (exit code, the stderr line's start, with {config} for the
# --config path, and args builder(tmp_path, config_path)); exit 3 logs one
# line per failed cell and is not listed.
ONE_LINE_FAILURES = {
    "no command": (
        1, "error: the following arguments are required", lambda tmp, cfg: []),
    "unknown flag": (
        1, "error: unrecognized arguments",
        lambda tmp, cfg: ["split", "--config", cfg, "--bogus"]),
    "retired seed flag": (
        1, "error: unrecognized arguments",
        lambda tmp, cfg: ["split", "--config", cfg, "--seed", "3"]),
    "retired workers flag": (
        1, "error: unrecognized arguments",
        lambda tmp, cfg: ["tune", "--config", cfg, "--workers", "2"]),
    "missing config": (
        1, "config error: {config}: cannot read",
        lambda tmp, cfg: ["split", "--config", str(tmp / "nope.json")]),
    "config is a directory": (
        1, "config error: {config}: cannot read: Is a directory",
        lambda tmp, cfg: ["split", "--config", str(tmp)]),
    "config is invalid JSON": (
        1, "config error: {config}: invalid JSON",
        lambda tmp, cfg: ["split", "--config", _config_file(tmp, b"{")]),
    "config is not UTF-8": (
        1, "config error: {config}: invalid JSON",
        lambda tmp, cfg: ["split", "--config", _config_file(tmp, b"\xff\xfe{}")]),
    "config is an array": (
        1, NOT_AN_OBJECT,
        lambda tmp, cfg: ["split", "--config", _config_file(tmp, b"[1, 2]")]),
    "config is a string": (
        1, NOT_AN_OBJECT,
        lambda tmp, cfg: ["split", "--config", _config_file(tmp, b'"x"')]),
    "override through an array config": (
        1, NOT_AN_OBJECT,
        lambda tmp, cfg: ["split", "--config", _config_file(tmp, b"[1, 2]"),
                          "--override", "a.b=1"]),
    "override without a value": (
        1, "config error: --override needs key=value",
        lambda tmp, cfg: ["split", "--config", cfg, "--override", "split.seed"]),
    "bad field": (
        1, "config error: {config}: split.fractions",
        lambda tmp, cfg: ["split", "--config", cfg, "--override",
                          "split.fractions=[0.5,0.5,0.5]"]),
    "score before split": (
        2, "error: no splits under ",
        lambda tmp, cfg: ["score", "--config", cfg]),
    "split missing a class": (
        2, "error: SplitError: class 1 has 5 points",
        lambda tmp, cfg: ["split", "--config", cfg, *five_point_minority(tmp)]),
    "allocation naming a class the data lacks": (
        2, "error: AllocationError: allocation map names classes [2]",
        _build_with_absent_class),
}


class TestOneStderrLine:
    @pytest.mark.parametrize("case", ONE_LINE_FAILURES)
    def test_failure_prints_one_line_and_no_traceback(self, workdir, case):
        tmp_path, config_path, _ = workdir
        code, start, make_args = ONE_LINE_FAILURES[case]
        args = make_args(tmp_path, config_path)
        path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        proc = subprocess.run([sys.executable, "-m", "coretune.cli", *args],
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                              capture_output=True, text=True, timeout=300)
        config = args[args.index("--config") + 1] if "--config" in args else None
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(start.format(config=config)), proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestOverrides:
    def test_override_changes_hash_and_behavior(self, workdir):
        tmp_path, config_path, _ = workdir
        out = tmp_path / "run"
        run(config_path, "split")
        run(config_path, "build")
        base = (out / "coreset.csv").read_text()
        assert run(config_path, "build", "--override",
                   "build.det_ratio=0.4") == 0
        overridden = (out / "coreset.csv").read_text()
        assert base != overridden
        assert base.splitlines()[0] != overridden.splitlines()[0]  # hash moved

    def test_seed_overrides_move_the_coreset(self, workdir):
        tmp_path, config_path, _ = workdir
        out = tmp_path / "run"
        run(config_path, "split")
        run(config_path, "build")
        base = (out / "coreset.csv").read_text()
        # split.seed is a split-store key: the store must be remade first
        seeds = ["--override", "split.seed=99", "--override", "build.seed=99"]
        assert run(config_path, "split", *seeds) == 0
        assert run(config_path, "build", *seeds) == 0
        assert (out / "coreset.csv").read_text() != base

    def test_override_requires_key_value(self, workdir, capsys):
        _, config_path, _ = workdir
        assert run(config_path, "build", "--override", "det_ratio") == 1
        assert "key=value" in capsys.readouterr().err


class TestRunConfigInProcess:
    CSV = {"dataset": {"path": "d.csv", "format": "csv", "label_column": "y"},
           "output_dir": "out"}

    def test_csv_dataset_needs_a_label_column(self):
        with pytest.raises(ConfigError, match="dataset.label_column is required "
                                              "for csv datasets"):
            RunConfig({"dataset": {"path": "d.csv", "format": "csv"},
                       "output_dir": "out"})

    @pytest.mark.parametrize("ratio", [0, 1.5])
    def test_build_coreset_ratio_lies_in_the_unit_interval(self, ratio):
        with pytest.raises(ConfigError, match=r"build.coreset_ratio: must lie "
                                              r"in \(0, 1\]"):
            RunConfig({**self.CSV, "build": {"coreset_ratio": ratio}})

    @pytest.mark.parametrize("content,match", [
        (b"\xff\xfe{}", "invalid JSON: 'utf-8' codec can't decode"),
        (b"{", "invalid JSON: Expecting property name"),
        (b"[1, 2]", r"must hold a JSON object, not \[1, 2\]"),
    ])
    def test_unreadable_config(self, tmp_path, content, match):
        path = _config_file(tmp_path, content)
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: {match}"):
            load_run_config(path)

    def test_atomic_output_removes_its_temp_file_when_the_writer_fails(
            self, tmp_path):
        with pytest.raises(RuntimeError, match="writer failed"):
            with atomic_output(tmp_path / "a.csv") as tmp:
                Path(tmp).write_text("half")
                raise RuntimeError("writer failed")
        assert list(tmp_path.iterdir()) == []

    def test_tune_without_a_grid(self, workdir, capsys):
        tmp_path, config_path, config = workdir
        del config["grid"]
        Path(config_path).write_text(json.dumps(config))
        assert run(config_path, "tune") == 1
        assert "missing config field 'grid'" in capsys.readouterr().err

    def test_split_names_the_row_a_header_outgrows(self, workdir, capsys):
        tmp_path, config_path, _ = workdir
        data_path = tmp_path / "data.csv"
        data_path.write_text("f0,f1,f2,label\n0.5,1\n1.5,0\n")
        assert run(config_path, "split") == 2
        assert f"{data_path}:2: expected 4 cells, got 2" in capsys.readouterr().err


HASHED = ("scores.csv", "coreset.csv", "trials.csv", "best_config.json",
          "refined_coreset.csv", "refine_trace.csv", "comparison.csv",
          "curves.csv")
DOWNSTREAM = ("score", "build", "tune", "refine", "report")


class TestSplitStoreKey:
    """The split store is keyed by the config's dataset and split sections;
    a command under another key is refused, with nothing written."""

    @pytest.mark.parametrize("command,override", [
        ("score", "split.seed=7"),
        ("tune", "split.fractions=[0.5,0.25,0.25]"),
    ])
    def test_store_of_another_split_config_is_refused(self, workdir, capsys,
                                                      command, override):
        tmp_path, config_path, _ = workdir
        assert run(config_path, "split") == 0
        capsys.readouterr()
        assert run(config_path, command, "--override", override) == 2
        assert "rerun the split command" in capsys.readouterr().err
        assert not any((tmp_path / "run" / name).exists() for name in HASHED)

    def test_split_deletes_the_outputs_of_its_old_store(self, workdir, capsys):
        tmp_path, config_path, _ = workdir
        out = tmp_path / "run"
        for command in ("split", *DOWNSTREAM):
            assert run(config_path, command) == 0, command
        assert all((out / name).exists() for name in HASHED)
        reseed = ("--override", "split.seed=5")
        assert run(config_path, "split", *reseed) == 0
        assert not any((out / name).exists() for name in HASHED)
        capsys.readouterr()
        assert run(config_path, "report", *reseed) == 2
        assert "run the tune command first" in capsys.readouterr().err
        assert not (out / "comparison.csv").exists()

    def test_store_without_a_key_is_refused(self, workdir, capsys):
        tmp_path, config_path, _ = workdir
        assert run(config_path, "split") == 0
        manifest_path = tmp_path / "run" / "splits" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["key"]
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(config_path, "build") == 2
        assert "rerun the split command" in capsys.readouterr().err


class TestScoresArtifact:
    def test_chain_scores_the_train_split_once(self, workdir, monkeypatch):
        import coretune.cli
        import coretune.tuner

        _, config_path, config = workdir
        assert run(config_path, "split") == 0
        cli_calls, tuner_calls = [], []

        def counting(calls, original):
            def compute(name, data, **params):
                calls.append(name)
                return original(name, data, **params)
            return compute

        monkeypatch.setattr("coretune.cli.compute_scores",
                            counting(cli_calls, coretune.cli.compute_scores))
        monkeypatch.setattr("coretune.tuner.compute_scores",
                            counting(tuner_calls, coretune.tuner.compute_scores))
        for command in DOWNSTREAM:
            assert run(config_path, command) == 0, command
        assert cli_calls == [config["sensitivity"]["provider"]]
        # only the random baseline's uniform scores are computed in report
        assert tuner_calls == ["uniform"]

    def test_changed_params_recompute_and_match_a_fresh_run(self, workdir):
        import shutil

        tmp_path, config_path, _ = workdir
        out = tmp_path / "run"
        override = ("--override", "sensitivity.params.mix=0.3")
        for command in ("split", *DOWNSTREAM):
            assert run(config_path, command, *override) == 0, command
        fresh = {name: (out / name).read_bytes() for name in HASHED}
        shutil.rmtree(out)
        for command in ("split", *DOWNSTREAM):
            assert run(config_path, command) == 0, command
        assert (out / "scores.csv").read_bytes() != fresh["scores.csv"]
        for command in DOWNSTREAM:
            assert run(config_path, command, *override) == 0, command
        assert {name: (out / name).read_bytes() for name in HASHED} == fresh

    def test_refine_and_report_score_with_the_recorded_params(self, workdir):
        tmp_path, config_path, _ = workdir
        out = tmp_path / "run"
        for command in ("split", "tune", "refine", "report"):
            assert run(config_path, command) == 0, command
        outputs = ("refined_coreset.csv", "refine_trace.csv", "comparison.csv")

        def data_rows():
            return {name: [line for line in (out / name).read_text().splitlines()
                           if not line.startswith("#")] for name in outputs}

        tuned_at_mix_half = data_rows()
        for command in ("refine", "report"):
            assert run(config_path, command, "--override",
                       "sensitivity.params.mix=0.3") == 0, command
        assert data_rows() == tuned_at_mix_half

    @pytest.mark.parametrize("max_iters,converged", [(100, True), (1, False)])
    def test_score_logs_whether_lewis_converged(self, workdir, max_iters,
                                                converged):
        tmp_path, config_path, _ = workdir
        assert run(config_path, "split") == 0
        assert run(config_path, "score", "--override",
                   'sensitivity.provider="lewis"', "--override",
                   f"sensitivity.params.max_iters={max_iters}") == 0
        logged = [line for line in
                  (tmp_path / "run" / "run.log").read_text().splitlines()
                  if " score: " in line]
        assert len(logged) == 1
        assert (f"score: provider=lewis n=168 converged={converged} "
                "ridge_fallback=False -> ") in logged[0]

    def test_bad_grid_fails_before_scoring(self, workdir, monkeypatch):
        _, config_path, _ = workdir
        assert run(config_path, "split") == 0

        def no_scoring(*args, **kwargs):
            raise AssertionError("scores computed before the grid was validated")

        monkeypatch.setattr("coretune.cli.compute_scores", no_scoring)
        assert run(config_path, "tune", "--override",
                   'grid.weight_strategies=["inv", "mean"]') == 1


class TestZeroWeightPoints:
    def test_tune_records_the_cell_and_exits_partial(self, workdir):
        from coretune.data import Dataset, SplitBundle, save_split_bundle
        from coretune.sensitivity import compute_scores

        tmp_path, config_path, config = workdir
        splits_dir = tmp_path / "run" / "splits"
        assert run(config_path, "split") == 0
        bundle, manifest = load_split_bundle(splits_dir)
        train = bundle.train
        # Zero the weight of class 0's highest-scoring point: deterministic
        # inclusion always takes it, small samples rarely draw it.
        scores = compute_scores("leverage", train, **config["sensitivity"]["params"])
        in_class = np.flatnonzero(train.labels == 0)
        top = in_class[np.argmax(scores.values[in_class])]
        weights = train.weights.copy()
        weights[top] = 0.0
        zeroed = Dataset(train.features, train.labels, weights, train.point_ids)
        save_split_bundle(SplitBundle(zeroed, bundle.validation, bundle.test),
                          splits_dir, manifest["seed"], manifest["fractions"],
                          extra={"key": manifest["key"]})
        grid = dict(config["grid"], coreset_ratios=[0.05], det_ratios=[0.0, 0.5],
                    weight_strategies=["inv"], class_allocations=["proportional"])
        assert run(config_path, "tune", "--override",
                   f"grid={json.dumps(grid)}") == 3
        failed = [line for line in
                  (tmp_path / "run" / "run.log").read_text().splitlines()
                  if "tune: failed cell" in line]
        assert len(failed) == 1
        assert f"point_ids [{int(train.point_ids[top])}]" in failed[0]

    def test_grid_with_every_cell_failed_logs_them_and_writes_nothing(
            self, workdir, capsys):
        from coretune.data import Dataset, SplitBundle, save_split_bundle

        tmp_path, config_path, config = workdir
        out = tmp_path / "run"
        # A successful chain first: its tune outputs must not outlive a
        # failed tune.
        for command in ("split", *DOWNSTREAM):
            assert run(config_path, command) == 0, command
        # refine's and report's outputs derive from best_config.json.
        tuned = ("trials.csv", "best_config.json", "curves.csv",
                 "refined_coreset.csv", "refine_trace.csv", "comparison.csv")
        assert all((out / name).exists() for name in tuned)
        bundle, manifest = load_split_bundle(out / "splits")
        train = bundle.train
        weights = np.where(train.labels == 0, 0.0, train.weights)
        zeroed = Dataset(train.features, train.labels, weights, train.point_ids)
        save_split_bundle(SplitBundle(zeroed, bundle.validation, bundle.test),
                          out / "splits", manifest["seed"], manifest["fractions"],
                          extra={"key": manifest["key"]})
        capsys.readouterr()
        assert run(config_path, "tune") == 2
        grid = config["grid"]
        cells = np.prod([len(grid[axis]) for axis in (
            "coreset_ratios", "det_ratios", "weight_strategies",
            "class_allocations")]) * grid["repeats"]
        failed = [line for line in (out / "run.log").read_text().splitlines()
                  if "tune: failed cell" in line]
        assert len(failed) == cells
        assert capsys.readouterr().err.count("tune: failed cell") == cells
        assert not any((out / name).exists() for name in tuned)
        assert run(config_path, "refine") == 2
        assert "run the tune command first" in capsys.readouterr().err


class TestNonBinaryLabelIds:
    def test_one_two_labels_run_through_tune(self, workdir):
        tmp_path, config_path, _ = workdir
        data = tmp_path / "data.csv"
        lines = data.read_text().splitlines()
        relabelled = [lines[0]] + [f"{row.rsplit(',', 1)[0]},{int(row[-1]) + 1}"
                                   for row in lines[1:]]
        data.write_text("\n".join(relabelled) + "\n")
        for command in ("split", "score", "build", "tune"):
            assert run(config_path, command) == 0, command
        bundle, _ = load_split_bundle(tmp_path / "run" / "splits")
        assert set(bundle.train.labels.tolist()) == {0, 1}
