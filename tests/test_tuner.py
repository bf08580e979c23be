import gc
import hashlib
import itertools
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import golden_splits
from coretune.data import CSRMatrix, Dataset, stratified_split
from coretune.learners import TrainConfig, train
from coretune.refine import RefineConfig
from coretune.sampler import build_coreset
from coretune.sensitivity import compute_scores
from coretune.tuner import (Cell, GridSpec, TrialResult, coreset_size_for,
                            compare_to_baselines, curve_rows, enumerate_cells,
                            refine_best, run_grid, trials_to_csv)


def imbalanced_problem(n=400, d=5, pos_fraction=0.25, seed=0, sep=1.5):
    rng = np.random.default_rng(seed)
    n_pos = int(round(n * pos_fraction))
    X = np.vstack([rng.normal(-sep / 2, 1.0, size=(n - n_pos, d)),
                   rng.normal(sep / 2, 1.0, size=(n_pos, d))])
    y = np.array([0] * (n - n_pos) + [1] * n_pos)
    perm = rng.permutation(n)
    data = Dataset(X[perm].copy(), y[perm])
    return stratified_split(data, (0.7, 0.15, 0.15), seed=seed)


SMALL_GRID = GridSpec(coreset_ratios=(0.2, 0.35),
                      det_ratios=(0.0, 0.2),
                      weight_strategies=("inv", "prop"),
                      class_allocations=("proportional", {0: 0.5, 1: 0.5}),
                      sensitivity_provider="leverage",
                      repeats=2, base_seed=7)


class TestEnumerateCells:
    def test_full_sweep_cell_count(self):
        grid = GridSpec(
            coreset_ratios=(0.005, 0.05375, 0.1025, 0.15125, 0.2),
            det_ratios=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
            weight_strategies=("inv", "prop", "keep"),
            class_allocations=tuple({0: p / 100, 1: 1 - p / 100}
                                    for p in (80, 75, 70, 65, 60, 55, 50)))
        cells = enumerate_cells(grid, TrainConfig())
        product = 5 * 6 * 3 * 7
        vanilla = 5
        assert len(cells) == product + vanilla
        assert sum(c.vanilla for c in cells) == vanilla

    def test_vanilla_cells_come_first_and_dedupe(self):
        grid = GridSpec(coreset_ratios=(0.1,), det_ratios=(0.0,),
                        weight_strategies=("inv",),
                        class_allocations=("proportional",))
        cells = enumerate_cells(grid, TrainConfig())
        assert len(cells) == 1  # the product cell IS the vanilla cell
        assert cells[0].vanilla

    def test_vanilla_cells_use_vanilla_knobs(self):
        cells = enumerate_cells(SMALL_GRID, TrainConfig())
        vanilla = [c for c in cells if c.vanilla]
        assert [c.coreset_ratio for c in vanilla] == list(SMALL_GRID.coreset_ratios)
        for cell in vanilla:
            assert cell.knobs.det_ratio == 0.0
            assert cell.knobs.weight_strategy == "inv"
            assert cell.knobs.class_allocation == "proportional"

    def test_allocation_spellings_yield_one_cell(self):
        grid = GridSpec(coreset_ratios=(0.1,),
                        class_allocations=({0: 0.65, 1: 0.35},
                                           {"1": 0.35, "0": 0.65},
                                           ((0, 0.65), (1, 0.35))))
        assert grid.class_allocations == (((0, 0.65), (1, 0.35)),) * 3
        tuned = [c for c in enumerate_cells(grid, TrainConfig()) if not c.vanilla]
        assert len(tuned) == 1
        assert tuned[0].knobs.class_allocation == ((0, 0.65), (1, 0.35))

    def test_indices_are_serial(self):
        cells = enumerate_cells(SMALL_GRID, TrainConfig())
        assert [c.index for c in cells] == list(range(len(cells)))

    def test_cells_without_an_axis_keep_their_order(self):
        # Vanilla cells per ratio, then the product ratio-major with the
        # vanilla knobs dropped: cell indices, and so trial seeds, stay put.
        grid = SMALL_GRID
        vanilla = (0.0, "inv", "proportional")
        expected = [(r, *vanilla, True) for r in grid.coreset_ratios] + [
            (r, d, s, a, False) for r, d, s, a in itertools.product(
                grid.coreset_ratios, grid.det_ratios, grid.weight_strategies,
                grid.class_allocations) if (d, s, a) != vanilla]
        cells = enumerate_cells(grid, TrainConfig())
        assert [(c.coreset_ratio, c.knobs.det_ratio, c.knobs.weight_strategy,
                 c.knobs.class_allocation, c.vanilla) for c in cells] == expected
        assert all(c.train_config == TrainConfig() for c in cells)

    def test_vanilla_cells_cross_the_regularization_axis(self):
        grid = replace(SMALL_GRID, regularizations=(0.1, 10.0))
        cells = enumerate_cells(grid, TrainConfig())
        vanilla = [(c.coreset_ratio, c.train_config) for c in cells if c.vanilla]
        assert vanilla == list(itertools.product(grid.coreset_ratios, (
            TrainConfig(regularization=0.1), TrainConfig(regularization=10.0))))
        assert len(cells) == 2 * len(enumerate_cells(SMALL_GRID, TrainConfig()))
        assert len({c.key() for c in cells}) == len(cells)


class TestRunGrid:
    def test_single_cell_grid_ranks_it_first(self):
        splits = imbalanced_problem()
        grid = GridSpec(coreset_ratios=(0.3,), sensitivity_provider="uniform",
                        base_seed=1)
        result = run_grid(splits, grid, TrainConfig())
        assert len(result.trials) == 1
        assert result.best is result.trials[0]
        assert result.best.vanilla

    def test_zero_weight_points_fail_cells_not_the_grid(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 3))
        y = (rng.random(200) < 0.3).astype(int)
        data = Dataset(X, y, np.tile([1.0, 0.0], 100))
        splits = stratified_split(data, (0.6, 0.2, 0.2), seed=0)
        grid = GridSpec(coreset_ratios=(0.1, 0.3), det_ratios=(0.0, 0.2))
        result = run_grid(splits, grid, TrainConfig())
        assert result.trials == []
        assert len(result.failures) == len(enumerate_cells(grid, TrainConfig()))
        for failure in result.failures:
            assert "source weight 0" in failure.error

    def test_determinism(self):
        splits = imbalanced_problem(seed=1)
        a = run_grid(splits, SMALL_GRID, TrainConfig())
        b = run_grid(splits, SMALL_GRID, TrainConfig())
        assert [(t.cell_index, t.repeat, t.seed) for t in a.trials] == \
            [(t.cell_index, t.repeat, t.seed) for t in b.trials]
        assert [t.validation.f1 for t in a.trials] == \
            [t.validation.f1 for t in b.trials]

    def test_ranking_uses_validation_only(self):
        splits = imbalanced_problem(seed=2)
        result = run_grid(splits, SMALL_GRID, TrainConfig())
        # permuting test labels must not change the ranking
        rng = np.random.default_rng(0)
        test = splits.test
        permuted = Dataset(test.features, test.labels[rng.permutation(test.n)],
                           test.weights, test.point_ids)
        from coretune.data import SplitBundle
        shuffled = SplitBundle(splits.train, splits.validation, permuted)
        again = run_grid(shuffled, SMALL_GRID, TrainConfig())
        assert [t.cell_index for t in result.trials] == \
            [t.cell_index for t in again.trials]
        assert [t.validation.f1 for t in result.trials] == \
            [t.validation.f1 for t in again.trials]

    def test_seeds_follow_flat_index(self):
        splits = imbalanced_problem(seed=3)
        result = run_grid(splits, SMALL_GRID, TrainConfig())
        for t in result.trials:
            assert t.seed == SMALL_GRID.base_seed + t.cell_index * \
                SMALL_GRID.repeats + t.repeat

    def test_failed_cells_excluded_but_run_continues(self):
        splits = imbalanced_problem(n=300, seed=4)
        # an allocation map that misses class 1 makes its cells infeasible;
        # the injected vanilla cell must still succeed
        grid = GridSpec(coreset_ratios=(0.3,),
                        det_ratios=(0.0,),
                        weight_strategies=("inv",),
                        class_allocations=({0: 1.0},),
                        sensitivity_provider="uniform", base_seed=0)
        result = run_grid(splits, grid, TrainConfig())
        assert len(result.failures) == 1
        assert "missing classes" in result.failures[0].error
        assert len(result.trials) == 1 and result.trials[0].vanilla
        ranked_cells = {s.cell.index for s in result.summaries}
        assert result.failures[0].cell_index not in ranked_cells

    def test_serial_grid_keeps_no_inputs_alive(self):
        splits = imbalanced_problem(seed=5)
        alive = weakref.ref(splits)
        run_grid(splits, SMALL_GRID, TrainConfig())
        del splits
        gc.collect()
        assert alive() is None

    def test_trial_record_round_trips(self):
        result = run_grid(imbalanced_problem(seed=6), SMALL_GRID, TrainConfig())
        for t in result.trials:
            back = TrialResult.from_dict(json.loads(json.dumps(t.to_dict())))
            assert back.config == t.config
            assert back == replace(t, coreset_stats=None)

    def test_mean_ranking_over_repeats(self):
        splits = imbalanced_problem(seed=6)
        result = run_grid(splits, SMALL_GRID, TrainConfig())
        means = {s.cell.index: s.mean_validation_f1 for s in result.summaries}
        ranked = [means[s.cell.index] for s in result.summaries]
        assert ranked == sorted(ranked, reverse=True)
        # repeats of one cell stay adjacent in the ranked trials
        seen = []
        for t in result.trials:
            if not seen or seen[-1] != t.cell_index:
                seen.append(t.cell_index)
        assert len(seen) == len(set(seen))


    def test_usable_cpus_without_cpu_affinity(self, monkeypatch):
        import os

        import coretune.tuner

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert coretune.tuner._usable_cpus() == (os.cpu_count() or 1)

    def test_pool_is_clamped_to_usable_cpus(self, monkeypatch):
        import concurrent.futures

        import coretune.tuner

        sizes = []

        class InlinePool:
            """Records the pool size and runs the tasks in this process."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(coretune.tuner.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        splits = imbalanced_problem(seed=5)
        serial = run_grid(splits, SMALL_GRID, TrainConfig())
        pooled = run_grid(splits, SMALL_GRID, TrainConfig(), workers=64)
        assert sizes == [2]
        assert pooled.trials == serial.trials
        # one usable CPU: no pool at all
        monkeypatch.setattr(coretune.tuner.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        assert run_grid(splits, SMALL_GRID, TrainConfig(),
                        workers=4).trials == serial.trials
        assert sizes == [2]


GOLDEN_GRID = dict(coreset_ratios=(0.1, 0.25), det_ratios=(0.0, 0.2, 0.5),
                   weight_strategies=("inv", "keep", "prop"),
                   class_allocations=("proportional", {0: 0.6, 1: 0.4}),
                   repeats=2, base_seed=11)

# sha256 of trials.csv for GOLDEN_GRID on golden_splits(sparse); every
# speedup of the grid path must leave these bytes unchanged. The CSR pin
# moved once, when CSR Lewis weights stopped densifying the matrix: only
# total_weight changed, in 11 of 72 rows, by at most 2.2e-16 relative. The
# dense pin moved once, when dense leverage came from the Gram instead of an
# SVD: only total_weight changed, in 27 of 72 rows, by at most 4.4e-16.
GOLDEN_TRIALS = {
    False: "af1d5829606d2903771bc40cc03413cc20d79d147bc3b567f18337f46eb87b66",
    True: "3338e5da662be7577d11034ed009e92be1ef7abe6ac5e9d915f7ca50f683c2ef",
}


class TestRunGridGolden:
    # A pooled grid must write the serial grid's bytes: same trial order,
    # same fits.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sparse,provider", [(False, "leverage"),
                                                 (True, "lewis")],
                             ids=["dense-leverage", "csr-lewis"])
    def test_trials_csv_bytes_pinned(self, tmp_path, sparse, provider, workers):
        splits = golden_splits(sparse)
        assert isinstance(splits.train.features, CSRMatrix) == sparse
        result = run_grid(splits, GridSpec(sensitivity_provider=provider,
                                           **GOLDEN_GRID), TrainConfig(),
                          workers=workers)
        assert len(result.trials) == 72 and not result.failures
        path = tmp_path / "trials.csv"
        trials_to_csv(result, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            GOLDEN_TRIALS[sparse]


class TestCompareAndCurves:
    def test_full_baseline_once_per_split(self):
        splits = imbalanced_problem(seed=7)
        grid = GridSpec(coreset_ratios=(0.3,), det_ratios=(0.0, 0.2),
                        sensitivity_provider="leverage", base_seed=2)
        result = run_grid(splits, grid, TrainConfig())
        rows = compare_to_baselines(splits, result.best,
                                    compute_scores(result.best.provider, splits.train))
        methods = [(r.method, r.split) for r in rows]
        for method in ("tuned", "vanilla", "random", "full"):
            assert methods.count((method, "validation")) == 1
            assert methods.count((method, "test")) == 1

    def test_degenerate_grid_tuned_equals_vanilla(self):
        splits = imbalanced_problem(seed=8)
        grid = GridSpec(coreset_ratios=(0.3,), sensitivity_provider="leverage",
                        base_seed=3)
        result = run_grid(splits, grid, TrainConfig())
        assert result.best.vanilla
        rows = compare_to_baselines(splits, result.best,
                                    compute_scores(result.best.provider, splits.train))
        by_key = {(r.method, r.split): r for r in rows}
        for split in ("validation", "test"):
            tuned = by_key[("tuned", split)]
            vanilla = by_key[("vanilla", split)]
            assert tuned.f1 == pytest.approx(vanilla.f1)
            assert tuned.balanced_accuracy == pytest.approx(
                vanilla.balanced_accuracy)

    def test_tuned_rows_are_the_best_trials_metrics(self, monkeypatch):
        import coretune.tuner

        splits = imbalanced_problem(seed=7)
        result = run_grid(splits, SMALL_GRID, TrainConfig())
        builds = []

        def counting(data, scores, config):
            builds.append(config)
            return build_coreset(data, scores, config)

        monkeypatch.setattr(coretune.tuner, "build_coreset", counting)
        rows = compare_to_baselines(splits, result.best,
                                    compute_scores(result.best.provider, splits.train))
        # only the vanilla and random coresets are built; tuned is not retrained
        assert len(builds) == 2
        assert all(c.coreset_size == result.best.config.coreset_size
                   for c in builds)
        for split, report in (("validation", result.best.validation),
                              ("test", result.best.test)):
            tuned = next(r for r in rows if (r.method, r.split) == ("tuned", split))
            assert (tuned.balanced_accuracy, tuned.f1, tuned.roc_auc) == \
                (report.balanced_accuracy, report.f1, report.roc_auc)

    def test_baselines_train_at_the_best_trials_regularization(self, monkeypatch):
        import coretune.tuner

        splits = imbalanced_problem(seed=7)
        result = run_grid(splits, replace(SMALL_GRID, regularizations=(0.1, 10.0)),
                          TrainConfig())
        best_c = result.best.train_config.regularization
        assert best_c != TrainConfig().regularization
        trained_with = []

        def recording(features, labels, weights, train_config):
            trained_with.append(train_config.regularization)
            return train(features, labels, weights, train_config)

        monkeypatch.setattr(coretune.tuner, "train", recording)
        compare_to_baselines(splits, result.best,
                             compute_scores(result.best.provider, splits.train))
        assert trained_with == [best_c] * 3  # vanilla, random, full

    def test_curve_rows_cover_each_ratio(self):
        splits = imbalanced_problem(seed=9)
        result = run_grid(splits, SMALL_GRID, TrainConfig())
        rows = curve_rows(result.summaries)
        ratios = {r[0] for r in rows}
        assert ratios == {0.2, 0.35}
        for ratio in ratios:
            methods = {(r[1], r[2]) for r in rows if r[0] == ratio}
            assert ("tuned", "validation") in methods
            assert ("vanilla", "test") in methods

    def test_trials_csv(self, tmp_path):
        splits = imbalanced_problem(seed=10)
        grid = GridSpec(coreset_ratios=(0.3,), det_ratios=(0.0, 0.1),
                        sensitivity_provider="uniform", base_seed=4)
        result = run_grid(splits, grid, TrainConfig())
        path = tmp_path / "trials.csv"
        trials_to_csv(result, path, header_comment="config_hash=cafe")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# config_hash=cafe"
        header = lines[1].split(",")
        assert header[0] == "rank"
        assert len(lines) == 2 + len(result.trials)


class TestRefineBest:
    def test_rejected_refinement_keeps_metrics(self):
        splits = imbalanced_problem(seed=11)
        grid = GridSpec(coreset_ratios=(0.4,), sensitivity_provider="leverage",
                        base_seed=5)
        result = run_grid(splits, grid, TrainConfig())

        def never_better(model, validation):
            return -1.0

        scores = compute_scores(result.best.provider, splits.train)
        kept, trace = refine_best(splits, result.best,
                                  RefineConfig(batch_size=10, patience=1,
                                               metric=never_better), scores)
        assert trace.decision == "kept_original"
        best = build_coreset(splits.train, scores, result.best.config)
        for name in ("point_ids", "weights", "labels", "provenance", "counts"):
            np.testing.assert_array_equal(getattr(kept, name), getattr(best, name))

    def test_accepted_refinement_improves_validation_metric(self):
        splits = imbalanced_problem(seed=12, sep=1.0)
        grid = GridSpec(coreset_ratios=(0.15,), sensitivity_provider="uniform",
                        base_seed=6)
        result = run_grid(splits, grid, TrainConfig())
        _, trace = refine_best(splits, result.best,
                               RefineConfig(batch_size=15, patience=2, metric="f1"),
                               compute_scores(result.best.provider, splits.train))
        assert trace.phi_original == pytest.approx(result.best.validation.f1)
        if trace.decision == "kept_refined":
            assert trace.phi_refined > trace.phi_original
        assert len(trace.rounds) <= (result.best.config.coreset_size
                                     + splits.train.n)

    def test_rounds_capped(self):
        splits = imbalanced_problem(seed=13)
        grid = GridSpec(coreset_ratios=(0.2,), sensitivity_provider="uniform",
                        base_seed=7)
        result = run_grid(splits, grid, TrainConfig())
        _, trace = refine_best(splits, result.best,
                               RefineConfig(batch_size=5, patience=50,
                                            max_rounds=3, metric="f1"),
                               compute_scores(result.best.provider, splits.train))
        assert len(trace.rounds) <= 3


class TestGridSpecValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(coreset_ratios=())
        with pytest.raises(ValueError, match="regularizations"):
            GridSpec((0.1,), regularizations=())

    @pytest.mark.parametrize("field,value", [
        ("repeats", 1.5), ("repeats", True), ("base_seed", -1),
        ("base_seed", 2.0)])
    def test_counts_and_seed_are_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            GridSpec((0.1,), **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_regularizations_are_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="regularizations"):
            GridSpec((0.1,), regularizations=(1.0, value))

    def test_real_axes_are_stored_as_float(self):
        grid = GridSpec([1], det_ratios=[0], regularizations=[2])
        assert (grid.coreset_ratios, grid.det_ratios, grid.regularizations) == \
            ((1.0,), (0.0,), (2.0,))
        assert all(type(v) is float for v in
                   grid.coreset_ratios + grid.det_ratios + grid.regularizations)

    @pytest.mark.parametrize("axis,value", [
        ("coreset_ratios", True), ("coreset_ratios", "0.2"),
        ("det_ratios", False), ("det_ratios", "0.2")])
    def test_ratio_axes_are_numbers(self, axis, value):
        kwargs = {"coreset_ratios": (0.1,), axis: (value,)}
        with pytest.raises(ValueError, match=f"{axis} must be a real number"):
            GridSpec(**kwargs)

    def test_ratio_range(self):
        with pytest.raises(ValueError):
            GridSpec(coreset_ratios=(1.5,))
        with pytest.raises(ValueError):
            GridSpec(coreset_ratios=(0.0,))

    def test_det_ratio_range(self):
        with pytest.raises(ValueError):
            GridSpec(coreset_ratios=(0.1,), det_ratios=(1.0,))

    def test_allocation_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="summing to 1"):
            GridSpec(coreset_ratios=(0.1,),
                     class_allocations=({0: 0.6, 1: 0.6},))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            GridSpec(coreset_ratios=(0.1,), weight_strategies=("mean",))

    def test_coreset_size_for_clamps(self):
        assert coreset_size_for(0.001, 100, 2) == 2
        assert coreset_size_for(1.0, 100, 2) == 100
        assert coreset_size_for(0.155, 1000, 2) == 155
