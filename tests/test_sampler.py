import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import read_table
from coretune.data import Dataset
from coretune.sampler import (AllocationError, Coreset, SamplerConfig,
                              SamplingPlan, StrategyInfeasibleError,
                              ZeroWeightPointError, allocate_class_budgets,
                              assign_weights, build_coreset, coreset_to_csv,
                              sample_residual, select_deterministic)
from coretune.sensitivity import SensitivityScores, compute_scores, uniform_scores


class TestAllocateClassBudgets:
    def test_exact_proportional(self):
        assert allocate_class_budgets(100, {0: 600, 1: 400}, "proportional") == \
            {0: 60, 1: 40}

    def test_explicit_map(self):
        budgets = allocate_class_budgets(100, {0: 700, 1: 700}, {0: 0.65, 1: 0.35})
        assert budgets == {0: 65, 1: 35}

    def test_clip_and_redistribute(self):
        budgets = allocate_class_budgets(10, {0: 9000, 1: 3}, {0: 0.5, 1: 0.5})
        assert budgets == {0: 7, 1: 3}

    def test_budget_smaller_than_class_count(self):
        with pytest.raises(AllocationError):
            allocate_class_budgets(1, {0: 5, 1: 5}, "proportional")

    def test_missing_class_in_map(self):
        with pytest.raises(AllocationError, match=r"\[1\]"):
            allocate_class_budgets(10, {0: 5, 1: 5}, {0: 1.0})

    def test_tiny_class_still_positive(self):
        budgets = allocate_class_budgets(10, {0: 9000, 1: 3}, "proportional")
        assert budgets[1] >= 1
        assert budgets[0] + budgets[1] == 10

    def test_m_exceeding_population_caps_at_population(self):
        budgets = allocate_class_budgets(15, {0: 6, 1: 4}, "proportional")
        assert budgets == {0: 6, 1: 4}

    @given(st.dictionaries(st.integers(0, 5), st.integers(1, 300), min_size=2,
                           max_size=5),
           st.integers(2, 200), st.booleans())
    @settings(max_examples=100, deadline=None)
    @example(counts={0: 1, 1: 1, 2: 1, 3: 2, 4: 3}, m=8, proportional=False)
    def test_budget_properties(self, counts, m, proportional):
        if m < len(counts):
            return
        if proportional:
            policy = "proportional"
        else:
            k = len(counts)
            policy = {c: 1.0 / k for c in counts}
        budgets = allocate_class_budgets(m, counts, policy)
        assert sum(budgets.values()) == min(m, sum(counts.values()))
        for cls, budget in budgets.items():
            assert 1 <= budget <= counts[cls]


def plan_order(probs, point_ids):
    """The order a SamplingPlan ranks a class by: probability descending,
    then point_id ascending."""
    return np.lexsort((point_ids, -probs))


class TestSelectDeterministic:
    def test_top_one(self):
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        q = select_deterministic(plan_order(probs, np.arange(4)), budget=2,
                                 det_ratio=0.5)
        assert q.tolist() == [0]

    def test_zero_ratio_empty(self):
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        assert select_deterministic(plan_order(probs, np.arange(4)), 2,
                                    0.0).tolist() == []

    def test_tie_break_by_position(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        q = select_deterministic(plan_order(probs, np.arange(4)), budget=4,
                                 det_ratio=0.5)
        assert q.tolist() == [0, 1]

    def test_tie_break_by_point_id(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        ids = np.array([40, 30, 20, 10])
        q = select_deterministic(plan_order(probs, ids), budget=4,
                                 det_ratio=0.5)
        assert sorted(ids[q].tolist()) == [10, 20]


NO_Q = np.array([], dtype=int)


class TestSampleResidual:
    def test_forced_single_point(self):
        probs = np.array([0.4, 0.3, 0.3])
        positions, counts = sample_residual(probs, np.array([0, 1]), draws=5,
                                            rng=np.random.default_rng(0))
        assert positions.tolist() == [2]
        assert counts.tolist() == [5]

    def test_binomial_oracle_three_sigma(self):
        draws = 10**5
        probs = np.array([0.5, 0.5])
        positions, counts = sample_residual(probs, np.array([], dtype=int), draws,
                                            rng=np.random.default_rng(42))
        sigma = np.sqrt(draws * 0.25)
        assert positions.tolist() == [0, 1]
        assert abs(counts[0] - draws / 2) <= 3 * sigma
        assert abs(counts[1] - draws / 2) <= 3 * sigma
        assert counts[0] + counts[1] == draws

    def test_same_seed_identical(self):
        probs = np.array([0.2, 0.3, 0.5])
        a = sample_residual(probs, np.array([1]), 50, np.random.default_rng(9))
        b = sample_residual(probs, np.array([1]), 50, np.random.default_rng(9))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_all_mass_excluded(self):
        probs = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="residual"):
            sample_residual(probs, np.array([0, 1]), 3, np.random.default_rng(0))

    @staticmethod
    def assert_matches_choice(probs, q, draws, seed):
        """Coreset bytes depend on these draws being Generator.choice's."""
        ours_rng, choice_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        positions, counts = sample_residual(probs, q, draws, ours_rng)
        residual = np.setdiff1d(np.arange(len(probs)), q)
        p = probs[residual]
        picks = residual[choice_rng.choice(len(residual), size=draws,
                                           replace=True, p=p / p.sum())]
        expected = np.unique(picks, return_counts=True)
        assert np.array_equal(positions, expected[0])
        assert np.array_equal(counts, expected[1])
        # both consumed the same stream, so later draws stay in step
        assert ours_rng.bit_generator.state == choice_rng.bit_generator.state

    @pytest.mark.parametrize("probs", [
        np.array([1.0]),
        np.array([1e-300, 1.0 - 1e-300]),
        np.array([1.0 - 2e-17, 1e-17, 1e-17]),
        np.r_[np.full(999, 1e-12), 1.0 - 999e-12],
        np.full(7, 1.0 / 7),
        np.array([0.0, 0.5, 0.0, 0.5]),
    ], ids=["n1", "tiny", "extreme", "spike", "uniform", "zeros"])
    @pytest.mark.parametrize("draws", [1, 3, 500])
    def test_draws_are_choice_draws(self, probs, draws):
        qs = [NO_Q] if len(probs) == 1 else [NO_Q, np.array([len(probs) - 1])]
        for q, seed in itertools.product(qs, range(5)):
            self.assert_matches_choice(probs, q, draws, seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_probabilities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        v = rng.exponential(1.0, n) ** rng.uniform(0.5, 4.0)
        q = np.sort(rng.choice(n, size=int(rng.integers(0, n)), replace=False))
        self.assert_matches_choice(v / v.sum(), q, int(rng.integers(1, 2000)), seed)

    def test_unnormalized_probabilities_are_renormalized(self):
        for seed in range(5):
            a = sample_residual(np.array([0.5, 0.4]), NO_Q, 50,
                                np.random.default_rng(seed))
            b = sample_residual(np.array([5.0, 4.0]) / 9.0, NO_Q, 50,
                                np.random.default_rng(seed))
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("probs", [np.array([0.5, np.nan]),
                                       np.array([1.5, -0.5])],
                             ids=["nan", "negative"])
    def test_rejects_what_choice_rejects(self, probs):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(2, size=3, replace=True, p=probs)
        with pytest.raises(ValueError):
            sample_residual(probs, NO_Q, 3, np.random.default_rng(0))


class TestAssignWeights:
    def test_inv_formula(self):
        probs = np.array([0.1, 0.9])
        _, weights = assign_weights("inv", NO_Q, np.array([0]), np.array([1]),
                                    probs, m=10, source_weights=np.ones(2),
                                    prev_w=2.0)
        assert weights[0] == pytest.approx(1.0)

    def test_inv_deterministic_points_use_same_formula(self):
        probs = np.array([0.5, 0.25, 0.25])
        q_weights, weights = assign_weights("inv", np.array([0]), np.array([1]),
                                            np.array([2]), probs, m=4,
                                            source_weights=np.ones(3), prev_w=3.0)
        assert q_weights[0] == pytest.approx(1.0 / (0.5 * 4))
        assert weights[0] == pytest.approx(2.0 / (0.25 * 4))

    def test_prop_deterministic_share(self):
        probs = np.full(100, 0.01)
        q = np.array([0, 1])
        q_weights, weights = assign_weights("prop", q, np.array([5, 6]),
                                            np.array([4, 4]), probs, m=10,
                                            source_weights=np.ones(100),
                                            prev_w=100.0)
        assert q_weights[0] == pytest.approx(10.0)
        assert q_weights[1] == pytest.approx(10.0)
        assert q_weights[0] + q_weights[1] == pytest.approx(20.0)
        assert q_weights.sum() + weights.sum() == pytest.approx(100.0)

    def test_keep_empty_q_matches_hand_summation(self):
        # Five points, three of them sampled; by hand:
        # raw_i = count_i / p_i -> raw = {0: 2/.4, 2: 1/.1, 4: 2/.2} = {5,10,10}
        # scale = prev_w / 25 = 13/25 -> weights {2.6, 5.2, 5.2}
        probs = np.array([0.4, 0.2, 0.1, 0.1, 0.2])
        q_weights, weights = assign_weights("keep", NO_Q, np.array([0, 2, 4]),
                                            np.array([2, 1, 2]), probs, m=5,
                                            source_weights=np.ones(5), prev_w=13.0)
        assert len(q_weights) == 0
        assert weights[0] == pytest.approx(13.0 * 5 / 25)
        assert weights[1] == pytest.approx(13.0 * 10 / 25)
        assert weights[2] == pytest.approx(13.0 * 10 / 25)
        assert weights.sum() == pytest.approx(13.0)

    def test_keep_respects_source_weights(self):
        probs = np.array([0.5, 0.25, 0.25])
        source = np.array([3.0, 1.0, 2.0])
        q_weights, weights = assign_weights("keep", np.array([0]), np.array([1, 2]),
                                            np.array([1, 1]), probs, m=3,
                                            source_weights=source, prev_w=6.0)
        assert q_weights[0] == 3.0
        assert q_weights.sum() + weights.sum() == pytest.approx(6.0)

    def test_keep_infeasible_when_budget_exhausted(self):
        probs = np.array([0.8, 0.1, 0.1])
        source = np.array([5.0, 0.0, 0.0])
        with pytest.raises(StrategyInfeasibleError):
            assign_weights("keep", np.array([0]), np.array([1]), np.array([1]),
                           probs, m=3, source_weights=source, prev_w=5.0)

    def test_overlap_rejected(self):
        probs = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="disjoint"):
            assign_weights("inv", np.array([0]), np.array([0]), np.array([1]),
                           probs, m=2, source_weights=np.ones(2), prev_w=2.0)


def gaussian_instance(n=200, d=4, pos_fraction=0.4, seed=0):
    rng = np.random.default_rng(seed)
    n_pos = int(round(n * pos_fraction))
    X = np.vstack([rng.normal(-1.0, 1.0, size=(n - n_pos, d)),
                   rng.normal(1.0, 1.0, size=(n_pos, d))])
    y = np.array([0] * (n - n_pos) + [1] * n_pos)
    perm = rng.permutation(n)
    return Dataset(X[perm].copy(), y[perm])


class TestBuildCoreset:
    @pytest.mark.parametrize("strategy", ["inv", "keep", "prop"])
    def test_drawn_zero_weight_points_raise_a_typed_error(self, strategy):
        base = gaussian_instance(n=40)
        weights = np.tile([1.0, 0.0], 20)
        data = Dataset(base.features, base.labels, weights)
        config = SamplerConfig(10, weight_strategy=strategy, seed=0)
        with pytest.raises(ZeroWeightPointError) as info:
            build_coreset(data, uniform_scores(40), config)
        assert isinstance(info.value, StrategyInfeasibleError)
        named = [int(t) for t in
                 str(info.value).split("point_ids [")[1].split("]")[0].split(",")]
        assert named and all(weights[pid] == 0.0 for pid in named)

    def test_inverse_probability_identity_at_full_size(self):
        data = gaussian_instance(n=100)
        scores = uniform_scores(100)
        config = SamplerConfig(coreset_size=100, det_ratio=0.0,
                               weight_strategy="inv", seed=5)
        coreset = build_coreset(data, scores, config)
        # uniform probabilities at m=n make every draw weigh exactly 1
        assert coreset.total_weight == pytest.approx(100.0)
        assert coreset.counts.sum() == 100
        assert coreset.n_unique <= 100

    def test_explicit_allocation_with_deterministic_inclusion(self):
        data = gaussian_instance(n=400, pos_fraction=0.25, seed=2)
        scores = compute_scores("leverage", data)
        config = SamplerConfig(coreset_size=60, det_ratio=0.2,
                               weight_strategy="inv",
                               class_allocation={0: 0.65, 1: 0.35}, seed=0)
        coreset = build_coreset(data, scores, config)
        per_class = coreset.per_class_counts()
        assert per_class[0] <= 39 and per_class[1] <= 21
        assert coreset.counts.sum() == 60
        assert np.all(coreset.weights > 0)

    def test_budget_clipping_on_tiny_instance(self):
        data = gaussian_instance(n=10, pos_fraction=0.4, seed=3)
        scores = uniform_scores(10)
        config = SamplerConfig(coreset_size=15, seed=1)
        coreset = build_coreset(data, scores, config)
        assert coreset.n_unique <= 10
        per_class = coreset.per_class_counts()
        assert per_class[0] <= 6 and per_class[1] <= 4

    def test_deterministic_points_unique_with_provenance(self):
        data = gaussian_instance(n=120, seed=7)
        scores = compute_scores("leverage", data)
        config = SamplerConfig(coreset_size=40, det_ratio=0.3, seed=11)
        coreset = build_coreset(data, scores, config)
        det_mask = coreset.provenance == "deterministic"
        assert np.all(coreset.counts[det_mask] == 1)
        # per-class deterministic sets are the top-k by renormalized probability
        budgets = {0: 24, 1: 16}  # proportional: 72/48 of 120 -> m=40
        for cls in (0, 1):
            pos = np.flatnonzero(data.labels == cls)
            values = scores.values[pos]
            k = int(np.floor(0.3 * budgets[cls]))
            order = np.lexsort((data.point_ids[pos], -values / values.sum()))
            expected = set(data.point_ids[pos][order[:k]].tolist())
            got = set(coreset.point_ids[det_mask &
                                        (coreset.labels == cls)].tolist())
            assert got == expected

    def test_mass_conservation_keep_prop_every_seed(self):
        data = gaussian_instance(n=150, seed=9)
        scores = compute_scores("leverage", data)
        for strategy in ("keep", "prop"):
            for seed in range(25):
                config = SamplerConfig(coreset_size=30, det_ratio=0.2,
                                       weight_strategy=strategy, seed=seed)
                coreset = build_coreset(data, scores, config)
                assert coreset.total_weight == pytest.approx(150.0, rel=1e-9)

    def test_unbiasedness_of_inv(self):
        data = gaussian_instance(n=200, seed=13)
        scores = compute_scores("leverage", data)
        totals = []
        for seed in range(1000):
            config = SamplerConfig(coreset_size=40, det_ratio=0.0,
                                   weight_strategy="inv", seed=seed)
            totals.append(build_coreset(data, scores, config).total_weight)
        assert abs(np.mean(totals) / 200.0 - 1.0) < 0.02

    def test_same_seed_identical_coreset(self):
        data = gaussian_instance(n=80, seed=21)
        scores = compute_scores("leverage", data)
        config = SamplerConfig(coreset_size=20, det_ratio=0.1,
                               weight_strategy="prop", seed=123)
        a = build_coreset(data, scores, config)
        b = build_coreset(data, scores, config)
        assert np.array_equal(a.point_ids, b.point_ids)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.counts, b.counts)

    def test_labels_copied_from_source(self):
        data = gaussian_instance(n=60, seed=1)
        scores = uniform_scores(60)
        coreset = build_coreset(data, scores, SamplerConfig(coreset_size=20, seed=2))
        lookup = dict(zip(data.point_ids.tolist(), data.labels.tolist()))
        for pid, label in zip(coreset.point_ids, coreset.labels):
            assert lookup[int(pid)] == int(label)

    def test_rows_ordered_by_class_then_point_id(self):
        data = gaussian_instance(n=90, seed=17)
        scores = uniform_scores(90)
        coreset = build_coreset(data, scores,
                                SamplerConfig(coreset_size=30, det_ratio=0.2, seed=4))
        keys = list(zip(coreset.labels.tolist(), coreset.point_ids.tolist()))
        assert keys == sorted(keys)

    def test_tied_scores_take_the_smallest_point_ids(self):
        # Six points per class, shuffled across rows, with tied scores: the
        # plan's order must break the ties by point_id, not by row.
        labels = np.array([1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1])
        ids = np.array([50, 17, 3, 88, 41, 9, 62, 24, 5, 70, 33, 11])
        data = Dataset(np.zeros((12, 1)), labels, point_ids=ids)
        coreset = build_coreset(data, uniform_scores(12),
                                SamplerConfig(8, det_ratio=0.5, seed=3))
        det = coreset.provenance == "deterministic"
        for cls in (0, 1):
            smallest = np.sort(ids[labels == cls])[:2]
            assert coreset.point_ids[det & (coreset.labels == cls)].tolist() \
                == smallest.tolist()
        keys = list(zip(coreset.labels.tolist(), coreset.point_ids.tolist()))
        assert keys == sorted(keys)

    def test_scores_length_mismatch(self):
        data = gaussian_instance(n=50)
        with pytest.raises(ValueError, match="scores cover"):
            build_coreset(data, uniform_scores(49), SamplerConfig(coreset_size=10))

    def test_infeasible_strategy_names_class(self):
        # class 0's lone deterministic point carries all of the class weight,
        # so keep leaves nothing for the sampled side
        data = Dataset(np.zeros((6, 1)),
                       np.array([0, 0, 0, 1, 1, 1]),
                       weights=np.array([1.0, 0.0, 0.0, 1.0, 1.0, 1.0]))
        scores = SensitivityScores(np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02]),
                                   1.0, "manual")
        config = SamplerConfig(coreset_size=6, det_ratio=0.5,
                               weight_strategy="keep", seed=0)
        with pytest.raises(StrategyInfeasibleError, match="class 0"):
            build_coreset(data, scores, config)


GOLDEN_MAP = {0: 0.4, 1: 0.35, 2: 0.25}

# sha256 over point_ids, labels, weights and counts bytes, then the provenance
# tags. A digest that moves means every coreset artifact moves with it.
GOLDEN_DIGESTS = {
    ("inv", 0.0, "proportional"):
        "b7477bea751abae62ebac0a05aba43b1077fe697fde05f65ca940977fd92b76c",
    ("inv", 0.0, "map"):
        "96795f320f61f000122acfe084b7412659e37befb1d5e7cfdeda0434b92f2f47",
    ("inv", 0.3, "proportional"):
        "c479a873affdb4a9b503c4802b420d10dcdd7701c8da20dabb0e7a96b04d76bc",
    ("inv", 0.3, "map"):
        "21f10aafea369cec9e74490852575ea2f29a90e76e5e1a79d6be66103087a8e0",
    ("keep", 0.0, "proportional"):
        "b77ba5cc53dbac90fd19ca3b509148c7855a767f2c2b42378b13f885347b9869",
    ("keep", 0.0, "map"):
        "ac4cb12a9953ce064eb153b285f71c4f0e9b3f574a72ab12a1de18908713261d",
    ("keep", 0.3, "proportional"):
        "004cdbcecf3d8e33f91759e02c81594d99fded4e060b91877aeff18b4d53bb22",
    ("keep", 0.3, "map"):
        "bf3ad224c10a71c27ce0aa95f526df2f908b1928088f1436dd040dfeb4969172",
    ("prop", 0.0, "proportional"):
        "05d5ea5298d884dfb6a473c724a216f4ac146e6639ab3deb393c1af5fdfc71a3",
    ("prop", 0.0, "map"):
        "75646197a0c71c2720f10488a9fd3522c29a636cfa170e7648a63984d2b33b45",
    ("prop", 0.3, "proportional"):
        "fecc5efe52f2d5d99aad81313620cba43550c4a1f891e9d0411c42756457cf60",
    ("prop", 0.3, "map"):
        "2b826a28e84868b401cde3605553f4a970e86bc362b31b4d094318314f8ad4b0",
}


def golden_instance():
    """90 weighted points in 3 classes (45/30/15) with shuffled, gapped
    point_ids and skewed scores, so draws repeat and rows need reordering."""
    rng = np.random.default_rng(2024)
    labels = np.repeat([0, 1, 2], [45, 30, 15])
    perm = rng.permutation(90)
    values = rng.exponential(1.0, 90)
    data = Dataset(np.zeros((90, 1)), labels[perm],
                   weights=rng.uniform(0.5, 2.0, 90),
                   point_ids=1000 + 7 * rng.permutation(90))
    return data, SensitivityScores(values, float(values.sum()), "manual")


class TestBuildCoresetGolden:
    @pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS),
                             ids=lambda key: "-".join(map(str, key)))
    def test_bytes_pinned(self, key):
        strategy, det_ratio, alloc = key
        data, scores = golden_instance()
        config = SamplerConfig(30, det_ratio, strategy,
                               GOLDEN_MAP if alloc == "map" else alloc, seed=17)
        coreset = build_coreset(data, scores, config)
        digest = hashlib.sha256()
        for arr in (coreset.point_ids, coreset.labels, coreset.weights,
                    coreset.counts):
            digest.update(arr.tobytes())
        digest.update(",".join(coreset.provenance).encode())
        assert digest.hexdigest() == GOLDEN_DIGESTS[key]


class TestSamplingPlan:
    CONFIGS = [SamplerConfig(m, det, strategy, alloc, seed=seed)
               for m, det, strategy, alloc, seed in (
                   (30, 0.0, "inv", "proportional", 0),
                   (30, 0.3, "keep", GOLDEN_MAP, 1),
                   (12, 0.5, "prop", "proportional", 2),
                   (3, 0.0, "prop", GOLDEN_MAP, 3),
                   (90, 0.9, "inv", "proportional", 4),
                   (45, 0.2, "keep", "proportional", 5),
                   (30, 0.0, "inv", "proportional", 0))]

    def test_repeated_builds_equal_fresh_builds(self):
        data, scores = golden_instance()
        plan = SamplingPlan(data, scores)
        for _ in range(3):
            for config in self.CONFIGS:
                reused = build_coreset(data, scores, config, plan)
                fresh = build_coreset(data, scores, config)
                for name in ("point_ids", "labels", "weights", "counts",
                             "provenance"):
                    assert np.array_equal(getattr(reused, name),
                                          getattr(fresh, name)), name
                assert reused.weights.tobytes() == fresh.weights.tobytes()

    def test_plan_of_other_inputs_rejected(self):
        data, scores = golden_instance()
        other, other_scores = golden_instance()
        plan = SamplingPlan(data, scores)
        for args in ((other, scores), (data, other_scores)):
            with pytest.raises(ValueError, match="sampling plan"):
                build_coreset(*args, self.CONFIGS[0], plan)

    def test_scores_must_cover_the_dataset(self):
        data, _ = golden_instance()
        with pytest.raises(ValueError, match="scores cover"):
            SamplingPlan(data, uniform_scores(data.n - 1))


class TestCoresetInvariantsAndIo:
    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            Coreset(np.array([1, 2]), np.array([1.0, 0.0]), np.array([0, 1]),
                    np.array(["sampled", "sampled"], dtype=object),
                    np.array([1, 1]))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Coreset(np.array([1, 1]), np.array([1.0, 1.0]), np.array([0, 1]),
                    np.array(["sampled", "sampled"], dtype=object),
                    np.array([1, 1]))

    def test_csv_round_trip(self, tmp_path):
        data = gaussian_instance(n=50, seed=3)
        coreset = build_coreset(data, uniform_scores(50),
                                SamplerConfig(coreset_size=20, det_ratio=0.25,
                                              weight_strategy="prop", seed=7))
        path = tmp_path / "coreset.csv"
        coreset_to_csv(coreset, path, header_comment="config_hash=deadbeef")
        columns, rows = read_table(path)
        cells = dict(zip(columns, zip(*rows)))
        # Coreset.__post_init__ parses each string column into its dtype.
        back = Coreset(cells["point_id"], cells["weight"], cells["class"],
                       cells["provenance"], cells["count"])
        assert np.array_equal(coreset.point_ids, back.point_ids)
        assert np.allclose(coreset.weights, back.weights)
        assert np.array_equal(coreset.counts, back.counts)
        assert list(coreset.provenance) == list(back.provenance)

    @staticmethod
    def shuffled_source():
        data = gaussian_instance(n=30, seed=4)
        order = np.random.default_rng(0).permutation(30)
        return Dataset(data.features[order], data.labels[order],
                       point_ids=order + 100)

    @staticmethod
    def coreset_of(ids, labels):
        return Coreset(ids, np.full(len(ids), 2.0), labels,
                       np.array(["sampled"] * len(ids), dtype=object),
                       np.ones(len(ids)))

    def test_materialize_gathers_rows_by_id(self):
        source = self.shuffled_source()
        ids = np.array([117, 100, 129, 105])
        rows = source.subset_by_ids(ids)
        features, labels, weights = self.coreset_of(ids, rows.labels).materialize(
            source)
        assert np.array_equal(features, rows.features)
        assert np.array_equal(labels, rows.labels)
        assert np.array_equal(weights, np.full(4, 2.0))

    def test_materialize_rejects_unknown_ids_and_other_labels(self):
        source = self.shuffled_source()
        with pytest.raises(KeyError, match="130"):
            self.coreset_of(np.array([101, 130]), np.array([0, 1])).materialize(
                source)
        ids = np.array([101, 102])
        flipped = 1 - source.subset_by_ids(ids).labels
        with pytest.raises(ValueError, match="disagree"):
            self.coreset_of(ids, flipped).materialize(source)


class TestSamplerConfig:
    def test_det_ratio_one_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(coreset_size=10, det_ratio=1.0)

    @pytest.mark.parametrize("value", [True, False, "0.2", None])
    def test_det_ratio_is_a_number(self, value):
        with pytest.raises(ValueError, match="det_ratio must be a real number"):
            SamplerConfig(coreset_size=10, det_ratio=value)

    @pytest.mark.parametrize("kwargs,field", [
        ({"coreset_size": 2.5}, "coreset_size"),
        ({"coreset_size": True}, "coreset_size"),
        ({"coreset_size": 8, "seed": -1}, "seed"),
        ({"coreset_size": 8, "seed": 1.0}, "seed")])
    def test_size_and_seed_are_integers(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            SamplerConfig(**kwargs)

    def test_numpy_integers_are_stored_as_int(self):
        config = SamplerConfig(np.int64(8), det_ratio=np.float64(0.25),
                               seed=np.int32(3))
        assert config == SamplerConfig(8, det_ratio=0.25, seed=3)
        assert (type(config.coreset_size), type(config.det_ratio),
                type(config.seed)) == (int, float, int)

    @pytest.mark.parametrize("alloc", [{0: 0.6, 1: 0.6},
                                       {0: float("nan"), 1: 0.5}])
    def test_explicit_fractions_must_sum_to_one(self, alloc):
        with pytest.raises(ValueError, match="summing to 1"):
            SamplerConfig(coreset_size=10, class_allocation=alloc)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            SamplerConfig(coreset_size=10, weight_strategy="mean")

    def test_allocation_spellings_are_one_config(self):
        spellings = ({0: 0.65, 1: 0.35}, {"1": 0.35, "0": 0.65},
                     ((0, 0.65), (1, 0.35)), ((1, 0.35), (0, 0.65)))
        configs = [SamplerConfig(10, class_allocation=a) for a in spellings]
        assert all(c == configs[0] for c in configs)
        assert len({hash(c) for c in configs}) == 1
        assert configs[0].class_allocation == ((0, 0.65), (1, 0.35))

    def test_multi_digit_classes_render_in_class_order(self):
        config = SamplerConfig(10, class_allocation={10: 0.5, 2: 0.5})
        # The bytes best_config.json and trials.csv have always held.
        assert json.dumps(config.to_dict()) == (
            '{"coreset_size": 10, "det_ratio": 0.0, "weight_strategy": "inv", '
            '"class_allocation": {"2": 0.5, "10": 0.5}, "seed": 0}')
        assert config.allocation_label() == '{"2": 0.5, "10": 0.5}'
        assert SamplerConfig(10).allocation_label() == "proportional"
        assert SamplerConfig(**config.to_dict()) == config

    @pytest.mark.parametrize("alloc", ["equal", None, [[0, 0.5], [1, 0.5]],
                                       {"a": 1.0}, {0: None}, ((0,),),
                                       {0: True}, {0: "0.5", 1: "0.5"}])
    def test_malformed_allocation_rejected(self, alloc):
        with pytest.raises(ValueError, match="class -> fraction map"):
            SamplerConfig(coreset_size=10, class_allocation=alloc)

    @given(st.floats(0.0, 0.999), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_set_always_below_budget(self, det_ratio, budget):
        k = int(np.floor(det_ratio * budget))
        assert k < budget
