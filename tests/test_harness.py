"""Synthetic generation, evaluation metrics, clustering, projection."""

import numpy as np
import pytest

from untangler import harness
from untangler.harness import (GoldStandard, SynthConfig, agglomerative,
                               edge_prf, generate, partition_ari, project_3d)
from untangler.temporal import HawkesModel


def small_config(**kw):
    defaults = dict(
        topic_pools=[["a1", "a2", "a3"], ["b1", "b2", "b3"]],
        hawkes=[HawkesModel(0.5, 0.2, 1.0)] * 2,
        posts_per_conversation=(5, 8),
        gap_seconds=500.0,
        tokens_per_post=(2, 4),
        temperature=1.0,
    )
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestSynthConfig:
    def test_valid(self):
        small_config().validate()

    def test_pool_hawkes_mismatch(self):
        with pytest.raises(ValueError):
            small_config(hawkes=[HawkesModel(1, 0, 1)]).validate()

    def test_overlapping_pools_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            small_config(topic_pools=[["x", "y"], ["y", "z"]]).validate()

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            small_config(topic_pools=[["x"], []]).validate()

    def test_posts_lower_bound(self):
        with pytest.raises(ValueError):
            small_config(posts_per_conversation=(0, 5)).validate()


class TestGenerate:
    def test_deterministic(self):
        t1, g1 = generate(small_config(), seed=4)
        t2, g2 = generate(small_config(), seed=4)
        assert t1 == t2
        assert g1 == g2
        t3, _ = generate(small_config(), seed=5)
        assert t1 != t3

    def test_thread_sorted_and_sized(self):
        thread, gold = generate(small_config(), seed=1)
        times = thread.timestamps
        assert times == sorted(times)
        assert 10 <= len(thread) <= 16
        assert set(gold.labels) == set(range(len(thread)))

    def test_gold_parents_are_earlier_same_conversation(self):
        thread, gold = generate(small_config(), seed=2)
        for child, parent in gold.parents.items():
            assert parent < child
            assert gold.labels[parent] == gold.labels[child]

    def test_one_root_per_conversation(self):
        _, gold = generate(small_config(), seed=3)
        for conv in set(gold.labels.values()):
            members = [i for i, l in gold.labels.items() if l == conv]
            roots = [i for i in members if i not in gold.parents]
            assert len(roots) == 1

    def test_texts_use_conversation_pool(self):
        config = small_config()
        thread, gold = generate(config, seed=6)
        for i, post in enumerate(thread.posts):
            pool = set(config.topic_pools[gold.labels[i]])
            assert set(post.text.split()) <= pool

    def test_high_temperature_prefers_recent_parent(self):
        config = small_config(temperature=1e6, posts_per_conversation=(30, 30),
                              topic_pools=[["a"]], hawkes=[HawkesModel(0.5, 0.2, 1.0)])
        thread, gold = generate(config, seed=7)
        # with extreme recency weighting almost every parent is the
        # immediately preceding post of the same conversation
        hits = sum(1 for c, p in gold.parents.items() if p == c - 1)
        assert hits / len(gold.parents) > 0.9

    def test_gold_round_trip(self):
        _, gold = generate(small_config(), seed=8)
        assert GoldStandard.from_json(gold.to_json()) == gold


class TestEdgePrf:
    def test_perfect(self):
        gold = {1: 0, 2: 1}
        assert edge_prf(gold, gold) == (1.0, 1.0, 1.0)

    def test_known_mix(self):
        pred = {1: 0, 2: 0, 3: 2}
        gold = {1: 0, 2: 1, 3: 2, 4: 3}
        p, r, f1 = edge_prf(pred, gold)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 4)
        assert f1 == pytest.approx(2 * (2 / 3) * 0.5 / (2 / 3 + 0.5))

    def test_empty_cases(self):
        assert edge_prf({}, {}) == (1.0, 1.0, 1.0)
        assert edge_prf({}, {1: 0})[2] == 0.0
        assert edge_prf({1: 0}, {})[2] == 0.0


class TestPartitionAri:
    def test_identical_partitions(self):
        labels = {0: 0, 1: 0, 2: 1, 3: 1}
        assert partition_ari(labels, labels) == pytest.approx(1.0)

    def test_label_names_irrelevant(self):
        a = {0: 0, 1: 0, 2: 1, 3: 1}
        b = {0: 9, 1: 9, 2: 4, 3: 4}
        assert partition_ari(a, b) == pytest.approx(1.0)

    def test_single_cluster_vs_singletons(self):
        a = {i: 0 for i in range(6)}
        b = {i: i for i in range(6)}
        assert partition_ari(a, b) == pytest.approx(0.0)

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            partition_ari({0: 0}, {1: 0})

    def test_empty(self):
        assert partition_ari({}, {}) == 1.0
        assert partition_ari({0: 3}, {0: 7}) == 1.0

    def test_matches_sklearn_on_random_partitions(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 5, size=n)
            ours = partition_ari({i: int(a[i]) for i in range(n)},
                                 {i: int(b[i]) for i in range(n)})
            theirs = sklearn_metrics.adjusted_rand_score(a, b)
            assert ours == pytest.approx(theirs, abs=1e-12)


class TestAgglomerative:
    def test_two_obvious_clusters(self):
        emb = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.05],
                        [-1.0, 0.1], [-0.9, 0.0], [-0.95, -0.1]])
        labels = agglomerative(emb, 2)
        assert list(labels) == [0, 0, 0, 1, 1, 1]

    def test_labels_ordered_by_smallest_member(self):
        emb = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.9], [0.9, 0.1]])
        labels = agglomerative(emb, 2)
        assert list(labels) == [0, 1, 0, 1]

    def test_extremes(self):
        emb = np.random.default_rng(0).standard_normal((5, 3))
        assert set(agglomerative(emb, 1)) == {0}
        assert list(agglomerative(emb, 5)) == [0, 1, 2, 3, 4]

    def test_validation(self):
        emb = np.zeros((3, 2))
        with pytest.raises(ValueError):
            agglomerative(emb, 0)
        with pytest.raises(ValueError):
            agglomerative(emb, 4)
        with pytest.raises(ValueError):
            agglomerative(np.zeros((0, 2)), 1)

    def test_deterministic(self):
        emb = np.random.default_rng(5).standard_normal((20, 4))
        np.testing.assert_array_equal(agglomerative(emb, 4), agglomerative(emb, 4))


class TestProject3d:
    def test_matches_svd_variance(self):
        rng = np.random.default_rng(9)
        emb = rng.standard_normal((40, 8)) @ rng.standard_normal((8, 8))
        coords = project_3d(emb)
        assert coords.shape == (40, 3)
        centered = emb - emb.mean(axis=0)
        top3 = np.sort(np.linalg.svd(centered, compute_uv=False))[::-1][:3] ** 2
        ours = np.sort(np.sum(coords ** 2, axis=0))[::-1]
        np.testing.assert_allclose(ours, top3, rtol=1e-6)

    def test_low_rank_data(self):
        base = np.random.default_rng(10).standard_normal((30, 1))
        emb = base @ np.ones((1, 5))  # rank 1
        coords = project_3d(emb)
        assert np.sum(coords[:, 1] ** 2) == pytest.approx(0.0, abs=1e-6)
        assert np.sum(coords[:, 2] ** 2) == pytest.approx(0.0, abs=1e-6)

    def test_degenerate_identical_rows(self):
        coords = project_3d(np.ones((5, 4)))
        np.testing.assert_allclose(coords, 0.0, atol=1e-12)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            project_3d(np.zeros((2, 4)))

    def test_largest_loading_of_each_axis_is_positive(self):
        rng = np.random.default_rng(11)
        emb = rng.standard_normal((30, 6)) @ rng.standard_normal((6, 6))
        centered = emb - emb.mean(axis=0)
        axes = np.linalg.svd(centered, full_matrices=False)[2][:3].T  # signs arbitrary
        axes *= np.sign(axes[np.argmax(np.abs(axes), axis=0), np.arange(3)])
        np.testing.assert_allclose(project_3d(emb), centered @ axes, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("d", [1, 2])
    def test_fewer_than_three_dims_pad_with_zeros(self, d):
        emb = np.random.default_rng(12).standard_normal((10, d))
        coords = project_3d(emb)
        assert coords.shape == (10, 3)
        np.testing.assert_array_equal(coords[:, d:], 0.0)
        centered = emb - emb.mean(axis=0)
        np.testing.assert_allclose(np.sum(coords ** 2), np.sum(centered ** 2), rtol=1e-12)

    def test_row_permutation_permutes_output(self):
        rng = np.random.default_rng(13)
        emb = rng.standard_normal((25, 5)) @ rng.standard_normal((5, 5))
        order = rng.permutation(25)
        np.testing.assert_allclose(project_3d(emb[order]), project_3d(emb)[order],
                                   rtol=0, atol=1e-10)
