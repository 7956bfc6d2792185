"""Synthetic generation, evaluation metrics, clustering, projection."""

import random
import runpy
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from untangler import cli, graph, harness, ingest, score
from untangler.harness import (GoldStandard, SynthConfig, agglomerative,
                               edge_prf, generate, partition_ari, project_3d)
from untangler.temporal import HawkesModel

from oracles import (reference_agglomerative, reference_ari, reference_generate,
                     reference_gold_json, reference_thread_jsonl)

# the benchmark's workloads, read from its own file
BENCH = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))


def small_config(**kw):
    defaults = dict(
        n_conversations=2,
        pool_size=3,
        hawkes=HawkesModel(0.5, 0.2, 1.0),
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

    def test_posts_lower_bound(self):
        with pytest.raises(ValueError):
            small_config(posts_per_conversation=(0, 5)).validate()

    @pytest.mark.parametrize("field", ["n_conversations", "pool_size"])
    def test_count_lower_bound(self, field):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: 0}).validate()

    @pytest.mark.parametrize("count", [2**63, 10**400], ids=["2**63", "10**400"])
    def test_conversations_beyond_int64(self, count):
        with pytest.raises(ValueError, match="^n_conversations must be < 2\\*\\*63$"):
            small_config(n_conversations=count).validate()

    @pytest.mark.parametrize("field", ["posts_per_conversation", "tokens_per_post"])
    @pytest.mark.parametrize("bounds", [(0, 1), (-2, 3), (6, 5)])
    def test_range_bounds(self, field, bounds):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: bounds}).validate()
        with pytest.raises(ValueError, match=field):
            generate(small_config(**{field: bounds}), seed=0)

    def test_range_of_one_value(self):
        thread, gold = generate(small_config(posts_per_conversation=(1, 1),
                                             tokens_per_post=(1, 1)), seed=0)
        assert len(thread) == 2 and len(gold.labels) == 2
        assert all(len(p.text.split()) == 1 for p in thread.posts)


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
            pool = {f"t{gold.labels[i]}w{w}" for w in range(config.pool_size)}
            assert set(post.text.split()) <= pool

    def test_high_temperature_prefers_recent_parent(self):
        config = small_config(temperature=1e6, posts_per_conversation=(30, 30),
                              n_conversations=1, pool_size=1)
        thread, gold = generate(config, seed=7)
        # with extreme recency weighting almost every parent is the
        # immediately preceding post of the same conversation
        hits = sum(1 for c, p in gold.parents.items() if p == c - 1)
        assert hits / len(gold.parents) > 0.9

    def test_gold_round_trip(self):
        _, gold = generate(small_config(), seed=8)
        assert GoldStandard.from_json(gold.to_json()) == gold

    def test_gold_json_is_json_dumps(self):
        # keys sort as strings: "10" before "2"
        gold = GoldStandard(parents={10: 2, 2: 0, 100: 10, 3: 1},
                            labels={i: i % 3 for i in (0, 1, 2, 3, 10, 11, 100)})
        assert gold.to_json() == reference_gold_json(gold)
        assert GoldStandard({}, {}).to_json() == reference_gold_json(GoldStandard({}, {}))
        # random valid tables: keys up to 10**6 in any insertion order, and
        # negative labels; a parent is an earlier post of the same label
        rng = random.Random(27)
        for _ in range(300):
            posts = rng.sample(range(10**6 + 1), rng.randint(0, 60))
            labels = {i: rng.randint(-3, 3) for i in posts}
            parents = {}
            for i in posts:
                earlier = [p for p in posts if p < i and labels[p] == labels[i]]
                if earlier and rng.random() < 0.8:
                    parents[i] = rng.choice(earlier)
            gold = GoldStandard(parents=parents, labels=labels)
            assert gold.to_json() == reference_gold_json(gold)
            assert GoldStandard.from_json(gold.to_json()) == gold

    @pytest.mark.parametrize("data", [
        '{"labels": {"0": 0}}', '{"parents": {}}', "{}",
        # "01" and "1" would name one post
        '{"parents": {"1": 0, "01": 0}, "labels": {"0": 0, "1": 0, "00": 1}}',
        '{"parents": {}, "labels": {"0": 0, "1": 0, "1": 1}}',
        '{"parents": {}, "labels": {"0": 0}, "labels": {"0": 1}}',
        # a gold edge between two conversations
        '{"labels": {"0": 0, "1": 1, "2": 1}, "parents": {"1": 0}}',
    ])
    def test_gold_missing_table_raises_value_error(self, data):
        with pytest.raises(ValueError):
            GoldStandard.from_json(data)


class FixedDraw(np.random.Generator):
    """A generator whose random() returns the double in ``u``."""
    u = 0.0

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u


def output_bytes(thread, gold) -> tuple[str, str]:
    return ingest.serialize_thread(thread), gold.to_json()


def reference_bytes(config, seed) -> tuple[str, str]:
    thread, gold = reference_generate(config, seed)
    return reference_thread_jsonl(thread), reference_gold_json(gold)


class TestGenerateOracle:
    """generate picks the parents in bulk; the per-post loop of
    reference_generate and json.dumps define its output, byte for byte."""

    @pytest.mark.parametrize("flags", [
        {},  # the CLI's defaults
        {"temperature": 0.0},
        {"gap": 0.0},
        {"posts_lo": 1, "posts_hi": 5},
        {"n_conversations": 5, "posts_lo": 1, "posts_hi": 1},
        {"pool_size": 1},
        {"tokens_lo": 1, "tokens_hi": 1},
        {"temperature": 1e-3, "gap": 5.0, "posts_lo": 100, "posts_hi": 150},
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bytes_match_reference(self, flags, seed):
        config = cli.default_synth_config(**flags)
        assert output_bytes(*generate(config, seed)) == reference_bytes(config, seed)

    @pytest.mark.parametrize("tile", [1, 150, 1000, 4000])
    def test_row_blocks_match_reference(self, tile, monkeypatch):
        monkeypatch.setattr(harness, "_TILE_ELEMENTS", tile)  # 1 to 130 rows a block
        config = cli.default_synth_config(n_conversations=2, posts_lo=30, posts_hi=90)
        for seed in (3, 4):
            assert output_bytes(*generate(config, seed)) == reference_bytes(config, seed)

    @pytest.mark.parametrize("temperature", [0.0, 0.05, 1.0, 30.0])
    def test_picks_at_cdf_boundaries(self, temperature, monkeypatch):
        """The double that ``rng.choice(j, p=...)`` turns into a parent,
        set to a cdf entry and to its neighbours, gives choice's pick."""
        monkeypatch.setattr(harness, "_TILE_ELEMENTS", 2000)  # several row blocks
        rng = np.random.default_rng(5)
        times = np.cumsum(rng.exponential(1.0, 150))
        fixed = FixedDraw(np.random.PCG64(0))
        picks = {"at": [], "below": [], "above": []}
        doubles = {key: [] for key in picks}
        for j in range(1, times.size):
            logits = -(times[j] - times[:j]) * temperature
            w = np.exp(logits - logits.max())
            p = w / w.sum()
            cdf = p.cumsum()
            edge = (cdf / cdf[-1])[rng.integers(j)]
            for key, u in (("at", edge), ("below", np.nextafter(edge, 0.0)),
                           ("above", np.nextafter(edge, 1.0))):
                fixed.u = min(u, np.nextafter(1.0, 0.0))
                doubles[key].append(fixed.u)
                picks[key].append(int(fixed.choice(j, p=p)))
        for key in picks:
            got = harness._pick_parents(times, np.array(doubles[key]), temperature)
            assert got.tolist() == picks[key], key

    def test_memory_is_linear_in_a_conversation(self):
        # the lower triangle of one 5,000-post conversation's weights is 100 MB
        config = small_config(n_conversations=1, pool_size=2,
                              posts_per_conversation=(5000, 5000))
        tracemalloc.start()
        try:
            generate(config, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * harness._TILE_ELEMENTS, peak

    def test_memory_is_independent_of_the_pool_size(self):
        # the token strings of two pools of 10**6 would take hundreds of MB
        tracemalloc.start()
        try:
            generate(small_config(pool_size=10**6), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    @pytest.mark.parametrize("n,gap", [(3, 1e308), (1, float("inf")), (2, float("nan"))])
    def test_non_finite_last_start_rejected(self, n, gap):
        # a ValueError naming the product, before any draw can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"gap_seconds \* \(n_conversations - 1\)"):
                generate(cli.default_synth_config(n, 3, 3, gap=gap), seed=0)

    def test_overflowing_nearest_gap_raises(self):
        with pytest.raises(harness.RecencyOverflowError, match="not a finite number"):
            generate(small_config(temperature=1e308), seed=0)


class TestBenchmarkThreads:
    """The threads `untangler synth` draws for each benchmark workload,
    at its instance seeds, are those of the per-post loop, so no change
    can move the benchmark's inputs unnoticed."""

    @pytest.mark.parametrize("seed", [1, 601])
    @pytest.mark.parametrize("name", sorted(BENCH["WORKLOADS"]))
    def test_synth_matches_reference(self, name, seed, tmp_path, capsys):
        workload = BENCH["WORKLOADS"][name]
        for i in range(workload.setups):
            instance = BENCH["instance_seed"](seed, i)
            argv = ["--seed", str(instance), "--out-dir", str(tmp_path), "synth",
                    *workload.synth_flags]
            assert cli.main(argv) == 0
            args = cli.build_parser().parse_args(argv)
            config = cli.default_synth_config(
                args.conversations, args.posts_lo, args.posts_hi, args.gap, args.pool_size,
                args.tokens_lo, args.tokens_hi, args.temperature, args.mu, args.alpha, args.beta)
            written = tuple((tmp_path / file).read_text(encoding="utf-8")
                            for file in ("thread.jsonl", "gold.json"))
            assert written == reference_bytes(config, instance)


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

    @pytest.mark.parametrize("oracle", ["sklearn", "pairs"])
    def test_matches_an_oracle_on_random_partitions(self, oracle):
        theirs = (pytest.importorskip("sklearn.metrics").adjusted_rand_score
                  if oracle == "sklearn" else reference_ari)
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 5, size=n)
            ours = partition_ari({i: int(a[i]) for i in range(n)},
                                 {i: int(b[i]) for i in range(n)})
            assert ours == pytest.approx(theirs(a, b), abs=1e-12)


class TestForestErrors:
    """score.forest_errors on hand-made forests, routed as `eval` routes
    graph.json: edges, then trees, then the counts."""

    @staticmethod
    def counts(n, edges, gold):
        trees = score.extract_trees(n, [p for p, _ in edges], [c for _, c in edges])
        parents = {c: p for t in trees for c, p in t.parents.items()}
        labels = {m: t.root for t in trees for m in t.members}
        errors = score.forest_errors(parents, labels, dict(enumerate(gold)))
        return errors["cross_edges"], errors["mixed_trees"], errors["split_conversations"]

    @pytest.mark.parametrize("n,edges,gold,expected", [
        (0, [], [], (0, 0, 0)),
        (5, [(0, 1), (1, 3), (2, 4)], [0, 0, 1, 0, 1], (0, 0, 0)),  # the gold forest
        (4, [(0, 1), (1, 2), (2, 3)], [0, 0, 1, 1], (1, 1, 0)),  # one chain over both
        (3, [], [0, 0, 1], (0, 0, 1)),  # all singletons
        (4, [(0, 2), (1, 3)], [0, 0, 1, 1], (2, 2, 2)),  # every edge crosses
        (5, [(0, 1), (1, 2), (3, 4)], [0, 0, 1, 1, 1], (1, 1, 1)),  # one post strays
        (6, [(0, 3), (1, 4), (2, 5)], [0, 1, 2, 0, 1, 2], (0, 0, 0)),  # interleaved, exact
        (6, [(0, 1), (0, 2), (3, 4), (3, 5)], [0, 1, 2, 0, 1, 2], (4, 2, 3)),  # two stars
    ])
    def test_hand_made_forests(self, n, edges, gold, expected):
        assert self.counts(n, edges, gold) == expected


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

    def test_matches_scipy_average_linkage(self):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        squareform = pytest.importorskip("scipy.spatial.distance").squareform
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            emb = rng.standard_normal((n, int(rng.integers(2, 9))))  # no ties
            k = int(rng.integers(1, n + 1))
            dist = squareform(1.0 - graph.similarity_matrix(emb), checks=False)
            theirs = hierarchy.fcluster(hierarchy.linkage(dist, method="average"), k,
                                        criterion="maxclust")
            first = {}  # scipy's labels renumbered by each cluster's smallest member
            theirs = [first.setdefault(c, len(first)) for c in theirs.tolist()]
            assert agglomerative(emb, k).tolist() == theirs

    @pytest.mark.parametrize("n_clusters", [1, 2, 3, 5, 7])
    def test_identical_rows_merge_in_index_order(self, n_clusters):
        # every distance ties: the first post absorbs the next, then the next
        labels = agglomerative(np.tile([0.3, -1.2, 0.5], (7, 1)), n_clusters)
        assert labels.tolist() == [0] * (8 - n_clusters) + list(range(1, n_clusters))

    def test_duplicated_rows_merge_first(self):
        rows = np.random.default_rng(6).standard_normal((3, 4))
        labels = agglomerative(rows[[0, 1, 0, 2, 1]], 3)
        assert labels.tolist() == [0, 1, 0, 2, 1]
        assert labels.dtype == np.int64

    def test_rounded_embeddings_follow_the_tie_rule(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 25))
            emb = np.round(rng.standard_normal((n, int(rng.integers(1, 4)))))
            k = int(rng.integers(1, n + 1))
            expected = reference_agglomerative(1.0 - graph.similarity_matrix(emb), k)
            assert agglomerative(emb, k).tolist() == expected


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
