"""Similarity graph, two-stage pruning, and conversation extraction."""

import json

import numpy as np
import pytest

from untangler import graph
from untangler.graph import (Conversation, ReplyGraph, average_score,
                             extract_conversations, export_graph, orient,
                             parse_graph_json, prune_average, reply_forest,
                             similarity_matrix, thin)
from untangler.temporal import Range

from oracles import (reference_conversations, reference_export, reference_prune,
                     reference_thin)


def random_sim(rng, n):
    m = rng.uniform(-1, 1, size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


def random_partition(rng, n):
    cuts = sorted(rng.choice(range(1, n), size=rng.integers(0, n - 1), replace=False)) if n > 1 else []
    bounds = [0] + list(cuts) + [n]
    return [(int(a), int(b)) for a, b in zip(bounds, bounds[1:])]


def random_forward_graph(rng, n):
    g = ReplyGraph(n=n)
    parents, children, weights = [], [], []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                parents.append(u)
                children.append(v)
                weights.append(float(rng.uniform(0.1, 1.0)))
    g.parent = np.array(parents, dtype=np.int64)
    g.child = np.array(children, dtype=np.int64)
    g.weight = np.array(weights, dtype=np.float64)
    return g


class TestSimilarityMatrix:
    def test_known_values(self):
        emb = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]])
        sim = similarity_matrix(emb)
        np.testing.assert_allclose(sim, [[0, 0, -1], [0, 0, 0], [-1, 0, 0]], atol=1e-12)

    def test_zero_rows_isolated(self):
        sim = similarity_matrix(np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_array_equal(sim[1], 0.0)
        assert sim[0, 2] == pytest.approx(1.0)

    def test_a_row_whose_norm_underflows_is_isolated(self):
        # 1e-170 squared is below the smallest float, so the row's norm is 0
        sim = similarity_matrix(np.array([[1.0, 1.0], [1e-170, 1e-170]]))
        np.testing.assert_array_equal(sim, 0.0)
        assert not reply_forest(np.array([[1.0, 1.0], [1e-170, 1e-170]]), [Range(0, 2)]).n_edges

    def test_symmetric_zero_diagonal_bounded(self):
        rng = np.random.default_rng(1)
        sim = similarity_matrix(rng.standard_normal((12, 5)))
        np.testing.assert_allclose(sim, sim.T)
        np.testing.assert_array_equal(np.diag(sim), 0.0)
        assert np.all(np.abs(sim) <= 1.0)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            similarity_matrix(np.zeros(3))


class TestAverageScore:
    def test_strict_upper_triangle_mean(self):
        sim = np.array([[0.0, 0.2, 0.4], [0.2, 0.0, 0.9], [0.4, 0.9, 0.0]])
        assert average_score(sim) == pytest.approx((0.2 + 0.4 + 0.9) / 3)

    def test_small_matrices(self):
        assert average_score(np.zeros((0, 0))) == 0.0
        assert average_score(np.zeros((1, 1))) == 0.0


class TestPruneAverage:
    def test_matches_reference_on_random_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            sim = random_sim(rng, n)
            parts = random_partition(rng, n)
            ranges = [Range(a, b) for a, b in parts]
            np.testing.assert_array_equal(prune_average(sim, ranges),
                                          reference_prune(sim, parts))

    def test_cross_range_entries_removed(self):
        sim = np.full((4, 4), 0.9)
        np.fill_diagonal(sim, 0.0)
        pruned = prune_average(sim, [Range(0, 2), Range(2, 4)])
        assert pruned[0, 2] == 0.0 and pruned[1, 3] == 0.0
        assert pruned[0, 1] == 0.9 and pruned[2, 3] == 0.9

    def test_bad_partitions_rejected(self):
        sim = np.zeros((3, 3))
        for ranges in ([], [Range(0, 2)], [Range(1, 3)],
                       [Range(0, 2), Range(1, 3)], [Range(0, 3), Range(3, 3)]):
            with pytest.raises(ValueError):
                prune_average(sim, ranges)
        with pytest.raises(ValueError, match="cover"):
            prune_average(np.zeros((0, 0)), [Range(0, 1)])

    def test_empty_matrix_allowed(self):
        out = prune_average(np.zeros((0, 0)), [])
        assert out.shape == (0, 0)


class TestOrientAndThin:
    def test_orient_uses_upper_triangle_only(self):
        pruned = np.array([[0.0, 0.8, 0.0], [0.8, 0.0, 0.5], [0.0, 0.5, 0.0]])
        g = orient(pruned)
        assert g.edge_dict() == {(0, 1): 0.8, (1, 2): 0.5}
        assert g.n == 3

    def test_thin_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            g = random_forward_graph(rng, n)
            thinned = thin(g)
            assert thinned.edge_dict() == reference_thin(n, g.edge_dict())
            # forest invariant: in-degree <= 1
            assert np.unique(thinned.child).size == thinned.child.size

    def test_thin_keeps_latest_parent(self):
        g = ReplyGraph(n=4,
                       parent=np.array([0, 1, 2]), child=np.array([3, 3, 3]),
                       weight=np.array([0.9, 0.5, 0.2]))
        assert thin(g).edge_dict() == {(2, 3): 0.2}

    def test_thin_empty(self):
        for n in (0, 5):
            thinned = thin(ReplyGraph(n=n))
            assert thinned.n == n and thinned.n_edges == 0

    def test_roots(self):
        g = ReplyGraph(n=4, parent=np.array([0, 0]), child=np.array([1, 3]),
                       weight=np.array([1.0, 1.0]))
        assert g.roots() == [0, 2]


def random_embeddings(rng, n):
    """Gaussian rows with, at random, zero rows (empty posts), repeated
    rows and an all-identical matrix; the last two put cosines exactly
    at the pruning threshold up to rounding."""
    emb = rng.standard_normal((n, int(rng.integers(1, 9))))
    if rng.random() < 0.3:
        emb[rng.integers(0, n, size=rng.integers(1, n + 1))] = 0.0
    if rng.random() < 0.3:
        emb[rng.integers(0, n, size=rng.integers(1, n + 1))] = emb[rng.integers(0, n)]
    if rng.random() < 0.1:
        emb[:] = emb[0]
    return emb


# Cosines within this distance of the average may be pruned differently by
# reply_forest's O(nd) average than by the reference's mean over the matrix.
TIE_BAND = 1e-12
# Tile GEMMs may sum in another order than the full one.
WEIGHT_ATOL = 1e-15


def dense_forest(emb, ranges):
    return thin(orient(prune_average(similarity_matrix(emb), ranges)))


class TestReplyForest:
    def test_matches_dense_reference_on_fuzzed_inputs(self, monkeypatch):
        rng = np.random.default_rng(29)
        tie_pairs = tie_children = compared = 0
        resolved_far = []
        for trial in range(1500):
            n = [1, 2][trial] if trial < 2 else int(rng.integers(1, 150))
            emb = random_embeddings(rng, n)
            ranges = [Range(a, b) for a, b in random_partition(rng, n)]
            # small tiles so that they cap the windows, and narrow bands so
            # that many posts search several windows
            tile = int(rng.choice([1, 5, 64, 1 << 20]))
            band = int(rng.choice([1, 2, 3, 64]))
            monkeypatch.setattr(graph, "_TILE_ELEMENTS", tile)
            monkeypatch.setattr(graph, "_BAND", band)
            sim = similarity_matrix(emb)
            ref = dense_forest(emb, ranges)
            fast = reply_forest(emb, ranges)
            assert fast.n == n
            assert np.unique(fast.child).size == fast.child.size
            # parents more than two bands back, counted among non-empty posts
            posts = np.flatnonzero(emb.any(axis=1))
            distance = np.searchsorted(posts, fast.child) - np.searchsorted(posts, fast.parent)
            resolved_far.append(int(np.sum(distance > 2 * band)))

            in_range = np.zeros((n, n), dtype=bool)
            for r in ranges:
                in_range[r.lo:r.hi, r.lo:r.hi] = True
            near = (np.triu(in_range, k=1) & (sim != 0.0)
                    & (np.abs(sim - average_score(sim)) <= TIE_BAND))
            tied = near.any(axis=0)
            tie_pairs += int(near.sum())
            tie_children += int(tied.sum())
            ref_edges = {v: (u, w) for (u, v), w in ref.edge_dict().items() if not tied[v]}
            fast_edges = {v: (u, w) for (u, v), w in fast.edge_dict().items() if not tied[v]}
            assert ref_edges.keys() == fast_edges.keys()
            for v, (u, w) in ref_edges.items():
                assert fast_edges[v][0] == u
                assert abs(fast_edges[v][1] - w) <= WEIGHT_ATOL
            compared += n - int(tied.sum())
        print(f"reply_forest fuzz: 1500 instances, {compared} posts compared, "
              f"{tie_children} posts with {tie_pairs} candidate pairs within "
              f"{TIE_BAND} of the threshold excluded, {sum(resolved_far)} parents "
              "more than two bands back")
        assert tie_pairs > 0  # the fuzz does reach threshold ties
        assert sum(resolved_far) > 0  # and parents beyond the band

    @pytest.mark.parametrize("band", [1, 3, 64])
    def test_parent_at_and_beyond_the_band(self, monkeypatch, band):
        # post j matches only post j - gap; the other posts of its range
        # match each other but are orthogonal to it.  Every offset within a
        # block, gaps at the ends of the windows (band, 3 band and 7 band
        # before a block's last post), and the parent first of its range
        # with posts of another range before it.
        monkeypatch.setattr(graph, "_BAND", band)
        for gap in (band, band + 1, 3 * band - 1, 3 * band + 1, 7 * band - 1, 7 * band + 1):
            for j in range(gap, gap + 2 * band):
                for lo in {0, j - gap}:
                    emb = np.tile([0.0, 1.0], (j + 3, 1))
                    emb[[j - gap, j]] = [1.0, 0.0]
                    ranges = [Range(0, lo), Range(lo, j + 3)] if lo else [Range(0, j + 3)]
                    # dense_forest spelt out, as it takes about 30 ms at n = 7 * 64
                    expected = {(j - gap, j): 1.0}
                    for r in ranges:
                        rest = [k for k in range(r.lo, r.hi) if k not in (j - gap, j)]
                        expected.update({(a, b): 1.0 for a, b in zip(rest, rest[1:])})
                    assert reply_forest(emb, ranges).edge_dict() == expected

    def test_orthogonal_rows_are_all_roots(self, monkeypatch):
        monkeypatch.setattr(graph, "_BAND", 4)
        forest = reply_forest(np.eye(50), [Range(0, 30), Range(30, 50)])
        assert forest.n_edges == 0
        assert forest.roots() == list(range(50))

    @pytest.mark.parametrize("band", [1, 2, 64])
    def test_zero_rows_interleaved(self, monkeypatch, band):
        monkeypatch.setattr(graph, "_BAND", band)
        rng = np.random.default_rng(31)
        emb = rng.standard_normal((90, 4))
        emb[::2] = 0.0
        emb[45:60] = 0.0
        ranges = [Range(0, 7), Range(7, 50), Range(50, 90)]
        forest = reply_forest(emb, ranges)
        ref = dense_forest(emb, ranges).edge_dict()
        assert forest.edge_dict().keys() == ref.keys()
        for edge, w in forest.edge_dict().items():
            assert abs(w - ref[edge]) <= WEIGHT_ATOL
        empty = set(np.flatnonzero(~emb.any(axis=1)).tolist())
        assert not empty & (set(forest.parent.tolist()) | set(forest.child.tolist()))

    def test_cosines_computed_stay_linear(self, monkeypatch):
        # 10 topics interleaved at random over two long ranges: nearly every
        # post has a same-topic predecessor within the band, so the work is
        # about 2 n _BAND cosines, far below the sum of squared range lengths
        rng = np.random.default_rng(37)
        n, band = 3000, graph._BAND
        topics = rng.standard_normal((10, 16))
        emb = topics[rng.integers(0, 10, size=n)] + 0.3 * rng.standard_normal((n, 16))
        ranges = [Range(0, 1400), Range(1400, n)]
        computed = []
        cosines = graph._cosines

        def counting_cosines(rows, cols):
            tile = cosines(rows, cols)
            computed.append(tile.size)
            return tile

        monkeypatch.setattr(graph, "_cosines", counting_cosines)
        forest = reply_forest(emb, ranges)
        assert forest.n_edges > n - 100
        assert sum(computed) <= 3 * n * band
        assert sum(computed) < sum((r.hi - r.lo) ** 2 for r in ranges) / 4

    def test_known_forest(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0], [0.0, 0.0], [0.1, 1.0]])
        forest = reply_forest(emb, [Range(0, 2), Range(2, 5)])
        assert forest.n == 5
        # 3 is an empty post; 4 skips it for the latest kept candidate 2
        assert set(forest.edge_dict()) == {(0, 1), (2, 4)}

    def test_small_and_bad_inputs(self):
        assert reply_forest(np.zeros((0, 3)), []).n == 0
        assert reply_forest(np.ones((1, 3)), [Range(0, 1)]).n_edges == 0
        with pytest.raises(ValueError):
            reply_forest(np.zeros((0, 3)), [Range(0, 1)])
        with pytest.raises(ValueError):
            reply_forest(np.ones((3, 2)), [Range(0, 2)])
        with pytest.raises(ValueError):
            reply_forest(np.ones(3), [Range(0, 3)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        emb = np.random.default_rng(0).standard_normal((300, 4))
        assert reply_forest(emb, [Range(0, 300)]).n_edges == 298
        emb[150, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            reply_forest(emb, [Range(0, 300)])
        with pytest.raises(ValueError, match="finite"):
            similarity_matrix(emb)


class TestEdgeOrder:
    """reply_forest promises no edge order; every consumer ignores it."""

    def test_consumers_ignore_the_edge_order(self):
        rng = np.random.default_rng(5)
        emb = rng.standard_normal((300, 4))
        emb[rng.integers(0, 300, size=30)] = 0.0  # empty posts
        forest = reply_forest(emb, [Range(0, 120), Range(120, 300)])
        assert forest.n_edges > 100
        perm = rng.permutation(forest.n_edges)
        shuffled = ReplyGraph(n=forest.n, parent=forest.parent[perm],
                              child=forest.child[perm], weight=forest.weight[perm])
        assert not np.array_equal(shuffled.child, forest.child)
        for fmt in ("json", "dot"):
            assert export_graph(shuffled, fmt) == export_graph(forest, fmt)
        assert extract_conversations(shuffled) == extract_conversations(forest)
        assert shuffled.edge_dict() == forest.edge_dict()
        assert shuffled.roots() == forest.roots()


class TestExtractConversations:
    def test_two_trees(self):
        g = ReplyGraph(n=5, parent=np.array([0, 1, 3]), child=np.array([1, 2, 4]),
                       weight=np.ones(3))
        convs = extract_conversations(g)
        assert convs == [
            Conversation(root=0, members=[0, 1, 2], parents={1: 0, 2: 1}),
            Conversation(root=3, members=[3, 4], parents={4: 3}),
        ]

    def test_isolated_nodes_are_singletons(self):
        convs = extract_conversations(ReplyGraph(n=3))
        assert [c.members for c in convs] == [[0], [1], [2]]

    def test_non_forest_rejected(self):
        g = ReplyGraph(n=3, parent=np.array([0, 1]), child=np.array([2, 2]),
                       weight=np.ones(2))
        with pytest.raises(ValueError, match="in-degree"):
            extract_conversations(g)

    def test_matches_reference_on_random_forests(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            child = np.flatnonzero(rng.random(n) < rng.random())
            child = rng.permutation(child[child > 0])  # edges in no order
            parent = rng.integers(0, 2 ** 31, size=child.size) % child
            g = ReplyGraph(n=n, parent=parent, child=child, weight=rng.random(child.size))
            assert extract_conversations(g) == reference_conversations(g)


class TestExport:
    def test_json_round_trip(self):
        g = ReplyGraph(n=3, parent=np.array([0]), child=np.array([2]),
                       weight=np.array([0.75]))
        again = parse_graph_json(export_graph(g, "json"))
        assert again.n == g.n
        assert again.edge_dict() == g.edge_dict()

    def test_json_payload_shape(self):
        g = ReplyGraph(n=2, parent=np.array([0]), child=np.array([1]),
                       weight=np.array([0.5]))
        payload = json.loads(export_graph(g, "json"))
        assert payload == {"n": 2, "edges": [{"parent": 0, "child": 1, "w": 0.5}],
                           "roots": [0]}

    @pytest.mark.parametrize("payload", [
        {"edges": []},
        {"n": 3},
        {"n": 3, "edges": [{"parent": 0, "w": 0.5}]},
        {"n": 3, "edges": [{"child": 1, "w": 0.5}]},
        {"n": 3, "edges": [{"parent": 0, "child": 1}]},
        {"n": 2 ** 63, "edges": []},
        {"n": 10 ** 30, "edges": [{"parent": 10 ** 20, "child": 10 ** 21, "w": 0.5}]},
    ])
    def test_missing_key_or_huge_n_raises_value_error(self, payload):
        with pytest.raises(ValueError):
            parse_graph_json(json.dumps(payload))

    # raw text, since json.dumps of a dict cannot repeat a key
    @pytest.mark.parametrize("text", [
        '{"n": 5, "n": 3, "edges": [], "roots": [0, 1, 2]}',
        '{"n": 3, "edges": [{"parent": 0, "child": 2, "child": 1, "w": 0.5}], "roots": [0, 2]}',
    ], ids=["n", "child"])
    def test_repeated_key_raises_value_error(self, text):
        with pytest.raises(ValueError, match="a JSON object repeats a key"):
            parse_graph_json(text)

    def test_dot_output(self):
        g = ReplyGraph(n=2, parent=np.array([0]), child=np.array([1]),
                       weight=np.array([0.51239]))
        text = export_graph(g, "dot").decode()
        assert text.startswith("digraph replies {")
        assert '0 -> 1 [label="0.5124"];' in text
        assert text.rstrip().endswith("}")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export_graph(ReplyGraph(n=1), "yaml")

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_matches_reference_on_random_graphs(self, fmt):
        # unsorted edge arrays, repeated (parent, child) pairs with
        # different weights, and weights whose shortest repr is unusual
        rng = np.random.default_rng(29)
        special = np.array([-0.0, 5e-324, 1.0, -1.0, 0.1 + 0.2])
        for _ in range(200):
            n = int(rng.integers(2, 30))
            child = rng.integers(1, n, size=int(rng.integers(0, 3 * n)))
            parent = rng.integers(0, 2 ** 31, size=child.size) % child
            weight = np.where(rng.random(child.size) < 0.3,
                              rng.choice(special, size=child.size),
                              rng.uniform(-1, 1, size=child.size))
            g = ReplyGraph(n=n, parent=parent, child=child, weight=weight)
            assert export_graph(g, fmt) == reference_export(g, fmt)

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("edges", [1023, 1024, 1025, 2 * 1024, 3000])
    def test_matches_reference_across_parts(self, fmt, edges):
        # export_graph formats 1,024 rows (edges, or DOT's nodes) a part
        rng = np.random.default_rng(edges)
        n = edges + 1
        child = rng.permutation(np.arange(1, n))
        g = ReplyGraph(n=n, parent=rng.integers(0, child), child=child,
                       weight=rng.uniform(-1, 1, size=edges))
        assert export_graph(g, fmt) == reference_export(g, fmt)

    def test_last_of_equal_edges_wins(self):
        g = ReplyGraph(n=4, parent=np.array([1, 0, 1, 0]), child=np.array([3, 2, 3, 2]),
                       weight=np.array([0.25, 0.5, 0.75, -0.0]))
        for fmt in ("json", "dot"):
            assert export_graph(g, fmt) == reference_export(g, fmt)
        assert json.loads(export_graph(g, "json"))["edges"] == [
            {"parent": 0, "child": 2, "w": -0.0}, {"parent": 1, "child": 3, "w": 0.75}]

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_no_edges_matches_reference(self, fmt, n):
        g = ReplyGraph(n=n)
        assert export_graph(g, fmt) == reference_export(g, fmt)

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, fmt, bad):
        # json.dumps would write NaN or Infinity, which parse_graph_json rejects
        g = ReplyGraph(n=3, parent=np.array([0, 1]), child=np.array([1, 2]),
                       weight=np.array([0.5, bad]))
        with pytest.raises(ValueError, match="finite"):
            export_graph(g, fmt)
