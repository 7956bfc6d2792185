"""Encoder numerics: forward pass, gradients, training, checkpoints."""

import struct
import tracemalloc

import numpy as np
import pytest

from untangler import cli, corpus, embedder, graph, harness, temporal
from untangler.embedder import EncoderConfig, EncoderParams, init_params, loss_and_grads

from conftest import make_thread, vocab_offset
from oracles import (encode_context, encode_post, reference_encode, reference_grads,
                     similarity, training_loss)


def small_config(vocab_size=12, **kw):
    defaults = dict(embed_dim=4, hidden_dim=4, max_len=8, seed=7)
    defaults.update(kw)
    return EncoderConfig(vocab_size=vocab_size, **defaults)


def fd_gradient(params, name, idx, fun, h=1e-6):
    arr = params.groups()[name]
    orig = arr[idx]
    arr[idx] = orig + h
    up = fun()
    arr[idx] = orig - h
    dn = fun()
    arr[idx] = orig
    return (up - dn) / (2 * h)


class TestForward:
    def test_shapes_and_determinism(self):
        params = init_params(small_config())
        out1 = encode_post(params, [2, 3, 4])
        out2 = encode_post(params, [2, 3, 4])
        assert out1.shape == (4,)
        np.testing.assert_array_equal(out1, out2)

    def test_order_sensitivity(self):
        params = init_params(small_config())
        assert not np.allclose(encode_post(params, [2, 3]), encode_post(params, [3, 2]))

    def test_empty_sequence_rejected(self):
        params = init_params(small_config())
        with pytest.raises(ValueError):
            encode_post(params, [])

    def test_context_is_mean_of_members(self):
        params = init_params(small_config())
        seqs = [[2, 3], [4], [5, 6, 7]]
        expected = np.mean([encode_post(params, s) for s in seqs], axis=0)
        np.testing.assert_allclose(encode_context(params, seqs), expected)

    def test_context_skips_empty_members(self):
        params = init_params(small_config())
        np.testing.assert_allclose(encode_context(params, [[], [4]]),
                                   encode_post(params, [4]))
        with pytest.raises(ValueError):
            encode_context(params, [[], []])

    def test_forget_bias_initialized_to_one(self):
        config = small_config()
        params = init_params(config)
        h = config.hidden_dim
        np.testing.assert_array_equal(params.b[h:2 * h], 1.0)
        assert np.abs(params.emb).max() <= 0.08


def random_params(rng, **kw):
    """Small random model; weights scaled up so the gates leave their
    near-linear range."""
    params = init_params(small_config(**kw))
    for arr in params.groups().values():
        arr *= rng.uniform(1.0, 30.0)
    return params


def random_batch(rng, vocab_size, max_len):
    """Token sequences with length-1 rows, max_len rows, repeats, or all
    one length, chosen at random."""
    n = int(rng.integers(1, 12))
    kind = rng.integers(4)
    if kind == 0:    # one length for every row
        lengths = np.full(n, rng.integers(1, max_len + 1))
    elif kind == 1:  # only the extremes
        lengths = rng.choice([1, max_len], size=n)
    else:
        lengths = rng.integers(1, max_len + 1, size=n)
    seqs = [list(rng.integers(0, vocab_size, size=k)) for k in lengths]
    if kind == 3:    # repeated sequences
        seqs += [seqs[j] for j in rng.integers(0, n, size=n)]
    return seqs


class TestPackedBatch:
    """The packed forward pass against the one-sequence reference; rows
    differ only in the last bits (a GEMM sums in another order than a
    GEMV), so the bar is an absolute 1e-12 with rtol 1e-12."""

    def test_rows_match_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            max_len = int(rng.integers(1, 12))
            params = random_params(rng, vocab_size=15, max_len=max_len, seed=trial,
                                   embed_dim=int(rng.integers(1, 7)),
                                   hidden_dim=int(rng.integers(1, 7)))
            seqs = random_batch(rng, 15, max_len) if trial else [[3]]
            expected = np.array([reference_encode(params, s) for s in seqs])
            np.testing.assert_allclose(embedder._forward(params, seqs), expected,
                                       rtol=1e-12, atol=1e-12)

    def test_backward_matches_reference(self):
        # _forward's tape plus _backward against the one-sequence BPTT
        # summed over rows, for random d(loss)/d(encodings); each group
        # within rtol 1e-10 of its largest entry
        rng = np.random.default_rng(15)
        seen = set()
        for trial in range(200):
            max_len = int(rng.integers(1, 12))
            params = random_params(rng, vocab_size=15, max_len=max_len, seed=trial,
                                   embed_dim=int(rng.integers(1, 7)),
                                   hidden_dim=int(rng.integers(1, 7)))
            seqs = random_batch(rng, 15, max_len) if trial else [[3]]
            if trial % 10 == 1:  # one distinct token
                seqs = [[int(rng.integers(15))] * len(s) for s in seqs]
            if trial % 10 == 2:  # one step: every row has one token
                seqs = [s[:1] for s in seqs]
            d_out = rng.standard_normal((len(seqs), params.proj.shape[1]))
            tape: list = []
            embedder._forward(params, seqs, tape)
            grads = params.zeros_like()
            embedder._backward(params, tape, d_out, grads)
            expected = {name: np.zeros_like(arr) for name, arr in params.groups().items()}
            for seq, d in zip(seqs, d_out):
                for name, g in reference_grads(params, seq, d).items():
                    expected[name] += g
            for name, g in grads.groups().items():
                np.testing.assert_allclose(g, expected[name], rtol=1e-10,
                                           atol=1e-10 * np.abs(expected[name]).max(),
                                           err_msg=name)
            counts = np.bincount([w for s in seqs for w in s])
            seen.add("single" if np.count_nonzero(counts) == 1 else "several")
            seen.update({"once"} if (counts == 1).any() else ())
            seen.update({"length 1"} if min(map(len, seqs)) == 1 else ())
            seen.update({"all length 1"} if len(seqs) > 1 and max(map(len, seqs)) == 1 else ())
            steps = [[s[t] for s in seqs if len(s) > t] for t in range(max_len)]
            if any(len(set(step)) < len(step) for step in steps):
                seen.add("repeated in a step")
        assert seen == {"single", "several", "once", "length 1", "all length 1",
                        "repeated in a step"}

    def test_minibatch_memory_bound(self):
        # one 100-row, 8-step, d = h = 64 minibatch: the tape holds
        # sum(k_t) x 5h floats (gates and cells), the gradient per distinct
        # token u x 4h, the rest is a few n x 4h work buffers; a
        # whole-minibatch copy of the gates breaks the bound
        rng = np.random.default_rng(16)
        params = init_params(EncoderConfig(vocab_size=300, embed_dim=64, hidden_dim=64))
        posts = [list(rng.integers(0, 300, size=8)) for _ in range(100)]
        batch = [(i, [list(rng.integers(100, size=2))] + [[int(j)] for j in rng.integers(100, size=5)])
                 for i in rng.choice(100, size=16, replace=False)]
        grads = params.zeros_like()
        tracemalloc.start()
        try:
            embedder._minibatch_loss(params, posts, batch, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, tokens, hd = len(posts), sum(map(len, posts)), 64
        u = len({w for p in posts for w in p})
        assert peak <= 8 * (tokens * 5 * hd + u * 4 * hd + 4 * n * 4 * hd) + 2**20, peak

    def test_empty_batch_and_empty_row(self):
        params = init_params(small_config())
        assert embedder._forward(params, []).shape == (0, 4)
        with pytest.raises(ValueError):
            embedder._forward(params, [[2], []])

    def test_embed_thread_matches_reference(self):
        # posts of up to 11 tokens, then posts of one token each: step 0 only
        rng = np.random.default_rng(12)
        words = "a b c d e f g h".split()
        for max_words in (12, 2):
            texts = [" ".join(rng.choice(words, size=rng.integers(0, max_words)))
                     for _ in range(40)]
            texts[5] = "..."  # no tokens
            thread = make_thread(range(40), texts)
            vocab = corpus.build_vocab([thread])
            params = random_params(rng, vocab_size=len(vocab))
            emb = embedder.embed_thread(params, thread, vocab, max_len=8)
            for i, post in enumerate(thread.posts):
                seq = corpus.encode_text(vocab, post.text, 8)
                expected = reference_encode(params, seq) if seq else np.zeros(4)
                np.testing.assert_allclose(emb[i], expected, rtol=1e-12, atol=1e-12)
            assert not emb[5].any()
        assert max(len(corpus.encode_text(vocab, p.text, 8)) for p in thread.posts) == 1

    def test_embed_thread_chunks_match_reference(self, monkeypatch):
        # chunks of 3 posts: empty posts first (3) and last (8) in a
        # chunk, a chunk of empty posts only (12-14), and a last chunk of
        # one empty post (39)
        monkeypatch.setattr(embedder, "_EMBED_ROWS", 3)
        rng = np.random.default_rng(13)
        words = "a b c d e f g h".split()
        texts = [" ".join(rng.choice(words, size=rng.integers(1, 12))) for _ in range(40)]
        empty = [3, 8, 12, 13, 14, 39]
        for i in empty:
            texts[i] = "..."  # no tokens
        thread = make_thread(range(40), texts)
        vocab = corpus.build_vocab([thread])
        params = random_params(rng, vocab_size=len(vocab))
        emb = embedder.embed_thread(params, thread, vocab, max_len=8)
        for i, post in enumerate(thread.posts):
            seq = corpus.encode_text(vocab, post.text, 8)
            assert bool(seq) == (i not in empty)
            expected = reference_encode(params, seq) if seq else np.zeros(4)
            np.testing.assert_allclose(emb[i], expected, rtol=1e-12, atol=1e-12)
        assert not emb[empty].any()

    def test_embed_thread_memory_bound(self, monkeypatch):
        # 8 chunks of 8-token posts at d = h = 64: the n x d output plus
        # one chunk's working set, per row its gate buffer (4h), states
        # (2h), encodings (2d) and about 8 arrays of its tokens, and per
        # distinct token a row (4h) of the input table; the whole thread
        # as one batch breaks the bound
        rng = np.random.default_rng(17)
        rows, d, tokens = embedder._EMBED_ROWS, 64, 8
        n = 8 * rows
        words = [f"w{i}" for i in range(300)]
        thread = make_thread(range(n), [" ".join(rng.choice(words, size=tokens))
                                        for _ in range(n)])
        vocab = corpus.build_vocab([thread])
        params = init_params(EncoderConfig(vocab_size=len(vocab), embed_dim=d, hidden_dim=d))
        bound = (8 * n * d + 8 * rows * (6 * d + 2 * d + 8 * tokens)
                 + 8 * len(vocab) * 4 * d + 2**20)

        def peak():
            tracemalloc.start()
            try:
                embedder.embed_thread(params, thread, vocab, max_len=tokens)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunked = peak()
        monkeypatch.setattr(embedder, "_EMBED_ROWS", n)
        whole = peak()
        assert chunked <= bound < whole, (chunked, bound, whole)


class TestLoss:
    def test_similarity_bounds_and_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.standard_normal(6), rng.standard_normal(6)
            s = similarity(a, b)
            assert -1.0 <= s <= 1.0
            assert s == pytest.approx(similarity(b, a))
        assert similarity(a, a) == pytest.approx(1.0)
        assert similarity(a, -a) == pytest.approx(-1.0)

    def test_similarity_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            similarity(np.zeros(3), np.ones(3))

    def test_training_loss_known_values(self):
        v = np.array([1.0, 0.0])
        # perfectly aligned positive, no negatives: softplus(-1)
        assert training_loss(v, v) == pytest.approx(np.log1p(np.e ** -1.0))
        # orthogonal positive: softplus(0) = log 2
        assert training_loss(v, np.array([0.0, 1.0])) == pytest.approx(np.log(2.0))
        # each aligned negative adds softplus(1)
        assert training_loss(v, v, [v]) == pytest.approx(
            np.log1p(np.e ** -1.0) + np.log1p(np.e))

    def test_loss_and_grads_value_matches_training_loss(self):
        params = init_params(small_config())
        center, members, negs = [2, 3], [[4], [5, 6]], [[7], [8, 9]]
        loss, _ = loss_and_grads(params, center, members, negs)
        l_vec = encode_post(params, center)
        w_pos = encode_context(params, members)
        w_negs = [encode_post(params, s) for s in negs]
        assert loss == pytest.approx(training_loss(l_vec, w_pos, w_negs))

    def test_gradients_match_finite_differences(self):
        params = init_params(small_config())
        center, members, negs = [2, 3, 4], [[5], [6, 7]], [[8], [9, 10]]
        _, grads = loss_and_grads(params, center, members, negs)

        def loss_fn():
            return loss_and_grads(params, center, members, negs)[0]

        rng = np.random.default_rng(1)
        for name, g in grads.groups().items():
            flat = g.reshape(-1)
            for k in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                idx = np.unravel_index(k, g.shape)
                fd = fd_gradient(params, name, idx, loss_fn)
                assert flat[k] == pytest.approx(fd, rel=1e-4, abs=1e-8), name

    def test_grads_accumulate_in_place(self):
        params = init_params(small_config())
        acc = params.zeros_like()
        _, g1 = loss_and_grads(params, [2], [[3]], [[4]], grads=acc)
        assert g1 is acc
        first = acc.b.copy()
        loss_and_grads(params, [2], [[3]], [[4]], grads=acc)
        np.testing.assert_allclose(acc.b, 2 * first)

    def test_scatter_rows_matches_loop(self):
        # bit for bit as a loop adding row i into row index[i] in row order:
        # one row and one column, repeated indices given as Python ints, and
        # a slice of token ids with rows scaled 1e-5 to 1e5 into an out that
        # starts non-zero, where another order would round differently
        rng = np.random.default_rng(18)
        ids = rng.integers(0, 4, size=40).astype(np.intp)
        scales = 10.0 ** rng.uniform(-5, 5, size=(30, 1))
        cases = [([2], rng.standard_normal((1, 1)), np.zeros((3, 1))),
                 ([1, 1, 0, 1], rng.standard_normal((4, 3)), np.zeros((2, 3))),
                 (ids[5:35], rng.standard_normal((30, 5)) * scales, rng.standard_normal((4, 5)))]
        for index, rows, out in cases:
            expected = out.copy()
            for i, r in zip(index, rows):
                expected[i] += r
            assert embedder._scatter_rows(out, index, rows) is out
            np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))

    def test_minibatch_equals_sum_of_samples(self):
        # samples sharing centres, members and negatives: each post is
        # encoded once, and the loss and every gradient group must equal
        # the per-sample sums (rtol 1e-10)
        rng = np.random.default_rng(13)
        for trial in range(60):
            params = random_params(rng, seed=trial)
            posts = [list(rng.integers(1, 12, size=rng.integers(1, 7)))
                     for _ in range(int(rng.integers(2, 9)))]
            batch = []
            for _ in range(int(rng.integers(1, 7))):
                centre = int(rng.integers(len(posts)))
                members = list(rng.integers(len(posts), size=rng.integers(1, 4)))
                negs = rng.integers(len(posts), size=rng.integers(0, 4))
                batch.append((centre, [members] + [[int(j)] for j in negs]))
            grads = params.zeros_like()
            loss, tokens = embedder._minibatch_loss(params, posts, batch, grads)
            np.testing.assert_array_equal(tokens, np.unique(np.concatenate(posts)))
            expected, acc = 0.0, params.zeros_like()
            for centre, (members, *negs) in batch:
                expected += loss_and_grads(params, posts[centre], [posts[m] for m in members],
                                           [posts[j] for (j,) in negs], acc)[0]
            assert loss == pytest.approx(expected, rel=1e-10)
            for name, g in grads.groups().items():
                np.testing.assert_allclose(g, acc.groups()[name], rtol=1e-10,
                                           atol=1e-10 * np.abs(acc.groups()[name]).max(),
                                           err_msg=name)

    def test_no_members_rejected(self):
        params = init_params(small_config())
        with pytest.raises(ValueError):
            loss_and_grads(params, [2], [[]], [])


def reference_epochs(seqs, windows, config):
    """train's samples and random draws as a per-sample loop, one epoch
    per iteration: its minibatches, each a list of (thread, centre,
    members, negatives) post indices, the negatives drawn from a pool
    built as a list of every non-empty post outside the window."""
    samples = [(t, w.center, [m for m in w.members if seqs[t][m]])
               for t, wins in enumerate(windows) for w in wins if seqs[t][w.center]]
    samples = [s for s in samples if s[2]]
    rng = np.random.default_rng(config.seed)

    def draw(t, centre, members):
        pool = [i for i, s in enumerate(seqs[t]) if s and i != centre and i not in members]
        n_neg = min(config.negatives_per_sample, len(pool))
        negs = rng.choice(len(pool), size=n_neg, replace=False) if n_neg else []
        return t, centre, members, [pool[j] for j in negs]

    for _ in range(config.epochs):
        order = rng.permutation(len(samples))
        yield [[draw(*samples[si]) for si in order[start:start + config.batch_size]]
               for start in range(0, len(order), config.batch_size)]


def reference_train(threads, vocab, windows, config):
    """Training as a per-sample loop: every sample's loss_and_grads is
    summed into its minibatch's gradient, with the same random draws."""
    seqs = [[corpus.encode_text(vocab, p.text, config.max_len) for p in th.posts]
            for th in threads]
    params = init_params(config)
    curve = []
    for epoch in reference_epochs(seqs, windows, config):
        total = 0.0
        for batch in epoch:
            grads = params.zeros_like()
            for t, centre, members, negs in batch:
                total += loss_and_grads(params, seqs[t][centre], [seqs[t][m] for m in members],
                                        [seqs[t][j] for j in negs], grads)[0]
            for name, g in grads.groups().items():
                params.groups()[name] -= config.learning_rate / len(batch) * g
        curve.append(total / sum(map(len, epoch)))
    return params, curve


class TestTrain:
    def test_matches_per_sample_training(self):
        # two threads, so equal post indices in different threads must stay
        # different posts; a batch of 8 shares posts between its samples
        words = "cat dog sun moon tree rock".split()
        rng = np.random.default_rng(14)
        threads = [make_thread(range(n), [" ".join(rng.choice(words, size=rng.integers(0, 5)))
                                          for _ in range(n)]) for n in (14, 9)]
        vocab = corpus.build_vocab(threads)
        windows = [corpus.build_windows(th, corpus.SYMMETRIC, 2) for th in threads]
        config = small_config(vocab_size=len(vocab), epochs=3, batch_size=8,
                              negatives_per_sample=3, learning_rate=0.5)
        params, curve = embedder.train(threads, vocab, windows, config)
        ref_params, ref_curve = reference_train(threads, vocab, windows, config)
        np.testing.assert_allclose(curve, ref_curve, rtol=1e-10)
        for name, arr in params.groups().items():
            np.testing.assert_allclose(arr, ref_params.groups()[name], rtol=1e-10,
                                       atol=1e-12, err_msg=name)

    # with 4 negatives, thread 1's pools are smaller than that and thread
    # 2's empty; with 0, train draws size-0 samples and every pool counts
    # as large
    @pytest.mark.parametrize("negatives, pools", [
        (4, {"empty pool", "small pool", "large pool"}),
        (0, {"large pool"}),
    ])
    def test_negatives_are_the_reference_pools(self, monkeypatch, negatives, pools):
        # thread 0 has empty posts in the middle and at both ends, so
        # windows centre on its first and last non-empty post.  Every
        # non-empty post holds a token of its own, so the recorded
        # minibatch rows map back to (thread, post)
        texts = [["..."] + [f"t0p{i} cat" for i in range(1, 14)] + ["..."],
                 [f"t1p{i}" for i in range(4)], ["t2p0 dog", "t2p1"]]
        for i in (4, 5, 9):
            texts[0][i] = "!"
        threads = [make_thread(range(len(ts)), ts) for ts in texts]
        vocab = corpus.build_vocab(threads)
        windows = [corpus.build_windows(th, corpus.SYMMETRIC, k)
                   for th, k in zip(threads, (2, 1, 1))]
        config = small_config(vocab_size=len(vocab), epochs=3, batch_size=5,
                              negatives_per_sample=negatives)
        seqs = [[corpus.encode_text(vocab, p.text, config.max_len) for p in th.posts]
                for th in threads]
        post = {tuple(s): (t, i) for t, ts in enumerate(seqs) for i, s in enumerate(ts) if s}
        assert len(post) == sum(len(ts) for ts in texts) - 5
        recorded = []
        minibatch_loss = embedder._minibatch_loss

        def recording_minibatch_loss(params, rows, batch, grads):
            at = [post[tuple(r)] for r in rows]
            recorded.append([(at[c], [at[m] for m in contexts[0]], [at[n] for n, in contexts[1:]])
                             for c, contexts in batch])
            return minibatch_loss(params, rows, batch, grads)

        monkeypatch.setattr(embedder, "_minibatch_loss", recording_minibatch_loss)
        embedder.train(threads, vocab, windows, config)
        expected, seen = [], set()
        for epoch in reference_epochs(seqs, windows, config):
            for batch in epoch:
                expected.append([((t, c), [(t, m) for m in members], [(t, n) for n in negs])
                                 for t, c, members, negs in batch])
                for t, c, members, negs in batch:
                    nonempty = [i for i, s in enumerate(seqs[t]) if s]
                    pool = len(nonempty) - 1 - len(members)
                    seen.update({"first"} if c == nonempty[0] else (),
                                {"last"} if c == nonempty[-1] else (),
                                {"empty pool" if pool == 0 else "small pool"}
                                if pool < config.negatives_per_sample else {"large pool"})
        assert recorded == expected
        assert seen == {"first", "last", *pools}

    def test_loss_curve_decreases_on_toy_corpus(self):
        thread = make_thread(range(8), ["cat dog"] * 4 + ["sun moon"] * 4)
        vocab = corpus.build_vocab([thread])
        windows = corpus.build_windows(thread, corpus.BEFORE_ONLY, 2)
        config = small_config(vocab_size=len(vocab), epochs=12, batch_size=4,
                              learning_rate=0.1)
        params, curve = embedder.train([thread], vocab, [windows], config)
        assert len(curve) == 12
        assert curve[-1] < curve[0]

    def test_train_is_deterministic(self):
        thread = make_thread(range(6))
        vocab = corpus.build_vocab([thread])
        windows = corpus.build_windows(thread, corpus.SYMMETRIC, 2)
        config = small_config(vocab_size=len(vocab), epochs=3)
        p1, c1 = embedder.train([thread], vocab, [windows], config)
        p2, c2 = embedder.train([thread], vocab, [windows], config)
        assert c1 == c2
        for name in p1.groups():
            np.testing.assert_array_equal(p1.groups()[name], p2.groups()[name])

    def test_rows_outside_a_minibatch_stay_unchanged(self, monkeypatch):
        # the vocabulary also holds tokens no post of the training thread
        # uses, so some rows are never touched at all
        rng = np.random.default_rng(15)
        words = "cat dog sun moon tree rock".split()
        thread = make_thread(range(12), [" ".join(rng.choice(words, size=rng.integers(1, 4)))
                                         for _ in range(12)])
        vocab = corpus.build_vocab([thread, make_thread([0], ["unused words here"])])
        windows = corpus.build_windows(thread, corpus.SYMMETRIC, 2)
        config = small_config(vocab_size=len(vocab), epochs=2, batch_size=3)
        snapshots = []  # (emb before the minibatch, its tokens)
        minibatch_loss = embedder._minibatch_loss

        def recording_minibatch_loss(params, seqs, batch, grads):
            snapshots.append((params.emb.copy(), np.unique(np.concatenate(seqs))))
            loss, tokens = minibatch_loss(params, seqs, batch, grads)
            np.testing.assert_array_equal(tokens, snapshots[-1][1])
            return loss, tokens

        monkeypatch.setattr(embedder, "_minibatch_loss", recording_minibatch_loss)
        params, _ = embedder.train([thread], vocab, [windows], config)
        afters = [emb for emb, _ in snapshots[1:]] + [params.emb]
        for (before, tokens), after in zip(snapshots, afters):
            untouched = np.setdiff1d(np.arange(len(vocab)), tokens)
            assert untouched.size > 0
            np.testing.assert_array_equal(after[untouched], before[untouched])
            assert not np.array_equal(after[tokens], before[tokens])
        np.testing.assert_array_equal(params.emb[vocab.index("unused")],
                                      init_params(config).emb[vocab.index("unused")])

    # the diverging run overflows on purpose
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_epoch_loss_rejected(self):
        thread = make_thread(range(8), ["cat dog"] * 4 + ["sun moon"] * 4)
        vocab = corpus.build_vocab([thread])
        windows = corpus.build_windows(thread, corpus.BEFORE_ONLY, 2)
        config = small_config(vocab_size=len(vocab), batch_size=4, learning_rate=1e300)
        with pytest.raises(ValueError, match="epoch 0 mean loss is nan"):
            embedder.train([thread], vocab, [windows], config)

    def test_mismatched_windows_rejected(self):
        thread = make_thread(range(3))
        vocab = corpus.build_vocab([thread])
        with pytest.raises(ValueError):
            embedder.train([thread], vocab, [], small_config(len(vocab)))

    def test_empty_corpus_rejected(self):
        thread = make_thread([0.0], [""])
        vocab = corpus.build_vocab([thread])
        with pytest.raises(ValueError, match="no trainable"):
            embedder.train([thread], vocab, [[]], small_config(len(vocab)))

    def test_embed_thread_zero_rows_for_empty_posts(self):
        thread = make_thread([0, 1, 2], ["words here", "...", "more words"])
        vocab = corpus.build_vocab([thread])
        params = init_params(small_config(len(vocab)))
        emb = embedder.embed_thread(params, thread, vocab, max_len=8)
        assert emb.shape == (3, 4)
        np.testing.assert_array_equal(emb[1], 0.0)
        assert np.linalg.norm(emb[0]) > 0


class TestTrainingMatters:
    """Training must move the reply forest.  Criterion 7 passes with an
    untrained encoder, since its time ranges do most of the work, so
    here the whole thread is one range and only the embeddings pick
    parents: on criterion 7's thread shape (3 conversations of 60 posts,
    an hour apart) the default encoder after 10 epochs beats its own
    initialisation in edge F1 by MARGIN on every seed.  The smallest
    margin measured on these seeds is 0.209 (seed 4, 0.992 against
    0.783); half of it leaves room for last-bit changes in training and
    still fails an encoder that learns nothing."""

    MARGIN = 0.1

    @staticmethod
    def edge_f1(params, config, thread, vocab, gold):
        emb = embedder.embed_thread(params, thread, vocab, max_len=config.max_len)
        forest = graph.reply_forest(emb, [temporal.Range(0, len(thread))])
        predicted = dict(zip(forest.child.tolist(), forest.parent.tolist()))
        return harness.edge_prf(predicted, gold.parents)[2]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_trained_encoder_beats_its_initialisation(self, seed):
        config = cli.default_synth_config(n_conversations=3, posts_lo=60, posts_hi=60,
                                          gap=3600.0)
        thread, gold = harness.generate(config, seed=seed)
        vocab = corpus.build_vocab([thread])
        windows = corpus.build_windows(thread, corpus.BEFORE_ONLY, 3)
        enc_config = EncoderConfig(vocab_size=len(vocab), epochs=10)  # other fields default
        params, _ = embedder.train([thread], vocab, [windows], enc_config)
        trained = self.edge_f1(params, enc_config, thread, vocab, gold)
        untrained = self.edge_f1(init_params(enc_config), enc_config, thread, vocab, gold)
        assert trained - untrained >= self.MARGIN, (trained, untrained)


def small_vocab(size=12):
    """PAD, UNK and size - 2 tokens."""
    return corpus.build_vocab([make_thread([0.0], [" ".join(f"w{i}" for i in range(size - 2))])])


def vocab_block(size):
    return corpus.save_vocab(small_vocab(size)).encode("utf-8")


HEADER = struct.calcsize("<4sI7iqd")


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = small_config()
        params = init_params(config)
        path = tmp_path / "model.untg"
        embedder.save_checkpoint(str(path), config, params, small_vocab())
        config2, params2, vocab2 = embedder.load_checkpoint(str(path))
        assert config2 == config
        assert vocab2 == small_vocab()
        for name in params.groups():
            np.testing.assert_allclose(params2.groups()[name],
                                       params.groups()[name], atol=1e-7)

    def test_unencodable_token_writes_no_file(self, tmp_path):
        vocab = small_vocab()
        vocab.index_to_token[2] = "\ud800"
        path = tmp_path / "model.untg"
        with pytest.raises(UnicodeEncodeError):
            embedder.save_checkpoint(str(path), small_config(), init_params(small_config()), vocab)
        assert not path.exists()

    def test_parameter_beyond_float32_keeps_the_file(self, tmp_path):
        path = tmp_path / "model.untg"
        config, params = small_config(), init_params(small_config())
        embedder.save_checkpoint(str(path), config, params, small_vocab())
        before = path.read_bytes()
        params.w_h[1, 2] = 1e39
        with pytest.raises(ValueError, match="parameter w_h is not finite as float32"):
            embedder.save_checkpoint(str(path), config, params, small_vocab())
        assert path.read_bytes() == before

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "model.untg"
        embedder.save_checkpoint(str(path), small_config(), init_params(small_config()),
                                 small_vocab())
        assert path.read_bytes()[:4] == b"UNTG"

    @pytest.mark.parametrize("mutate,match", [
        (lambda b: b"WRNG" + b[4:], "bad magic"),
        (lambda b: b[:4] + struct.pack("<I", 1) + b[8:], "unsupported checkpoint version 1"),
        (lambda b: b[:4] + struct.pack("<I", 2) + b[8:], "unsupported checkpoint version 2"),
        (lambda b: b[:10], "truncated"),
        (lambda b: b[:HEADER + 5], "truncated"),
        (lambda b: b + b"w0", "newline"),  # after the vocabulary
        (lambda b: b + b"w0\n", "repeats a token"),
        (lambda b: b[:-1] + b"\n\n", "empty token"),
        (lambda b: b[:vocab_offset(b)] + vocab_block(11), "11 tokens"),
        (lambda b: b[:12] + struct.pack("<i", -5) + b[16:], "embed_dim must be >= 1"),
        (lambda b: b[:8] + struct.pack("<i", 2**31 - 1) + b[12:], "truncated"),
        (lambda b: b[:vocab_offset(b) - 4] + struct.pack("<f", float("nan")) + b[vocab_offset(b):],
         "non-finite"),
        (lambda b: b[:HEADER] + struct.pack("<f", float("inf")) + b[HEADER + 4:], "non-finite"),
        (lambda b: b[:HEADER] + b"\x01\x00\x80\x7f" + b[HEADER + 4:], "non-finite"),  # sNaN
    ])
    def test_corrupt_files_rejected(self, tmp_path, mutate, match):
        path = tmp_path / "model.untg"
        embedder.save_checkpoint(str(path), small_config(), init_params(small_config()),
                                 small_vocab())
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(ValueError, match=match):
            embedder.load_checkpoint(str(path))

    @pytest.mark.parametrize("field,value,match", [
        ("epochs", 0, "epochs must be >= 1"),
        ("epochs", -1, "epochs must be >= 1"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("batch_size", -3, "batch_size must be >= 1"),
        ("negatives_per_sample", -1, "negatives_per_sample must be >= 0"),
    ])
    def test_training_fields_validated(self, tmp_path, field, value, match):
        thread = make_thread(range(6))
        vocab = corpus.build_vocab([thread])
        config = small_config(vocab_size=len(vocab), **{field: value})
        with pytest.raises(ValueError, match=match):
            embedder.train([thread], vocab, [corpus.build_windows(thread, corpus.SYMMETRIC, 2)],
                           config)
        # the same value in a checkpoint header
        path = tmp_path / "model.untg"
        embedder.save_checkpoint(str(path), small_config(), init_params(small_config()),
                                 small_vocab())
        data = path.read_bytes()
        at = {"epochs": 24, "negatives_per_sample": 28, "batch_size": 32}[field]
        path.write_bytes(data[:at] + struct.pack("<i", value) + data[at + 4:])
        with pytest.raises(ValueError, match=match):
            embedder.load_checkpoint(str(path))

    @pytest.mark.parametrize("field,value,width", [
        ("seed", 2**63, "int64"),
        ("max_len", 2**31, "int32"),
        ("negatives_per_sample", 2**31, "int32"),
        ("vocab_size", 2**31, "int32"),
    ])
    def test_fields_beyond_the_header_rejected(self, tmp_path, field, value, width):
        match = f"{field} does not fit the checkpoint header's {width}"
        path = tmp_path / "model.untg"
        with pytest.raises(ValueError, match=match):
            embedder.save_checkpoint(str(path), small_config(**{field: value}),
                                     init_params(small_config()), small_vocab())
        assert not path.exists()
        thread = make_thread(range(6))
        vocab = corpus.build_vocab([thread])
        with pytest.raises(ValueError, match=match):
            embedder.train([thread], vocab, [corpus.build_windows(thread, corpus.SYMMETRIC, 2)],
                           small_config(**{"vocab_size": len(vocab), field: value}))

    # each integer field in the checkpoint header's order: (name, low end, bits)
    HEADER_FIELDS = [("vocab_size", 1, 31), ("embed_dim", 1, 31), ("hidden_dim", 1, 31),
                     ("max_len", 1, 31), ("epochs", 1, 31), ("negatives_per_sample", 0, 31),
                     ("batch_size", 1, 31), ("seed", 0, 63)]

    @pytest.mark.parametrize("field,low,bits", HEADER_FIELDS)
    def test_validate_bounds_each_field(self, field, low, bits):
        for value, message in ((low - 1, f"{field} must be >= {low}"), (low, None),
                               (2**bits - 1, None),
                               (2**bits, f"{field} does not fit the checkpoint header's "
                                         f"int{bits + 1}")):
            config = small_config(**{field: value})
            if message is None:
                config.validate()
            else:
                with pytest.raises(ValueError) as err:
                    config.validate()
                assert str(err.value) == message

    def test_seed_below_int64_is_negative(self):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            small_config(seed=-2**63 - 1).validate()

    def test_header_limits_validate(self):
        small_config(seed=2**63 - 1, max_len=2**31 - 1, epochs=2**31 - 1,
                     negatives_per_sample=2**31 - 1, batch_size=2**31 - 1).validate()
        small_config(seed=0).validate()

    @pytest.mark.parametrize("seed", [-1, -2**63])
    def test_negative_seed_rejected(self, tmp_path, seed):
        # np.random.default_rng takes no negative seed, so neither train
        # nor a checkpoint header may carry one
        thread = make_thread(range(6))
        vocab = corpus.build_vocab([thread])
        with pytest.raises(ValueError, match="seed must be >= 0"):
            embedder.train([thread], vocab, [corpus.build_windows(thread, corpus.SYMMETRIC, 2)],
                           small_config(vocab_size=len(vocab), seed=seed))
        path = tmp_path / "model.untg"
        with pytest.raises(ValueError, match="seed must be >= 0"):
            embedder.save_checkpoint(str(path), small_config(seed=seed),
                                     init_params(small_config()), small_vocab())
        assert not path.exists()
        embedder.save_checkpoint(str(path), small_config(), init_params(small_config()),
                                 small_vocab())
        data = path.read_bytes()
        path.write_bytes(data[:36] + struct.pack("<q", seed) + data[44:])
        with pytest.raises(ValueError, match="seed must be >= 0"):
            embedder.load_checkpoint(str(path))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=0).validate()
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=4, learning_rate=-1.0).validate()
        with pytest.raises(ValueError, match="finite"):
            EncoderConfig(vocab_size=4, learning_rate=float("nan")).validate()
