"""Encoder numerics: forward pass, gradients, training, checkpoints."""

import struct

import numpy as np
import pytest

from untangler import corpus, embedder
from untangler.embedder import (EncoderConfig, EncoderParams, encode_context,
                                encode_post, init_params, loss_and_grads,
                                similarity, training_loss)

from conftest import make_thread


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

    def test_no_members_rejected(self):
        params = init_params(small_config())
        with pytest.raises(ValueError):
            loss_and_grads(params, [2], [[]], [])


class TestTrain:
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


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = small_config()
        params = init_params(config)
        path = tmp_path / "model.untg"
        embedder.save_checkpoint(str(path), config, params)
        config2, params2 = embedder.load_checkpoint(str(path))
        assert config2 == config
        for name in params.groups():
            np.testing.assert_allclose(params2.groups()[name],
                                       params.groups()[name], atol=1e-7)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "model.untg"
        embedder.save_checkpoint(str(path), small_config(), init_params(small_config()))
        assert path.read_bytes()[:4] == b"UNTG"

    @pytest.mark.parametrize("mutate,match", [
        (lambda b: b"WRNG" + b[4:], "bad magic"),
        (lambda b: b[:10], "truncated"),
        (lambda b: b[:-3], "truncated"),
        (lambda b: b + b"\x00", "trailing"),
        (lambda b: b[:12] + struct.pack("<i", -5) + b[16:], "embed_dim must be >= 1"),
        (lambda b: b[:8] + struct.pack("<i", 2**31 - 1) + b[12:], "truncated"),
    ])
    def test_corrupt_files_rejected(self, tmp_path, mutate, match):
        path = tmp_path / "model.untg"
        embedder.save_checkpoint(str(path), small_config(), init_params(small_config()))
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(ValueError, match=match):
            embedder.load_checkpoint(str(path))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=0).validate()
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=4, learning_rate=-1.0).validate()
