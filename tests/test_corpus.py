"""Tokenization, vocabulary build/save/load, and context windows."""

import string

import pytest
from hypothesis import given, settings, strategies as st

from untangler import corpus
from untangler.corpus import (BEFORE_ONLY, PAD, SYMMETRIC, UNK, ContextWindow,
                              build_vocab, build_windows, encode_text,
                              load_vocab, save_vocab, tokenize)

from conftest import make_thread


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Hello  WORLD") == ["hello", "world"]

    def test_punctuation_stripped(self):
        assert tokenize("Wait... really?! (yes)") == ["wait", "really", "yes"]

    def test_interior_punctuation_kept(self):
        assert tokenize("don't re-enter") == ["don't", "re-enter"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("!!! ... ---") == []

    def test_empty(self):
        assert tokenize("") == []

    def test_strip_chars_are_string_punctuation(self):
        # spelled out, so that no command imports the string module
        assert corpus._STRIP_CHARS == string.punctuation


class TestVocab:
    def test_indices_by_frequency_then_alpha(self):
        thread = make_thread([0, 1, 2], ["b a", "b a", "b c"])
        vocab = build_vocab([thread])
        # b:3, a:2, c:1 -> indices 2, 3, 4 after PAD/UNK
        assert vocab.index("b") == 2
        assert vocab.index("a") == 3
        assert vocab.index("c") == 4
        assert len(vocab) == 5

    def test_frequency_tie_breaks_lexicographic(self):
        vocab = build_vocab([make_thread([0], ["zebra apple zebra apple"])])
        assert vocab.index("apple") == 2
        assert vocab.index("zebra") == 3

    def test_min_count_filters(self):
        vocab = build_vocab([make_thread([0, 1], ["rare", "common common"])], min_count=2)
        assert "rare" not in vocab.token_to_index
        assert vocab.index("rare") == UNK
        assert vocab.index("common") == 2

    def test_min_count_validation(self):
        with pytest.raises(ValueError):
            build_vocab([], min_count=0)

    def test_multiple_threads_pooled(self):
        vocab = build_vocab([make_thread([0], ["x"]), make_thread([0], ["x y"])])
        assert vocab.index_to_token == ["<pad>", "<unk>", "x", "y"]

    def test_encode_text(self):
        vocab = build_vocab([make_thread([0], ["a b c"])])
        assert encode_text(vocab, "a unknown c", max_len=64) == \
            [vocab.index("a"), UNK, vocab.index("c")]

    def test_encode_truncates(self):
        vocab = build_vocab([make_thread([0], ["a b c"])])
        assert len(encode_text(vocab, "a b c a b c", max_len=4)) == 4
        with pytest.raises(ValueError):
            encode_text(vocab, "a", max_len=0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_encode_text_indexes_tokenize(self, data):
        """Words, punctuation-only words, a capital whose lowercase is two
        characters (İ) and Unicode whitespace, cut at every length."""
        vocab = build_vocab([make_thread([0], ["a b i\u0307 x"])])
        words = st.one_of(st.sampled_from(["a", "B", "c.", "...", "?!", "(x)", "\u0130",
                                           "\u0130,"]), st.text(max_size=3))
        spaces = st.sampled_from([" ", "\n", "\u3000", "\x1c", "\xa0", ""])
        text = "".join(w + sp for w, sp in data.draw(st.lists(st.tuples(words, spaces),
                                                                max_size=12)))
        m = data.draw(st.integers(1, len(tokenize(text)) + 2))
        assert encode_text(vocab, text, m) == [vocab.index(t) for t in tokenize(text)[:m]]

    def test_save_load_round_trip(self):
        vocab = build_vocab([make_thread([0, 1], ["b a", "b naïve"])], min_count=1)
        assert save_vocab(vocab) == "b\na\nnaïve\n"
        assert load_vocab(save_vocab(vocab)) == vocab

    def test_empty_block_is_pad_and_unk(self):
        assert load_vocab("") == build_vocab([])

    @pytest.mark.parametrize("text,match", [
        ("a\nb", "newline"),
        ("a\n\nb\n", "empty token"),
        ("a\nb\na\n", "repeats a token"),
        ("a\n<unk>\n", "repeats a token"),
        ("a\nT1W5!\n", "'T1W5!', not a non-empty token"),
        ("a\nb c\n", "not a non-empty token"),
    ])
    def test_load_rejects_malformed_blocks(self, text, match):
        with pytest.raises(ValueError, match=match):
            load_vocab(text)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.text(), max_size=4))
    def test_built_tokens_load(self, texts):
        vocab = build_vocab([make_thread(range(len(texts)), texts)])
        assert load_vocab(save_vocab(vocab)) == vocab

    def test_pad_unk_reserved(self):
        vocab = build_vocab([make_thread([0], ["word"])])
        assert vocab.index_to_token[PAD] == "<pad>"
        assert vocab.index_to_token[UNK] == "<unk>"


class TestWindows:
    def test_before_only(self):
        thread = make_thread(range(4))
        wins = build_windows(thread, BEFORE_ONLY, 2)
        assert wins == [
            ContextWindow(1, (0,)),
            ContextWindow(2, (0, 1)),
            ContextWindow(3, (1, 2)),
        ]

    def test_symmetric(self):
        thread = make_thread(range(4))
        wins = build_windows(thread, SYMMETRIC, 1)
        assert wins == [
            ContextWindow(0, (1,)),
            ContextWindow(1, (0, 2)),
            ContextWindow(2, (1, 3)),
            ContextWindow(3, (2,)),
        ]

    def test_single_post_has_no_windows(self):
        assert build_windows(make_thread([0.0]), SYMMETRIC, 3) == []
        assert build_windows(make_thread([0.0]), BEFORE_ONLY, 3) == []

    def test_validation(self):
        thread = make_thread(range(3))
        with pytest.raises(ValueError):
            build_windows(thread, "sideways", 1)
        with pytest.raises(ValueError):
            build_windows(thread, SYMMETRIC, 0)

    def test_members_never_include_center(self):
        for paradigm in corpus.PARADIGMS:
            for w in build_windows(make_thread(range(9)), paradigm, 3):
                assert w.center not in w.members
