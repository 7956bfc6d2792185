"""Tokenization, vocabulary, and context-window generation.

Two window paradigms are supported: SYMMETRIC takes k posts on each side
of the center (offline setting), BEFORE_ONLY takes only the k preceding
posts (the realistic online setting where replies can only depend on
what came before).
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass

from .ingest import Thread

PAD = 0
UNK = 1

SYMMETRIC = "symmetric"
BEFORE_ONLY = "before"
PARADIGMS = (SYMMETRIC, BEFORE_ONLY)

_STRIP_CHARS = string.punctuation


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation."""
    out = []
    for tok in text.lower().split():
        tok = tok.strip(_STRIP_CHARS)
        if tok:
            out.append(tok)
    return out


@dataclass
class Vocab:
    token_to_index: dict[str, int]
    index_to_token: list[str]

    def __len__(self) -> int:
        return len(self.index_to_token)

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, UNK)


def _vocab(tokens: list[str]) -> Vocab:
    """PAD and UNK, then ``tokens`` at indices 2, 3, ..."""
    return Vocab({tok: i for i, tok in enumerate(tokens, start=2)},
                 ["<pad>", "<unk>", *tokens])


def build_vocab(threads: list[Thread], min_count: int = 1) -> Vocab:
    """Vocabulary over all posts of all threads.

    Tokens with corpus frequency >= min_count are kept; indices are
    assigned by descending frequency, ties broken lexicographically.
    Index 0 is PAD, index 1 is UNK.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counter: Counter[str] = Counter()
    for thread in threads:
        for post in thread.posts:
            counter.update(tokenize(post.text))
    return _vocab(sorted((tok for tok, c in counter.items() if c >= min_count),
                         key=lambda tok: (-counter[tok], tok)))


def encode_text(vocab: Vocab, text: str, max_len: int) -> list[int]:
    """Token indices for a post; OOV -> UNK, truncated to max_len."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return [vocab.index(tok) for tok in tokenize(text)[:max_len]]


def save_vocab(vocab: Vocab) -> str:
    """The tokens of indices 2, 3, ... in order, each followed by a
    newline; PAD and UNK are implied.  No token holds a newline, since
    `tokenize` splits on whitespace."""
    return "".join(tok + "\n" for tok in vocab.index_to_token[2:])


def load_vocab(text: str) -> Vocab:
    """Inverse of save_vocab.  Raises ValueError unless ``text`` ends
    with a newline and its tokens are non-empty and distinct."""
    *tokens, rest = text.split("\n")
    if rest:
        raise ValueError("vocabulary block does not end with a newline")
    vocab = _vocab(tokens)
    if "" in vocab.token_to_index:
        raise ValueError("vocabulary block has an empty token")
    if len(set(vocab.index_to_token)) < len(vocab):
        raise ValueError("vocabulary block repeats a token")
    return vocab


@dataclass(frozen=True)
class ContextWindow:
    center: int
    members: tuple[int, ...]


def build_windows(thread: Thread, paradigm: str, k: int) -> list[ContextWindow]:
    """One window per post with a non-empty member set, ordered by center.

    Windows whose member set would be empty (e.g. post 0 under
    BEFORE_ONLY) are omitted: a context embedding over zero posts is
    undefined.
    """
    if paradigm not in PARADIGMS:
        raise ValueError(f"unknown paradigm {paradigm!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(thread)
    windows = []
    for i in range(n):
        before = range(max(0, i - k), i)
        if paradigm == BEFORE_ONLY:
            members = tuple(before)
        else:
            after = range(i + 1, min(n, i + k + 1))
            members = tuple(before) + tuple(after)
        if members:
            windows.append(ContextWindow(center=i, members=members))
    return windows
