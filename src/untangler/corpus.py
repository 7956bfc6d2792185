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
from typing import IO

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
    counts: dict[str, int]
    min_count: int = 1

    def __len__(self) -> int:
        return len(self.index_to_token)

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, UNK)


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
    kept = sorted(
        ((tok, c) for tok, c in counter.items() if c >= min_count),
        key=lambda kv: (-kv[1], kv[0]),
    )
    index_to_token = ["<pad>", "<unk>"] + [tok for tok, _ in kept]
    token_to_index = {tok: i + 2 for i, (tok, _) in enumerate(kept)}
    return Vocab(
        token_to_index=token_to_index,
        index_to_token=index_to_token,
        counts=dict(kept),
        min_count=min_count,
    )


def encode_text(vocab: Vocab, text: str, max_len: int) -> list[int]:
    """Token indices for a post; OOV -> UNK, truncated to max_len."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return [vocab.index(tok) for tok in tokenize(text)[:max_len]]


def save_vocab(vocab: Vocab, fp: IO[str]) -> None:
    """One ``token<TAB>index<TAB>count`` line per entry, after a header."""
    fp.write(f"#vocab\tmin_count={vocab.min_count}\tsize={len(vocab)}\n")
    fp.write(f"<pad>\t{PAD}\t0\n<unk>\t{UNK}\t0\n")
    for idx in range(2, len(vocab)):
        tok = vocab.index_to_token[idx]
        fp.write(f"{tok}\t{idx}\t{vocab.counts[tok]}\n")


def load_vocab(fp: IO[str]) -> Vocab:
    """Inverse of save_vocab.  Raises ValueError on a malformed file."""
    header = fp.readline().strip().split("\t")
    if (len(header) != 3 or header[0] != "#vocab"
            or not header[1].startswith("min_count=") or not header[2].startswith("size=")):
        raise ValueError("bad vocabulary header")
    min_count = int(header[1][len("min_count="):])
    size = int(header[2][len("size="):])
    tokens: dict[int, str] = {}
    token_to_index: dict[str, int] = {}
    counts: dict[str, int] = {}
    for lineno, line in enumerate(fp, start=2):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected token, index and count")
        tok, idx_s, count_s = fields
        idx = int(idx_s)
        if not 0 <= idx < size or idx in tokens:
            raise ValueError(f"line {lineno}: index {idx} is out of range or repeated")
        tokens[idx] = tok
        if idx >= 2:
            token_to_index[tok] = idx
            counts[tok] = int(count_s)
    if len(tokens) != size:
        raise ValueError(f"header says {size} entries, file has {len(tokens)}")
    index_to_token = [tokens[i] for i in range(size)]
    return Vocab(token_to_index, index_to_token, counts, min_count)


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
