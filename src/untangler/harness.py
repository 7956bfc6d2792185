"""Synthetic-conversation oracle, a clustering baseline and a 3-d projection.

Real chat corpora with annotated reply structure are scarce, so the
pipeline is evaluated against generated threads: each conversation draws
its post times from a self-exciting process, its texts from a token pool
of its own, and its reply links from a recency-weighted parent
distribution.  Interleaving the conversations by global time
order produces a flat thread with a known gold standard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import score
from .graph import _TILE_ELEMENTS, similarity_matrix
from .ingest import Post, Thread
from .score import GoldStandard
from .temporal import HawkesModel, simulate


@dataclass
class SynthConfig:
    n_conversations: int
    pool_size: int                        # conversation c writes t{c}w0 .. t{c}w{pool_size-1}
    hawkes: HawkesModel                   # burst dynamics every conversation shares
    posts_per_conversation: tuple[int, int]
    gap_seconds: float                    # offset between conversation starts
    tokens_per_post: tuple[int, int]
    temperature: float                    # reply recency weight, 1/seconds

    def validate(self) -> None:
        if min(self.n_conversations, self.pool_size) < 1:
            raise ValueError("n_conversations and pool_size must be >= 1")
        if self.n_conversations >= 2**63:  # as synth's --conversations
            raise ValueError("n_conversations must be < 2**63")
        for name in ("posts_per_conversation", "tokens_per_post"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} (lo, hi) must have 1 <= lo <= hi")
        if not np.isfinite(self.gap_seconds * (self.n_conversations - 1)):  # the last start
            raise ValueError("gap_seconds * (n_conversations - 1) must be a finite number")


class StarvedProcessError(ValueError):
    """A Hawkes baseline too low to draw a conversation's posts."""


class RecencyOverflowError(ValueError):
    """A reply temperature so high that a post's gap to its nearest
    earlier post, times the temperature, leaves the float range."""


def _sample_times(model: HawkesModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """First `count` events of the process, extending the horizon as needed."""
    horizon = max(10.0, 2.0 * count / max(model.mu, 1e-3))
    for _ in range(60):
        times = simulate(model, horizon, rng, max_events=count)
        if times.size >= count:
            return times
        horizon *= 2.0
    raise StarvedProcessError(f"could not draw {count} events; the baseline rate "
                              f"mu={model.mu:g} is too low")


def _pick_parents(times: np.ndarray, u: np.ndarray, temperature: float) -> np.ndarray:
    """Parent of each post j >= 1 of one conversation, in order.

    Post j's parent is what ``rng.choice(j, p=w / w.sum())`` picks with
    the double u[j - 1], for w = exp(logits - logits.max()) and logits
    -(t_j - t_i) * temperature over the earlier posts i < j: the number
    of entries of cdf / cdf[-1] that are <= u, cdf = cumsum(p).  Rows go
    in blocks of at most _TILE_ELEMENTS entries, each step as ``choice``
    takes it, so every pick is the same.  Only the sum of w is one call
    per row, ``np.add.reduce`` of the row alone: numpy adds pairwise in
    an order set by the row's length, and ``w.sum()`` starts from 0 on
    numpy 2 where ``np.add.reduceat`` starts from the first entry.
    Entries past a row's end weigh 0 and so keep cdf / cdf[-1] at 1 > u.
    """
    n = times.size
    parents = np.empty(n - 1, dtype=np.int64)
    rows = max(1, _TILE_ELEMENTS // n)
    for a in range(1, n, rows):
        b = min(n, a + rows)
        width = b - 1  # row j holds posts 0..j-1; the block's last row fills it
        j = np.arange(a, b)
        logits = times[a:b, None] - times[:width]
        with np.errstate(over="ignore", invalid="ignore"):  # far posts weigh exp(-inf) = 0
            logits *= -temperature
        logits[np.arange(width) >= j[:, None]] = -np.inf
        top = logits.max(axis=1)
        if not np.isfinite(top).all():
            r = int(np.flatnonzero(~np.isfinite(top))[0])
            gap = times[a + r] - times[a + r - 1]
            raise RecencyOverflowError(
                f"the temperature {temperature:g} times a gap of {gap:g} s between posts "
                "is not a finite number")
        logits -= top[:, None]
        w = np.exp(logits, out=logits)
        w /= np.array([np.add.reduce(row[:k]) for row, k in zip(w, j.tolist())])[:, None]
        cdf = np.cumsum(w, axis=1, out=w)
        cdf /= cdf[:, -1:]
        parents[a - 1:b - 1] = np.count_nonzero(cdf <= u[a - 1:b - 1, None], axis=1)
    return parents


def generate(config: SynthConfig, seed: int = 0) -> tuple[Thread, GoldStandard]:
    """Deterministic synthetic thread plus its gold reply structure.

    The draws are part of the output format.  Each conversation draws
    its post count and times, then per post, in order: the double that
    picks its parent (none for the first post), its length, and its
    token indices, ``rng.integers(0, pool_size, size=k)``; index i of
    conversation c is the token ``t{c}w{i}``.  The parents are then
    picked from those doubles in bulk, by ``_pick_parents``.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    lo, hi = config.posts_per_conversation
    k_lo, k_hi = config.tokens_per_post
    records = []  # (time, conv, local_idx, local_parent, text)
    for conv in range(config.n_conversations):
        n_posts = int(rng.integers(lo, hi + 1))
        times = _sample_times(config.hawkes, n_posts, rng) + conv * config.gap_seconds
        word = f"t{conv}w{{}}".format
        u, texts = [], []
        for j in range(n_posts):
            if j:
                u.append(rng.random())
            k = int(rng.integers(k_lo, k_hi + 1))
            texts.append(" ".join(map(word, rng.integers(0, config.pool_size, size=k).tolist())))
        picks = [None, *_pick_parents(times, np.array(u), config.temperature).tolist()]
        records += zip(times.tolist(), itertools.repeat(conv), range(n_posts), picks, texts)
    records.sort(key=lambda r: r[0])  # stable, so time ties keep the (conv, j) order
    final_index = {(conv, j): idx for idx, (_, conv, j, _, _) in enumerate(records)}
    posts = [Post(id=f"c{conv}p{j}", timestamp=t, text=text) for t, conv, j, _, text in records]
    parents = {
        final_index[(conv, j)]: final_index[(conv, parent)]
        for _, conv, j, parent, _ in records
        if parent is not None
    }
    labels = {idx: conv for idx, (_, conv, _, _, _) in enumerate(records)}
    return Thread(posts=posts), GoldStandard(parents, labels)


# the scorers live in score; perfbench's tracer and the tests reach them
# by these names, harness.edge_prf and harness.partition_ari
edge_prf, partition_ari = score.edge_prf, score.partition_ari


def agglomerative(embeddings: np.ndarray, n_clusters: int) -> np.ndarray:
    """Bottom-up average-linkage clustering under cosine distance.

    Merges the closest active pair until n_clusters remain; distance
    ties are broken by the lexicographically smallest cluster-index
    pair, and the merged cluster keeps the smaller index, so the result
    is fully deterministic.  Labels are 0..n_clusters-1 in order of each
    cluster's smallest member.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    n = emb.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError("n_clusters must be in [1, n]")
    dist = 1.0 - similarity_matrix(emb)  # symmetric, so its first minimum has i < j
    np.fill_diagonal(dist, np.inf)  # merged-away clusters are inf rows and columns too
    size = np.ones(n)
    owner = np.arange(n)  # the index of each post's cluster: its smallest member
    for _ in range(n - n_clusters):
        i, j = divmod(int(np.argmax(dist <= dist.min() + 1e-15)), n)
        # Lance-Williams update for average linkage
        dist[i] = dist[:, i] = (size[i] * dist[i] + size[j] * dist[j]) / (size[i] + size[j])
        dist[j] = dist[:, j] = np.inf
        size[i] += size[j]
        owner[owner == j] = i
    return np.unique(owner, return_inverse=True)[1]


def project_3d(embeddings: np.ndarray) -> np.ndarray:
    """Coordinates on the top-3 principal axes.

    The axes are the leading eigenvectors of the d x d scatter matrix
    (np.linalg.eigh), each signed so that its largest-magnitude loading
    is positive; when d < 3 the missing axes are zero columns.
    Degenerate data (all rows identical) projects to all-zero coordinates.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] < 3:
        raise ValueError("need at least 3 rows to project")
    centered = emb - emb.mean(axis=0)
    axes = np.linalg.eigh(centered.T @ centered)[1][:, ::-1][:, :3]  # eigenvalues ascend
    axes = axes * np.sign(axes[np.argmax(np.abs(axes), axis=0), np.arange(axes.shape[1])])
    return np.pad(centered @ axes, ((0, 0), (0, 3 - axes.shape[1])))
