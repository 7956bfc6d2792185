"""Synthetic-conversation oracle and evaluation utilities.

Real chat corpora with annotated reply structure are scarce, so the
pipeline is evaluated against generated threads: each conversation draws
its post times from its own self-exciting process, its texts from a
topic-specific token pool, and its reply links from a recency-weighted
parent distribution.  Interleaving the conversations by global time
order produces a flat thread with a known gold standard.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb

import numpy as np

from .graph import _TILE_ELEMENTS, _is_int, similarity_matrix
from .ingest import Post, Thread
from .temporal import HawkesModel, simulate


@dataclass
class SynthConfig:
    topic_pools: list[list[str]]          # pairwise disjoint token pools
    hawkes: list[HawkesModel]             # per-conversation burst dynamics
    posts_per_conversation: tuple[int, int]
    gap_seconds: float                    # offset between conversation starts
    tokens_per_post: tuple[int, int]
    temperature: float                    # reply recency weight, 1/seconds

    @property
    def n_conversations(self) -> int:
        return len(self.topic_pools)

    def validate(self) -> None:
        if not self.topic_pools:
            raise ValueError("need at least one topic pool")
        if len(self.hawkes) != len(self.topic_pools):
            raise ValueError("need one Hawkes model per conversation")
        seen: set[str] = set()
        for pool in self.topic_pools:
            if not pool:
                raise ValueError("topic pools must be non-empty")
            if seen & set(pool):
                raise ValueError("topic pools must be pairwise disjoint")
            seen |= set(pool)
        if self.posts_per_conversation[0] < 1:
            raise ValueError("posts_per_conversation must be >= 1")


def _json_table(table: dict[int, int]) -> str:
    """``json.dumps({str(k): v ...}, sort_keys=True)`` of an int -> int table."""
    items = sorted(zip(map(str, table), table.values()))
    return "{" + ", ".join(itertools.starmap('"{}": {}'.format, items)) + "}"


@dataclass
class GoldStandard:
    parents: dict[int, int]  # child index -> parent index (roots absent)
    labels: dict[int, int]   # post index -> conversation id

    def to_json(self) -> str:
        """The text of ``json.dumps({"parents": ..., "labels": ...},
        sort_keys=True)`` over the tables with string keys, formatted
        straight from them: keys sorted as strings at every level."""
        return f'{{"labels": {_json_table(self.labels)}, "parents": {_json_table(self.parents)}}}\n'

    @classmethod
    def from_json(cls, data: str) -> "GoldStandard":
        """Inverse of to_json.  Raises ValueError unless 'parents' and
        'labels' are objects mapping decimal post indices to integers and
        every gold edge has 0 <= parent < child."""
        try:
            payload = json.loads(data)
        except RecursionError as exc:
            raise ValueError("JSON nested too deeply") from exc
        if not isinstance(payload, dict):
            raise ValueError("gold standard must be a JSON object")
        for key in ("parents", "labels"):
            table = payload.get(key)
            if not (isinstance(table, dict) and all(
                    k.isascii() and k.isdigit() and _is_int(v) for k, v in table.items())):
                raise ValueError(f"{key!r} must be an object mapping post indices to integers")
        parents = {int(c): p for c, p in payload["parents"].items()}
        for child, parent in parents.items():
            if not 0 <= parent < child:
                raise ValueError(f"gold edge {parent} -> {child} breaks 0 <= parent < child")
        return cls(parents=parents, labels={int(i): l for i, l in payload["labels"].items()})


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
    tokens, as ``rng.choice(pool, size=k)`` would.  The parents are then
    picked from those doubles in bulk, by ``_pick_parents``.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    lo, hi = config.posts_per_conversation
    k_lo, k_hi = config.tokens_per_post
    records = []  # (time, conv, local_idx, local_parent, text)
    for conv, (pool, model) in enumerate(zip(config.topic_pools, config.hawkes)):
        n_posts = int(rng.integers(lo, hi + 1))
        times = _sample_times(model, n_posts, rng) + conv * config.gap_seconds
        u, texts = [], []
        for j in range(n_posts):
            if j:
                u.append(rng.random())
            k = int(rng.integers(k_lo, k_hi + 1))
            texts.append(" ".join(map(pool.__getitem__,
                                      rng.integers(0, len(pool), size=k).tolist())))
        picks = [None, *_pick_parents(times, np.array(u), config.temperature).tolist()]
        records += zip(times.tolist(), itertools.repeat(conv), range(n_posts), picks, texts)
    records.sort(key=lambda r: (r[0], r[1], r[2]))
    final_index = {(conv, j): idx for idx, (_, conv, j, _, _) in enumerate(records)}
    posts = [
        Post(id=f"c{conv}p{j}", timestamp=t, text=text, author=f"user{conv}")
        for t, conv, j, _, text in records
    ]
    parents = {
        final_index[(conv, j)]: final_index[(conv, parent)]
        for _, conv, j, parent, _ in records
        if parent is not None
    }
    labels = {final_index[(conv, j)]: conv for _, conv, j, _, _ in records}
    return Thread(posts=posts), GoldStandard(parents, labels)


def edge_prf(predicted: dict[int, int], gold: dict[int, int]) -> tuple[float, float, float]:
    """Precision/recall/F1 over parent->child edges."""
    hits = sum(1 for c, p in predicted.items() if gold.get(c) == p)
    if not predicted:
        precision = 1.0 if not gold else 0.0
    else:
        precision = hits / len(predicted)
    if not gold:
        recall = 1.0 if not predicted else 0.0
    else:
        recall = hits / len(gold)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def partition_ari(predicted: dict[int, int], gold: dict[int, int]) -> float:
    """Adjusted Rand index via the pair-counting contingency formula."""
    if set(predicted) != set(gold):
        raise ValueError("partitions must label the same posts")
    n = len(gold)
    if n < 2:  # no pairs to count
        return 1.0
    table: dict[tuple[int, int], int] = {}
    a: dict[int, int] = {}
    b: dict[int, int] = {}
    for i in predicted:
        key = (predicted[i], gold[i])
        table[key] = table.get(key, 0) + 1
        a[predicted[i]] = a.get(predicted[i], 0) + 1
        b[gold[i]] = b.get(gold[i], 0) + 1
    index = sum(comb(c, 2) for c in table.values())
    sum_a = sum(comb(c, 2) for c in a.values())
    sum_b = sum(comb(c, 2) for c in b.values())
    expected = sum_a * sum_b / comb(n, 2)
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


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
    if n == 0:
        raise ValueError("cannot cluster an empty embedding matrix")
    if not 1 <= n_clusters <= n:
        raise ValueError("n_clusters must be in [1, n]")
    dist = 1.0 - similarity_matrix(emb)
    np.fill_diagonal(dist, 0.0)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    active = set(range(n))
    while len(active) > n_clusters:
        best = None
        for i, j in itertools.combinations(sorted(active), 2):
            d = dist[i, j]
            if best is None or d < best[0] - 1e-15:
                best = (d, i, j)
        _, i, j = best
        ni, nj = len(members[i]), len(members[j])
        # Lance-Williams update for average linkage
        for k in active:
            if k in (i, j):
                continue
            d = (ni * dist[i, k] + nj * dist[j, k]) / (ni + nj)
            dist[i, k] = dist[k, i] = d
        members[i].extend(members[j])
        del members[j]
        active.remove(j)
    labels = np.zeros(n, dtype=np.int64)
    for label, i in enumerate(sorted(active, key=lambda c: min(members[c]))):
        labels[members[i]] = label
    return labels


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
