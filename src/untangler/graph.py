"""Similarity graph construction and two-stage pruning.

Stage 1 zeroes every similarity below the global average and restricts
edges to the detected temporal ranges (block-diagonal copy).  Edges are
then oriented forward in time (earlier post -> later post).  Stage 2
thins the resulting DAG to a forest: when a post is reachable from both
a node and one of that node's descendants, the shallower link is
dropped, so every post keeps at most one parent -- its chronologically
latest surviving candidate.

``similarity_matrix``, ``prune_average``, ``orient`` and ``thin`` do this
literally on dense n x n matrices and serve as the reference.
``reply_forest`` computes the same forest in closed form with memory
linear in the number of posts, searching each post's nearest
predecessors first: about 2 n _BAND cosines plus one range length per
post that has no parent among them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .temporal import Range

# posts per block of reply_forest's band pass, each block scored against
# the _BAND posts before it
_BAND = 64
# float64 elements in one similarity tile of reply_forest's band pass
# (512 KB: its GEMMs all have one shape, and small tiles stay in cache)
# and of its full-range scan (8 MB: skinny GEMMs over few columns)
_BAND_TILE_ELEMENTS = 1 << 16
_TILE_ELEMENTS = 1 << 20


def _unit_rows(embeddings: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; all-zero rows stay zero."""
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise ValueError("embeddings must be an n x d matrix")
    if not np.isfinite(emb).all():
        raise ValueError("embeddings must be finite")
    norms = np.linalg.norm(emb, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = emb / safe[:, None]
    unit[norms == 0] = 0.0
    return unit


def similarity_matrix(embeddings: np.ndarray) -> np.ndarray:
    """Symmetric n x n cosine matrix with zero diagonal.

    All-zero embedding rows (empty posts) get zero similarity to every
    other post and therefore never take part in edges.
    """
    unit = _unit_rows(embeddings)
    sim = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(sim, 0.0)
    return sim


def average_score(sim: np.ndarray) -> float:
    """Mean over the strictly-upper-triangle entries.

    Self-similarities are identically 1 and would inflate the pruning
    threshold, so the diagonal (and the mirrored lower triangle) is
    excluded.  Isolated here so the reading is easy to revise.
    """
    n = sim.shape[0]
    if n < 2:
        return 0.0
    iu = np.triu_indices(n, k=1)
    return float(sim[iu].mean())


def _check_partition(ranges: list[Range], n: int) -> None:
    if n == 0:
        return
    if not ranges:
        raise ValueError("ranges must not be empty for a non-empty matrix")
    lo = 0
    for r in ranges:
        if r.lo != lo or r.hi <= r.lo:
            raise ValueError("ranges must be contiguous, non-empty, and cover [0, n)")
        lo = r.hi
    if lo != n:
        raise ValueError("ranges must cover [0, n)")


def prune_average(sim: np.ndarray, ranges: list[Range]) -> np.ndarray:
    """Average-threshold pruning restricted to range blocks.

    One pass: (1) compute the global average over the strict upper
    triangle, (2) zero entries strictly below it, (3) keep only entries
    whose both endpoints fall inside a single range.
    """
    sim = np.asarray(sim, dtype=np.float64)
    n = sim.shape[0]
    _check_partition(ranges, n)
    avg = average_score(sim)
    thresholded = np.where(sim < avg, 0.0, sim)
    pruned = np.zeros_like(sim)
    for r in ranges:
        pruned[r.lo:r.hi, r.lo:r.hi] = thresholded[r.lo:r.hi, r.lo:r.hi]
    return pruned


@dataclass
class ReplyGraph:
    """Directed weighted edges parent -> child over posts 0..n-1.

    Every edge satisfies parent < child in canonical (chronological)
    order, so the graph is acyclic by construction.
    """

    n: int
    parent: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    child: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    weight: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))

    @property
    def n_edges(self) -> int:
        return int(self.parent.size)

    def edge_dict(self) -> dict[tuple[int, int], float]:
        return {(int(u), int(v)): float(w)
                for u, v, w in zip(self.parent, self.child, self.weight)}

    def children(self, u: int) -> list[int]:
        return sorted(int(v) for p, v in zip(self.parent, self.child) if p == u)

    def roots(self) -> list[int]:
        has_parent = np.zeros(self.n, dtype=bool)
        has_parent[self.child] = True
        return [i for i in range(self.n) if not has_parent[i]]


def orient(pruned: np.ndarray) -> ReplyGraph:
    """Turn retained similarities into forward-in-time directed edges.

    For every nonzero entry (i, j) with i < j the edge i -> j is added
    with that weight; canonical index order encodes the time ordering,
    so an earlier post can never become a child of a later one.
    """
    pruned = np.asarray(pruned, dtype=np.float64)
    n = pruned.shape[0]
    upper = np.triu(pruned, k=1)
    rows, cols = np.nonzero(upper)
    return ReplyGraph(n=n, parent=rows.astype(np.int64), child=cols.astype(np.int64),
                      weight=upper[rows, cols])


def thin(graph: ReplyGraph) -> ReplyGraph:
    """Drop redundant grandchild links so every node keeps <= 1 parent.

    Scanning nodes in ascending order and removing, for each already
    visited node, the children it shares with the current node leaves
    each child exactly one incoming edge: the one from its largest
    (chronologically latest) parent.  That closed form is what is
    computed here; the scan itself is exercised against this in tests.
    """
    if graph.n_edges == 0:
        return ReplyGraph(n=graph.n)
    order = np.lexsort((graph.parent, graph.child))
    child_sorted = graph.child[order]
    # last position within each run of equal children = max parent
    last = np.flatnonzero(np.r_[child_sorted[1:] != child_sorted[:-1], True])
    keep = order[last]
    keep = keep[np.argsort(graph.parent[keep] * graph.n + graph.child[keep])]
    return ReplyGraph(n=graph.n, parent=graph.parent[keep].copy(),
                      child=graph.child[keep].copy(), weight=graph.weight[keep].copy())


def _cosines(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Cosines of unit rows against unit cols, clipped to [-1, 1]; stacks
    of matrices give a stack of tiles."""
    tile = rows @ np.swapaxes(cols, -1, -2)
    return np.clip(tile, -1.0, 1.0, out=tile)


def _band_parents(work: np.ndarray, first: np.ndarray,
                  avg: float) -> tuple[np.ndarray, np.ndarray]:
    """Band pass of reply_forest: each block of B = _BAND consecutive
    posts against the B posts before it, one (2B - 1) x B tile per block,
    as many blocks per GEMM as _BAND_TILE_ELEMENTS allows.

    Post p is row work[B + p], and first[p] is the first post of its
    range.  Returns each post's latest qualifying candidate among posts
    max(first[p], kB - B) .. p - 1, k = p // B (-1 if none), and its
    cosine.
    """
    band = _BAND
    span = 2 * band - 1
    m = first.size
    blocks = work.shape[0] // band - 1
    s0, s1 = work.strides
    # rows[k, r] is post kB - B + r; cols[k, c] is post kB + c
    rows = np.lib.stride_tricks.as_strided(
        work, (blocks, span, work.shape[1]), (band * s0, s0, s1), writeable=False)
    cols = work[band:].reshape(blocks, band, work.shape[1])
    firsts = np.pad(first, (0, blocks * band - m), constant_values=m).reshape(blocks, band)
    earlier = np.arange(span)[:, None] < np.arange(band) + band
    parent = np.empty((blocks, band), dtype=np.int64)
    weight = np.empty((blocks, band))
    step = max(1, _BAND_TILE_ELEMENTS // (span * band))
    for k0 in range(0, blocks, step):
        k1 = min(blocks, k0 + step)
        tile = _cosines(rows[k0:k1], cols[k0:k1])
        cand = (np.arange(k0, k1) * band - band)[:, None] + np.arange(span)
        ok = (tile >= avg) & (tile != 0.0) & earlier
        ok &= cand[:, :, None] >= firsts[k0:k1, None, :]
        last = span - 1 - np.argmax(ok[:, ::-1], axis=1)
        parent[k0:k1] = np.where(ok.any(axis=1), np.take_along_axis(cand, last, axis=1), -1)
        weight[k0:k1] = np.take_along_axis(tile, last[:, None], axis=1)[:, 0]
    return parent.ravel()[:m], weight.ravel()[:m]


def _far_parents(unit: np.ndarray, first: np.ndarray, start: np.ndarray,
                 left: np.ndarray, avg: float) -> tuple[np.ndarray, ...]:
    """Fallback pass of reply_forest: for the ascending posts ``left``,
    the latest qualifying candidate among posts first[p] .. start[p] - 1,
    scanned over column tiles of at most _TILE_ELEMENTS cosines.  Post p
    is row unit[p].  Returns the posts that found one, their parents and
    the cosines."""
    found = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    # ranges are contiguous, so a range's leftovers are a run of ``left``
    runs = np.split(left, np.flatnonzero(np.diff(first[left])) + 1) if left.size else []
    for run in runs:
        f = first[run[0]]
        width = max(1, _TILE_ELEMENTS // (start[run[-1]] - f))
        for c0 in range(0, run.size, width):
            cols = run[c0:c0 + width]
            stop = start[cols[-1]]
            tile = _cosines(unit[f:stop], unit[cols])
            ok = ((tile >= avg) & (tile != 0.0)
                  & (np.arange(f, stop)[:, None] < start[cols]))
            hit = np.flatnonzero(ok.any(axis=0))
            last = ok.shape[0] - 1 - np.argmax(ok[::-1, hit], axis=0)
            found.append((cols[hit], last + f, tile[last, hit]))
    return tuple(np.concatenate(a) for a in zip(*found))


def reply_forest(embeddings: np.ndarray, ranges: list[Range]) -> ReplyGraph:
    """``thin(orient(prune_average(similarity_matrix(embeddings), ranges)))``
    without any n x n array.

    Each post j gets as parent the latest earlier post i of its range
    whose cosine to j is >= the global average and nonzero, with that
    cosine as weight.  The average over the strict upper triangle is
    (||sum u_i||^2 - sum ||u_i||^2) / (n (n - 1)) over unit rows u, which
    rounds differently from a mean over the matrix, so a cosine within a
    few ulps of it may fall the other way.

    Empty posts (zero rows) can be neither parent nor child and are set
    aside.  The search runs nearest first: a band pass scores each block
    of _BAND posts against the _BAND posts before it, which settles every
    post whose parent is that close.  Only the posts it leaves without a
    parent, roots and far replies, are scanned against the rest of their
    range, over column tiles of at most _TILE_ELEMENTS cosines.  The cost
    is about 2 n _BAND cosines plus one range length per leftover post,
    instead of the sum of squared range lengths.
    """
    unit = _unit_rows(embeddings)
    n = unit.shape[0]
    _check_partition(ranges, n)
    if n < 2:
        return ReplyGraph(n=n)
    total = unit.sum(axis=0)
    avg = (float(total @ total) - float(np.einsum("ij,ij->", unit, unit))) / (n * (n - 1))
    posts = np.flatnonzero(unit.any(axis=1))
    band, m = _BAND, posts.size
    # work[band + p] is post posts[p], after band zero rows and before
    # zero rows up to whole blocks
    work = np.zeros(((-(-m // band) + 1) * band, unit.shape[1]))
    work[band:band + m] = unit[posts]
    del unit
    los = np.array([r.lo for r in ranges])
    first = np.searchsorted(posts, los[np.searchsorted(los, posts, side="right") - 1])
    parent, weight = _band_parents(work, first, avg)
    start = np.arange(m) // band * band - band  # first post of each band
    left = np.flatnonzero((parent < 0) & (first < start))
    child, far, far_weight = _far_parents(work[band:], first, start, left, avg)
    parent[child] = far
    weight[child] = far_weight
    kept = np.flatnonzero(parent >= 0)
    kept = kept[np.lexsort((kept, parent[kept]))]  # by parent, then child
    return ReplyGraph(n=n, parent=posts[parent[kept]], child=posts[kept],
                      weight=weight[kept])


@dataclass
class Conversation:
    root: int
    members: list[int]           # ascending post indices, root included
    parents: dict[int, int]      # child -> parent, within members


def extract_conversations(graph: ReplyGraph) -> list[Conversation]:
    """One conversation per tree of the forest, ordered by root index."""
    if graph.child.size != np.unique(graph.child).size:
        raise ValueError("graph is not a forest: a node has in-degree > 1")
    parent_of = {int(v): int(u) for u, v in zip(graph.parent, graph.child)}
    root_of = np.arange(graph.n, dtype=np.int64)
    for v in range(graph.n):  # parents precede children, one pass suffices
        if v in parent_of:
            root_of[v] = root_of[parent_of[v]]
    members_by_root: dict[int, list[int]] = {}
    for i in range(graph.n):
        members_by_root.setdefault(int(root_of[i]), []).append(i)
    conversations = []
    for root in sorted(members_by_root):
        members = members_by_root[root]
        parents = {c: parent_of[c] for c in members if c in parent_of}
        conversations.append(Conversation(root=root, members=members, parents=parents))
    return conversations


def export_graph(graph: ReplyGraph, fmt: str) -> bytes:
    """Serialize to Graphviz DOT or a JSON edge list."""
    edges = sorted(graph.edge_dict().items())
    if fmt == "dot":
        lines = ["digraph replies {"]
        lines += [f"  {i};" for i in range(graph.n)]
        lines += [f'  {u} -> {v} [label="{w:.4f}"];' for (u, v), w in edges]
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        payload = {
            "n": graph.n,
            "edges": [{"parent": u, "child": v, "w": w} for (u, v), w in edges],
            "roots": graph.roots(),
        }
        return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    raise ValueError(f"unknown export format {fmt!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def parse_graph_json(data) -> ReplyGraph:
    """Inverse of export_graph(..., 'json').

    Raises ValueError unless n >= 0, every edge has
    0 <= parent < child < n and every weight is a finite number.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    payload = json.loads(data)
    if not isinstance(payload, dict):
        raise ValueError("graph must be a JSON object")
    n = payload["n"]
    if not _is_int(n) or n < 0:
        raise ValueError("'n' must be an integer >= 0")
    edges = payload.get("edges", [])
    if not isinstance(edges, list) or not all(isinstance(e, dict) for e in edges):
        raise ValueError("'edges' must be a list of objects")
    for e in edges:
        u, v, w = e["parent"], e["child"], e["w"]
        if not (_is_int(u) and _is_int(v) and 0 <= u < v < n):
            raise ValueError(f"edge {u!r} -> {v!r} breaks 0 <= parent < child < n")
        if not _is_finite(w):
            raise ValueError(f"edge {u} -> {v} has weight {w!r}, not a finite number")
    return ReplyGraph(
        n=n,
        parent=np.array([e["parent"] for e in edges], dtype=np.int64),
        child=np.array([e["child"] for e in edges], dtype=np.int64),
        weight=np.array([e["w"] for e in edges], dtype=np.float64),
    )
