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
linear in the number of posts, in one nearest-first scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .score import Conversation, extract_trees, read_graph
from .temporal import Range

# posts per block of reply_forest, and the width of each block's first
# window; every further window is twice as wide as the one before
_BAND = 64
# float64 elements in one cosine tile of reply_forest (8 MB), which caps
# a window's width by the number of posts still searching
_TILE_ELEMENTS = 1 << 20
# rows (edges or nodes) formatted at a time by export_graph
_EXPORT_ROWS = 1024


def _unit_rows(embeddings: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; a row whose norm is 0 becomes zero."""
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise ValueError("embeddings must be an n x d matrix")
    if not np.isfinite(emb).all():
        raise ValueError("embeddings must be finite")
    norms = np.linalg.norm(emb, axis=1)
    return emb / np.where(norms > 0, norms, np.inf)[:, None]


def _cosines(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Cosines of unit rows against unit cols, clipped to [-1, 1]."""
    tile = rows @ cols.T
    return np.clip(tile, -1.0, 1.0, out=tile)


def similarity_matrix(embeddings: np.ndarray) -> np.ndarray:
    """Symmetric n x n cosine matrix with zero diagonal.

    All-zero embedding rows (empty posts) get zero similarity to every
    other post and therefore never take part in edges.
    """
    unit = _unit_rows(embeddings)
    sim = _cosines(unit, unit)
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
    order, so the graph is acyclic by construction.  The edges come in
    no particular order; ``export_graph`` fixes one.
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

    def roots(self) -> list[int]:
        has_parent = np.zeros(self.n, dtype=bool)
        has_parent[self.child] = True
        return np.flatnonzero(~has_parent).tolist()


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
    The edges come in no particular order.
    """
    order = np.lexsort((graph.parent, graph.child))
    # the last of each child's run has its max parent; children are >= 1, so -1 ends the last run
    keep = order[np.flatnonzero(np.diff(graph.child[order], append=-1))]
    return ReplyGraph(n=graph.n, parent=graph.parent[keep], child=graph.child[keep],
                      weight=graph.weight[keep])


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
    aside.  The rest are searched nearest first in blocks of _BAND
    consecutive posts.  A block is scored against the _BAND posts just
    before its last post; a post that finds no parent there and whose
    range starts earlier moves on to the window just before, twice as
    wide (at most _TILE_ELEMENTS cosines a tile), until it has a parent
    or has reached its range's start.  That costs _BAND cosines a post,
    plus about twice the parent distance for each post found further
    back, or its range length for a root.  The edges come in no
    particular order.
    """
    unit = _unit_rows(embeddings)
    n = unit.shape[0]
    _check_partition(ranges, n)
    if n < 2:
        return ReplyGraph(n=n)
    total = unit.sum(axis=0)
    avg = (float(total @ total) - float(np.einsum("ij,ij->", unit, unit))) / (n * (n - 1))
    posts = np.flatnonzero(unit.any(axis=1))
    m = posts.size
    if m < n:  # set the empty posts aside; with none, no copy
        unit = unit[posts]
    los = np.array([r.lo for r in ranges])
    # first[p]: the first post of p's range, both counted among non-empty posts
    first = np.searchsorted(posts, los[np.searchsorted(los, posts, side="right") - 1])
    parent, weight = np.full(m, -1), np.empty(m)
    for b0 in range(0, m, _BAND):
        cols = np.arange(b0, min(m, b0 + _BAND))
        hi, width = cols[-1], _BAND  # the window is posts lo .. hi - 1
        cols = cols[first[cols] < cols]  # the first post of a range has no candidate
        while cols.size:
            width = min(width, max(1, _TILE_ELEMENTS // cols.size))
            lo = max(hi - width, first[cols[0]])
            tile = _cosines(unit[lo:hi], unit[cols])
            cand = np.arange(lo, hi)[:, None]
            ok = (tile >= avg) & (tile != 0.0) & (cand < cols) & (cand >= first[cols])
            hit = ok.any(axis=0)
            last = hi - lo - 1 - np.argmax(ok[::-1], axis=0)
            parent[cols] = np.where(hit, lo + last, -1)
            weight[cols] = tile[last, np.arange(cols.size)]
            cols = cols[~hit & (first[cols] < lo)]
            hi, width = lo, 2 * width
    kept = np.flatnonzero(parent >= 0)
    return ReplyGraph(n=n, parent=posts[parent[kept]], child=posts[kept],
                      weight=weight[kept])


def extract_conversations(graph: ReplyGraph) -> list[Conversation]:
    """One conversation per tree of the forest, ordered by root index."""
    return extract_trees(graph.n, graph.parent.tolist(), graph.child.tolist())


def export_graph(graph: ReplyGraph, fmt: str) -> bytes:
    """Serialize to Graphviz DOT or a JSON edge list.

    Edges are ordered by (parent, child); of two edges with the same
    endpoints the later one wins, as in ``edge_dict``.  The JSON text is
    that of ``json.dumps(payload, sort_keys=True)``, formatted straight
    from the arrays 1,024 edges at a time, so that no more than a part's
    Python objects are ever alive.  Raises ValueError on a non-finite
    weight, which JSON cannot carry.
    """
    if fmt not in ("dot", "json"):
        raise ValueError(f"unknown export format {fmt!r}")
    if not np.isfinite(graph.weight).all():
        raise ValueError("edge weights must be finite")
    order = np.lexsort((graph.child, graph.parent))  # stable: equal pairs keep their order
    parent, child = graph.parent[order], graph.child[order]
    last = np.ones(order.size, dtype=bool)  # the last edge of each run of equal pairs
    last[:-1] = (parent[1:] != parent[:-1]) | (child[1:] != child[:-1])
    order = order[last]
    u, v, w = graph.parent[order], graph.child[order], graph.weight[order]
    if fmt == "dot":
        return b"".join([b"digraph replies {\n", *_formatted("  {};\n", "", np.arange(graph.n)),
                         *_formatted('  {} -> {} [label="{:.4f}"];\n', "", u, v, w), b"}\n"])
    roots = ", ".join(map(str, graph.roots()))
    return b"".join([b'{"edges": [', *_formatted('{{"child": {1}, "parent": {0}, "w": {2!r}}}',
                                                 ", ", u, v, w),
                     f'], "n": {graph.n}, "roots": [{roots}]}}\n'.encode()])


def _formatted(template: str, sep: str, *columns: np.ndarray) -> list[bytes]:
    """`template` over the rows of `columns`, as UTF-8 parts of
    _EXPORT_ROWS rows each with `sep` between rows."""
    parts = []
    for at in range(0, columns[0].size, _EXPORT_ROWS):
        rows = (column[at:at + _EXPORT_ROWS].tolist() for column in columns)
        parts += [sep.encode(), sep.join(map(template.format, *rows)).encode()]
    return parts[1:]


def parse_graph_json(data) -> ReplyGraph:
    """Inverse of export_graph(..., 'json'), checked by score.read_graph."""
    n, parent, child, weight = read_graph(data)
    return ReplyGraph(n=n, parent=np.array(parent, dtype=np.int64),
                      child=np.array(child, dtype=np.int64),
                      weight=np.array(weight, dtype=np.float64))
