"""Independent reference implementations used as test oracles.

These are deliberately naive, literal transcriptions of the two pruning
stages and of the Laplace smoothing, written against plain dict/list
structures and dense arrays with no shared code paths into the package.
The production implementations in ``untangler.graph`` and
``untangler.temporal`` are vectorized or recursive rewrites; every test
that matters checks them against these references on randomized inputs.
"""

from __future__ import annotations

import numpy as np


def reference_prune(embeddings_sim: np.ndarray, ranges: list[tuple[int, int]]) -> np.ndarray:
    """Stage-1 pruning, transcribed line by line from the obvious scalar
    reading: global average, zero below-average entries, then copy the
    square block of each (min, max) range into a fresh zero matrix."""
    sim = embeddings_sim.copy()
    n = sim.shape[0]
    total = 0.0
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += sim[i, j]
            count += 1
    avg = total / count if count else 0.0
    for i in range(n):
        for j in range(n):
            if sim[i, j] < avg:
                sim[i, j] = 0.0
    pruned = np.zeros(sim.shape)
    for (lo, hi) in ranges:
        pruned[lo:hi, lo:hi] = sim[lo:hi, lo:hi]
    return pruned


def reference_thin(n: int, edges: dict[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    """Stage-2 thinning, transcribed as the literal visited-set scan.

    Nodes are visited in ascending order.  For each node, every earlier
    visited node loses the children it shares with the current node, so
    a post that is reachable both directly and through a descendant
    keeps only the deeper link.
    """
    children: dict[int, list[int]] = {u: [] for u in range(n)}
    weight: dict[tuple[int, int], float] = {}
    for (u, v), w in edges.items():
        children[u].append(v)
        weight[(u, v)] = w
    for u in children:
        children[u].sort()

    visited: list[int] = []
    for node in range(n):
        visited.append(node)
        for itm in visited:
            if node == itm:
                continue
            for child in list(children[node]):
                if child in children[itm]:
                    children[itm].remove(child)
    return {
        (u, v): weight[(u, v)]
        for u in range(n)
        for v in children[u]
    }


def reference_smooth(grid: np.ndarray, raw: np.ndarray, tau: float) -> np.ndarray:
    """Laplace-kernel smoothing as the dense formula: every point's
    weights exp(-|t_i - t_j| / tau) over the whole grid, normalised to
    sum to one."""
    w = np.exp(-np.abs(grid[:, None] - grid[None, :]) / tau)
    return (w @ raw) / w.sum(axis=1)
