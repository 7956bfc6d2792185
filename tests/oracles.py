"""Independent reference implementations used as test oracles.

These are deliberately naive, literal transcriptions of the two pruning
stages, of the Laplace smoothing and of the LSTM post encoder, written
against plain dict/list structures and dense arrays with no shared code
paths into the package.  The production implementations in
``untangler.graph``, ``untangler.temporal`` and ``untangler.embedder``
are vectorized, recursive or batched rewrites; every test that matters
checks them against these references on randomized inputs.
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


def reference_encode(params, seq) -> np.ndarray:
    """LSTM encoding of one post, one timestep at a time.  Gates (input,
    forget, output, candidate) come from emb[token] @ w_x + h @ w_h + b;
    then c = f * c + i * g and h = o * tanh(c), and the encoding is the
    last h projected by proj."""
    hd = params.w_h.shape[0]
    h = np.zeros(hd)
    c = np.zeros(hd)
    for token in seq:
        a = params.emb[token] @ params.w_x + h @ params.w_h + params.b
        # logistic function as exp(-log(1 + e^-z)), which cannot overflow
        i, f, o = (np.exp(-np.logaddexp(0.0, -a[j * hd:(j + 1) * hd])) for j in range(3))
        g = np.tanh(a[3 * hd:])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h @ params.proj
