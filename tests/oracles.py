"""Independent reference implementations used as test oracles.

These are deliberately naive, literal transcriptions of the two pruning
stages, of the Laplace smoothing and of the LSTM post encoder and its
gradients, written against plain dict/list structures and dense arrays
with no shared code paths into the package.  The production implementations in
``untangler.graph``, ``untangler.temporal`` and ``untangler.embedder``
are vectorized, recursive or batched rewrites; every test that matters
checks them against these references on randomized inputs.

The last four helpers are different: per-post views of the production
encoder (one post, the mean of a context, a cosine and the sample loss
they define), which the encoder's own tests read its outputs through.
"""

from __future__ import annotations

import numpy as np

from untangler.embedder import _forward


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


def reference_grads(params, seq, d_out) -> dict[str, np.ndarray]:
    """Gradients of d_out . reference_encode(params, seq) for every
    parameter group, by backpropagation through time one timestep at a
    time: the forward pass of `reference_encode` keeps each step's token,
    previous states and gates, then the steps are walked in reverse."""
    hd = params.w_h.shape[0]
    h = np.zeros(hd)
    c = np.zeros(hd)
    steps = []
    for token in seq:
        a = params.emb[token] @ params.w_x + h @ params.w_h + params.b
        i, f, o = (np.exp(-np.logaddexp(0.0, -a[j * hd:(j + 1) * hd])) for j in range(3))
        g = np.tanh(a[3 * hd:])
        steps.append((token, h, c, i, f, o, g))
        c = f * c + i * g
        h = o * np.tanh(c)
    grads = {name: np.zeros_like(arr) for name, arr in params.groups().items()}
    grads["proj"] += np.outer(h, d_out)
    dh = params.proj @ d_out
    dc = np.zeros(hd)
    for token, h_prev, c_prev, i, f, o, g in reversed(steps):
        tc = np.tanh(f * c_prev + i * g)
        dc = dc + dh * o * (1.0 - tc * tc)
        da = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dh * tc * o * (1.0 - o), dc * i * (1.0 - g * g)])
        grads["w_x"] += np.outer(params.emb[token], da)
        grads["w_h"] += np.outer(h_prev, da)
        grads["b"] += da
        grads["emb"][token] += params.w_x @ da
        dh = params.w_h @ da
        dc = dc * f
    return grads


def encode_post(params, seq) -> np.ndarray:
    """Encoding of one post; deterministic given params."""
    return _forward(params, [seq])[0]


def encode_context(params, member_seqs) -> np.ndarray:
    """Mean of the member posts' encodings (empty members skipped)."""
    members = [s for s in member_seqs if len(s) > 0]
    if not members:
        raise ValueError("context has no non-empty member posts")
    return _forward(params, members).mean(axis=0)


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, in [-1, 1]."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for a zero vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def training_loss(l: np.ndarray, w_pos: np.ndarray, w_negs=()) -> float:
    """Negative-sampling logistic loss over cosine similarities; >= 0."""
    loss = float(np.logaddexp(0.0, -similarity(l, w_pos)))  # softplus, stable
    for w in w_negs:
        loss += float(np.logaddexp(0.0, similarity(l, w)))
    return loss
