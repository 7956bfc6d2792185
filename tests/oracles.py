"""Independent reference implementations used as test oracles.

These are deliberately naive, literal transcriptions of the two pruning
stages, of conversation extraction and graph export, of the Hawkes
excitation recursion, of the Laplace smoothing and its forward and
backward sums, of the schism cut rule and of the LSTM post encoder and
its gradients, of the synthetic-thread generator and its writers, and
of the average-linkage clustering baseline, of a chat-log line's parse
(one ``json.loads``, then every check),
written against plain dict/list structures
and dense arrays with no shared code paths into the package.
The production implementations in ``untangler.graph``,
``untangler.temporal`` and ``untangler.embedder`` are vectorized,
recursive or batched rewrites; every test that matters checks them
against these references on randomized inputs.

The last four helpers are different: per-post views of the production
encoder (one post, the mean of a context, a cosine and the sample loss
they define), which the encoder's own tests read its outputs through.
"""

from __future__ import annotations

import json
import math

import numpy as np

from untangler.embedder import _forward
from untangler.graph import Conversation
from untangler.harness import GoldStandard, _sample_times
from untangler.ingest import ChatLogError, Post, Thread


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


def reference_conversations(graph) -> list[Conversation]:
    """One conversation per tree, as the loop over posts: a child takes
    its parent's root, children in ascending order, each index read back
    from numpy scalars."""
    parent_of = {int(v): int(u) for u, v in zip(graph.parent, graph.child)}
    root_of = np.arange(graph.n, dtype=np.int64)
    for v in range(graph.n):
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


def reference_export(graph, fmt: str) -> bytes:
    """DOT or JSON text of a graph through a dict of edges (the last of
    equal pairs wins), sorted, and ``json.dumps`` over one dict per edge."""
    edges = sorted({(int(u), int(v)): float(w)
                    for u, v, w in zip(graph.parent, graph.child, graph.weight)}.items())
    if fmt == "dot":
        lines = ["digraph replies {"]
        lines += [f"  {i};" for i in range(graph.n)]
        lines += [f'  {u} -> {v} [label="{w:.4f}"];' for (u, v), w in edges]
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    has_parent = set(int(v) for v in graph.child)
    payload = {
        "n": graph.n,
        "edges": [{"parent": u, "child": v, "w": w} for (u, v), w in edges],
        "roots": [i for i in range(graph.n) if i not in has_parent],
    }
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def reference_excitation(events: np.ndarray, beta: float) -> np.ndarray:
    """s[i] = sum_{j<i} exp(-beta * (t_i - t_j)) in one indexed loop over
    the gaps g, with e = exp(-beta * g): s[i] = e * (s[i-1] + 1)."""
    s = [0.0] * events.size
    for i, e in enumerate(np.exp(-beta * np.diff(events)).tolist(), start=1):
        s[i] = e * (s[i - 1] + 1.0)
    return np.array(s)


def reference_laplace_sums(values: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """out[i] = sum_j values[j] * exp(-|t_i - t_j| / tau) as two indexed
    loops over decay[k] = exp(-(t[k+1] - t[k]) / tau): forward
    fwd[k] = values[k] + decay[k-1] * fwd[k-1], backward
    bwd[k] = values[k] + decay[k] * bwd[k+1], and out[k] = fwd[k] +
    decay[k] * bwd[k+1] (fwd[k] for the last point)."""
    v, d = values.tolist(), decay.tolist()
    n = len(v)
    fwd, bwd = list(v), list(v)
    for k in range(1, n):
        fwd[k] = v[k] + d[k - 1] * fwd[k - 1]
    for k in range(n - 2, -1, -1):
        bwd[k] = v[k] + d[k] * bwd[k + 1]
    out = list(fwd)
    for k in range(n - 1):
        out[k] = fwd[k] + d[k] * bwd[k + 1]
    return np.array(out)


def reference_smooth(grid: np.ndarray, raw: np.ndarray, tau: float) -> np.ndarray:
    """Laplace-kernel smoothing as the dense formula: every point's
    weights exp(-|t_i - t_j| / tau) over the whole grid, normalised to
    sum to one."""
    w = np.exp(-np.abs(grid[:, None] - grid[None, :]) / tau)
    return (w @ raw) / w.sum(axis=1)


def reference_ranges(vals: np.ndarray, quantile: float) -> list[tuple[int, int]]:
    """Schism ranges as the literal loop over posts: a cut before post i
    when its value is below the quantile of all values, strictly below
    post i - 1's and no higher than post i + 1's (if there is one)."""
    n = len(vals)
    threshold = float(np.quantile(vals, quantile))
    cuts = [0]
    for i in range(1, n):
        if vals[i] < threshold and vals[i] < vals[i - 1] and (
                i == n - 1 or vals[i] <= vals[i + 1]):
            cuts.append(i)
    cuts.append(n)
    return list(zip(cuts, cuts[1:]))


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


def reference_generate(config, seed: int = 0) -> tuple[Thread, GoldStandard]:
    """``harness.generate`` as the per-post loop: each post draws its
    parent with ``rng.choice(j, p=...)`` over the recency weights of the
    earlier posts of its conversation, then its length, then its tokens
    with ``rng.choice(pool, size=k)`` from the conversation's pool
    ``t{conv}w0 .. t{conv}w{pool_size-1}``."""
    config.validate()
    rng = np.random.default_rng(seed)
    records = []  # (time, conv, local_idx, local_parent, text)
    for conv in range(config.n_conversations):
        pool = [f"t{conv}w{i}" for i in range(config.pool_size)]
        lo, hi = config.posts_per_conversation
        n_posts = int(rng.integers(lo, hi + 1))
        times = _sample_times(config.hawkes, n_posts, rng) + conv * config.gap_seconds
        for j in range(n_posts):
            parent = None
            if j > 0:
                dt = times[j] - times[:j]
                logits = -dt * config.temperature
                w = np.exp(logits - logits.max())
                parent = int(rng.choice(j, p=w / w.sum()))
            k = int(rng.integers(config.tokens_per_post[0], config.tokens_per_post[1] + 1))
            text = " ".join(rng.choice(pool, size=k, replace=True))
            records.append((float(times[j]), conv, j, parent, text))
    records.sort(key=lambda r: (r[0], r[1], r[2]))
    final_index = {(conv, j): idx for idx, (_, conv, j, _, _) in enumerate(records)}
    posts = [Post(id=f"c{conv}p{j}", timestamp=t, text=text) for t, conv, j, _, text in records]
    parents = {
        final_index[(conv, j)]: final_index[(conv, parent)]
        for _, conv, j, parent, _ in records
        if parent is not None
    }
    labels = {final_index[(conv, j)]: conv for _, conv, j, _, _ in records}
    return Thread(posts=posts), GoldStandard(parents, labels)


def reference_agglomerative(dist: np.ndarray, n_clusters: int) -> list[int]:
    """``harness.agglomerative`` from its n x n distance matrix as the pair
    scan: each merge joins the lexicographically first active pair whose
    distance is within 1e-15 of the smallest, the survivor keeps the
    smaller index and gets the size-weighted average (Lance-Williams)
    distance to every other cluster; labels number the clusters by their
    smallest member."""
    n = dist.shape[0]
    d = {(i, j): float(dist[i, j]) for i in range(n) for j in range(n) if i != j}
    members = {i: [i] for i in range(n)}
    while len(members) > n_clusters:
        active = sorted(members)
        pairs = [(i, j) for a, i in enumerate(active) for j in active[a + 1:]]
        smallest = min(d[p] for p in pairs)
        i, j = next(p for p in pairs if d[p] <= smallest + 1e-15)
        ni, nj = len(members[i]), len(members[j])
        for k in active:
            if k not in (i, j):
                d[i, k] = d[k, i] = (ni * d[i, k] + nj * d[j, k]) / (ni + nj)
        members[i] += members.pop(j)
    labels = [0] * n
    for label, i in enumerate(sorted(members)):
        for m in members[i]:
            labels[m] = label
    return labels


def reference_thread_jsonl(thread) -> str:
    """thread.jsonl as one ``json.dumps`` per post, keys sorted."""
    lines = [json.dumps({"id": p.id, "ts": p.timestamp, "text": p.text},
                        sort_keys=True, ensure_ascii=False) for p in thread.posts]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_parse_line(raw: str, lineno: int) -> Post:
    """One chat-log line through ``json.loads`` and every check in turn,
    with the surrogate check on every line."""
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ChatLogError(f"invalid JSON ({exc.msg})", lineno) from exc
    except RecursionError as exc:
        raise ChatLogError("invalid JSON (nested too deeply)", lineno) from exc
    if not isinstance(obj, dict):
        raise ChatLogError("expected a JSON object", lineno)
    for key in ("id", "ts", "text"):
        if key not in obj:
            raise ChatLogError(f"missing key {key!r}", lineno)
    pid, ts, text = obj["id"], obj["ts"], obj["text"]
    if not isinstance(pid, str) or not pid:
        raise ChatLogError("'id' must be a non-empty string", lineno)
    if isinstance(ts, bool) or not isinstance(ts, (int, float)):
        raise ChatLogError("'ts' must be a number", lineno)
    try:
        ts = float(ts)
    except OverflowError:  # an integer beyond the float range
        ts = math.inf
    if not math.isfinite(ts):
        raise ChatLogError("'ts' must be finite", lineno)
    if ts < 0:
        raise ChatLogError("'ts' must be >= 0", lineno)
    if not isinstance(text, str):
        raise ChatLogError("'text' must be a string", lineno)
    author = obj.get("author")
    if author is not None and not isinstance(author, str):
        raise ChatLogError("'author' must be a string when present", lineno)
    for key, value in (("id", pid), ("text", text), ("author", author or "")):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate escape, such as "\ud800"
            raise ChatLogError(f"{key!r} is not UTF-8 text (lone surrogate "
                               f"{ascii(value[exc.start])} at character {exc.start})", lineno) from exc
    return Post(id=pid, timestamp=ts, text=text)


def reference_gold_json(gold) -> str:
    """gold.json as ``json.dumps`` over string-keyed tables, keys sorted."""
    payload = {
        "parents": {str(c): p for c, p in sorted(gold.parents.items())},
        "labels": {str(i): l for i, l in sorted(gold.labels.items())},
    }
    return json.dumps(payload, sort_keys=True) + "\n"


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
