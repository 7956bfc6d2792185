"""Recurrent post encoder trained with a skipgram-style objective.

A post is encoded by running a single-layer LSTM over its token
embeddings and projecting the final hidden state to the embedding width.
A context embedding is the arithmetic mean of its member posts'
encodings.  Training pushes a post's encoding toward its own context and
away from sampled negative contexts (random posts outside the window),
using a logistic loss over cosine similarities:

    loss = -log sigmoid(cos(l, w_pos)) - sum_j log sigmoid(-cos(l, w_neg_j))

All numerics are plain numpy with hand-written backpropagation so the
whole loss is finite-difference checkable.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .corpus import ContextWindow, Vocab, encode_text
from .ingest import Thread

CHECKPOINT_MAGIC = b"UNTG"
CHECKPOINT_VERSION = 1

# concatenated gate order in w_x / w_h / b
_GATE_ORDER = ("input", "forget", "output", "candidate")


@dataclass
class EncoderConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden_dim: int = 64
    max_len: int = 64
    seed: int = 0
    learning_rate: float = 0.05
    epochs: int = 30
    negatives_per_sample: int = 5
    batch_size: int = 16

    def validate(self) -> None:
        for name in ("vocab_size", "embed_dim", "hidden_dim", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")


@dataclass
class EncoderParams:
    """LSTM parameters.  Gate matrices are stored concatenated along the
    last axis in the order input, forget, output, candidate."""

    emb: np.ndarray   # (vocab_size, embed_dim) token embeddings
    w_x: np.ndarray   # (embed_dim, 4*hidden_dim) input-to-gate weights
    w_h: np.ndarray   # (hidden_dim, 4*hidden_dim) recurrent weights
    b: np.ndarray     # (4*hidden_dim,) gate biases
    proj: np.ndarray  # (hidden_dim, embed_dim) output projection

    @property
    def hidden_dim(self) -> int:
        return self.w_h.shape[0]

    def groups(self) -> dict[str, np.ndarray]:
        return {"emb": self.emb, "w_x": self.w_x, "w_h": self.w_h,
                "b": self.b, "proj": self.proj}

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(*(np.zeros_like(a) for a in
                               (self.emb, self.w_x, self.w_h, self.b, self.proj)))

    def copy(self) -> "EncoderParams":
        return EncoderParams(*(a.copy() for a in
                               (self.emb, self.w_x, self.w_h, self.b, self.proj)))


def init_params(config: EncoderConfig) -> EncoderParams:
    """Uniform [-0.08, 0.08] init, forget-gate bias 1.0, seed-controlled."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    v, d, h = config.vocab_size, config.embed_dim, config.hidden_dim

    def u(*shape):
        return rng.uniform(-0.08, 0.08, size=shape)

    params = EncoderParams(emb=u(v, d), w_x=u(d, 4 * h), w_h=u(h, 4 * h),
                           b=u(4 * h), proj=u(h, d))
    params.b[h:2 * h] = 1.0  # forget gate
    return params


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z: float) -> float:
    # log(1 + e^z), stable
    return float(np.logaddexp(0.0, z))


@dataclass
class _Cache:
    seq: Sequence[int]
    x: np.ndarray        # (T, embed_dim)
    hs: np.ndarray       # (T+1, hidden_dim)
    cs: np.ndarray       # (T+1, hidden_dim)
    gates: np.ndarray    # (T, 4, hidden_dim)
    tanh_c: np.ndarray   # (T, hidden_dim)


def _forward(params: EncoderParams, seq: Sequence[int]) -> tuple[np.ndarray, _Cache]:
    h = params.hidden_dim
    t_len = len(seq)
    x = params.emb[np.asarray(seq, dtype=np.intp)]
    a_x = x @ params.w_x
    hs = np.zeros((t_len + 1, h))
    cs = np.zeros((t_len + 1, h))
    gates = np.zeros((t_len, 4, h))
    tanh_c = np.zeros((t_len, h))
    for t in range(t_len):
        a = a_x[t] + hs[t] @ params.w_h + params.b
        gi = _sigmoid(a[:h])
        gf = _sigmoid(a[h:2 * h])
        go = _sigmoid(a[2 * h:3 * h])
        gg = np.tanh(a[3 * h:])
        cs[t + 1] = gf * cs[t] + gi * gg
        tanh_c[t] = np.tanh(cs[t + 1])
        hs[t + 1] = go * tanh_c[t]
        gates[t, 0], gates[t, 1], gates[t, 2], gates[t, 3] = gi, gf, go, gg
    out = hs[t_len] @ params.proj
    return out, _Cache(seq, x, hs, cs, gates, tanh_c)


def _backward(params: EncoderParams, cache: _Cache, d_out: np.ndarray,
              grads: EncoderParams) -> None:
    """Accumulate d(loss)/d(params) into grads given d(loss)/d(encoding)."""
    h = params.hidden_dim
    t_len = len(cache.seq)
    grads.proj += np.outer(cache.hs[t_len], d_out)
    dh = params.proj @ d_out
    dc = np.zeros(h)
    d_a = np.zeros((t_len, 4 * h))
    for t in range(t_len - 1, -1, -1):
        gi, gf, go, gg = cache.gates[t]
        tc = cache.tanh_c[t]
        do = dh * tc
        dc = dc + dh * go * (1.0 - tc * tc)
        di = dc * gg
        dg = dc * gi
        df = dc * cache.cs[t]
        d_a[t, :h] = di * gi * (1.0 - gi)
        d_a[t, h:2 * h] = df * gf * (1.0 - gf)
        d_a[t, 2 * h:3 * h] = do * go * (1.0 - go)
        d_a[t, 3 * h:] = dg * (1.0 - gg * gg)
        dh = params.w_h @ d_a[t]
        dc = dc * gf
    grads.w_x += cache.x.T @ d_a
    grads.w_h += cache.hs[:-1].T @ d_a
    grads.b += d_a.sum(axis=0)
    dx = d_a @ params.w_x.T
    np.add.at(grads.emb, np.asarray(cache.seq, dtype=np.intp), dx)


def encode_post(params: EncoderParams, seq: Sequence[int]) -> np.ndarray:
    """Encoding of one post; deterministic given params."""
    if len(seq) == 0:
        raise ValueError("cannot encode an empty token sequence")
    out, _ = _forward(params, seq)
    return out


def encode_context(params: EncoderParams, member_seqs: Sequence[Sequence[int]]) -> np.ndarray:
    """Mean of the member posts' encodings (empty members skipped)."""
    vecs = [encode_post(params, s) for s in member_seqs if len(s) > 0]
    if not vecs:
        raise ValueError("context has no non-empty member posts")
    return np.mean(vecs, axis=0)


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, in [-1, 1]."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for a zero vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def training_loss(l: np.ndarray, w_pos: np.ndarray,
                  w_negs: Sequence[np.ndarray] = ()) -> float:
    """Negative-sampling logistic loss over cosine similarities; >= 0."""
    loss = _softplus(-similarity(l, w_pos))
    for w in w_negs:
        loss += _softplus(similarity(l, w))
    return loss


def _cos_grads(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    c = float(np.dot(a, b) / (na * nb))
    dca = b / (na * nb) - c * a / (na * na)
    dcb = a / (na * nb) - c * b / (nb * nb)
    return c, dca, dcb


def loss_and_grads(
    params: EncoderParams,
    center_seq: Sequence[int],
    member_seqs: Sequence[Sequence[int]],
    neg_seqs: Sequence[Sequence[int]],
    grads: Optional[EncoderParams] = None,
) -> tuple[float, EncoderParams]:
    """Loss for one (post, context, negatives) sample plus parameter
    gradients, accumulated into ``grads`` when given.

    Each entry of neg_seqs is a single post acting as a one-member
    negative context.
    """
    if grads is None:
        grads = params.zeros_like()
    members = [s for s in member_seqs if len(s) > 0]
    if not members:
        raise ValueError("sample has no non-empty context members")
    l_vec, cache_c = _forward(params, center_seq)
    member_out = [_forward(params, s) for s in members]
    w_pos = np.mean([v for v, _ in member_out], axis=0)
    neg_out = [_forward(params, s) for s in neg_seqs if len(s) > 0]

    z_pos, dzl, dzw = _cos_grads(l_vec, w_pos)
    loss = _softplus(-z_pos)
    coef_pos = -_sigmoid(np.array([-z_pos]))[0]  # d loss / d z_pos
    dl = coef_pos * dzl
    dw_pos = coef_pos * dzw

    neg_backs = []
    for v, cache in neg_out:
        z, dza, dzb = _cos_grads(l_vec, v)
        loss += _softplus(z)
        coef = _sigmoid(np.array([z]))[0]
        dl = dl + coef * dza
        neg_backs.append((cache, coef * dzb))

    _backward(params, cache_c, dl, grads)
    share = dw_pos / len(member_out)
    for _, cache in member_out:
        _backward(params, cache, share, grads)
    for cache, dv in neg_backs:
        _backward(params, cache, dv, grads)
    return loss, grads


@dataclass
class _Sample:
    thread_idx: int
    center: int
    members: tuple[int, ...]


def train(
    threads: list[Thread],
    vocab: Vocab,
    windows: list[list[ContextWindow]],
    config: EncoderConfig,
) -> tuple[EncoderParams, list[float]]:
    """Minibatch gradient descent over all (post, context) samples.

    ``windows[t]`` must hold the windows of ``threads[t]``.  Negatives are
    drawn uniformly from the same thread's non-empty posts outside the
    window.  Deterministic for a fixed config seed.  Returns the trained
    parameters and the per-epoch mean loss.
    """
    config.validate()
    if len(windows) != len(threads):
        raise ValueError("windows must be given per thread")
    seqs: list[list[list[int]]] = [
        [encode_text(vocab, p.text, config.max_len) for p in th.posts]
        for th in threads
    ]
    samples: list[_Sample] = []
    for t, wins in enumerate(windows):
        for w in wins:
            if not seqs[t][w.center]:
                continue
            members = tuple(m for m in w.members if seqs[t][m])
            if members:
                samples.append(_Sample(t, w.center, members))
    if not samples:
        raise ValueError("no trainable (post, context) samples")

    nonempty: list[np.ndarray] = [
        np.array([i for i, s in enumerate(ts) if s], dtype=np.intp) for ts in seqs
    ]
    rng = np.random.default_rng(config.seed)
    params = init_params(config)
    curve: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(samples))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            grads = params.zeros_like()
            for si in batch:
                s = samples[si]
                excluded = set(s.members) | {s.center}
                pool = [i for i in nonempty[s.thread_idx] if i not in excluded]
                n_neg = min(config.negatives_per_sample, len(pool))
                negs = rng.choice(len(pool), size=n_neg, replace=False) if n_neg else []
                neg_seqs = [seqs[s.thread_idx][pool[j]] for j in negs]
                member_seqs = [seqs[s.thread_idx][m] for m in s.members]
                loss, _ = loss_and_grads(params, seqs[s.thread_idx][s.center],
                                         member_seqs, neg_seqs, grads)
                total += loss
            scale = config.learning_rate / len(batch)
            for name, g in grads.groups().items():
                params.groups()[name] -= scale * g
        curve.append(total / len(samples))
    return params, curve


def embed_thread(params: EncoderParams, thread: Thread, vocab: Vocab,
                 max_len: int = 64) -> np.ndarray:
    """n x d matrix of post encodings; empty posts get all-zero rows and
    are excluded from graph edges downstream."""
    d = params.proj.shape[1]
    out = np.zeros((len(thread), d))
    for i, post in enumerate(thread.posts):
        seq = encode_text(vocab, post.text, max_len)
        if seq:
            out[i] = encode_post(params, seq)
    return out


# ---------------------------------------------------------------------------
# Checkpoint format: magic "UNTG", u32 version, config block
# (<7i q d i> = vocab_size, embed_dim, hidden_dim, max_len, epochs,
# negatives_per_sample, batch_size, seed, learning_rate, reserved),
# then row-major little-endian float32 blocks: emb, w_x, w_h, b, proj.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sI7iqdi")


def save_checkpoint(path: str, config: EncoderConfig, params: EncoderParams) -> None:
    with open(path, "wb") as fp:
        fp.write(_HEADER.pack(
            CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
            config.vocab_size, config.embed_dim, config.hidden_dim,
            config.max_len, config.epochs, config.negatives_per_sample,
            config.batch_size, config.seed, config.learning_rate, 0))
        for arr in (params.emb, params.w_x, params.w_h, params.b, params.proj):
            fp.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path: str) -> tuple[EncoderConfig, EncoderParams]:
    """Inverse of save_checkpoint.  Raises ValueError on a malformed file;
    the header dims are checked against the file size before any read."""
    with open(path, "rb") as fp:
        header = fp.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError("truncated checkpoint header")
        (magic, version, v, d, h, max_len, epochs, negs, batch,
         seed, lr, _reserved) = _HEADER.unpack(header)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError("not an untangler checkpoint (bad magic)")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        config = EncoderConfig(vocab_size=v, embed_dim=d, hidden_dim=h,
                               max_len=max_len, seed=int(seed), learning_rate=lr,
                               epochs=epochs, negatives_per_sample=negs,
                               batch_size=batch)
        config.validate()
        shapes = [(v, d), (d, 4 * h), (h, 4 * h), (4 * h,), (h, d)]
        payload = 4 * sum(int(np.prod(shape)) for shape in shapes)
        size = os.fstat(fp.fileno()).st_size - _HEADER.size
        if size < payload:
            raise ValueError("truncated checkpoint parameter block")
        if size > payload:
            raise ValueError("trailing bytes after checkpoint payload")
        arrays = []
        for shape in shapes:
            buf = fp.read(4 * int(np.prod(shape)))
            arrays.append(np.frombuffer(buf, dtype="<f4").astype(np.float64).reshape(shape))
    return config, EncoderParams(*arrays)
