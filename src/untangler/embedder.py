"""Recurrent post encoder trained with a skipgram-style objective.

A post is encoded by running a single-layer LSTM over its token
embeddings and projecting the final hidden state to the embedding width.
A context embedding is the arithmetic mean of its member posts'
encodings.  Training pushes a post's encoding toward its own context and
away from sampled negative contexts (random posts outside the window),
using a logistic loss over cosine similarities:

    loss = -log sigmoid(cos(l, w_pos)) - sum_j log sigmoid(-cos(l, w_neg_j))

Any set of posts is encoded as one packed batch whose matrix products
at each timestep cover only the rows still running, and a training
minibatch encodes each post it touches once.  All numerics are plain numpy with
hand-written backpropagation so the whole loss is finite-difference
checkable.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import ContextWindow, Vocab, encode_text
from .ingest import Thread

CHECKPOINT_MAGIC = b"UNTG"
CHECKPOINT_VERSION = 1


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
        return EncoderParams(*(np.zeros_like(a) for a in self.groups().values()))


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


def _sigmoid(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(z / 2)), stable for every z."""
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _gates(params: EncoderParams, ids: np.ndarray, h: np.ndarray,
           out: np.ndarray) -> list[np.ndarray]:
    """One step's input, forget, output and candidate gate activations
    for tokens ``ids`` and previous hidden states ``h``, written to ``out``."""
    hd = params.hidden_dim
    np.matmul(params.emb[ids], params.w_x, out=out)
    for g in range(0, 4 * hd, hd):  # gate by gate: no k x 4h temporary
        out[:, g:g + hd] += h @ params.w_h[:, g:g + hd]
    out += params.b
    _sigmoid(out[:, :3 * hd], out=out[:, :3 * hd])
    np.tanh(out[:, 3 * hd:], out=out[:, 3 * hd:])
    return np.split(out, 4, axis=1)


def _forward(params: EncoderParams, seqs: Sequence[Sequence[int]],
             tape: Optional[list] = None) -> np.ndarray:
    """Encodings (len(seqs) x embed_dim) of non-empty token sequences as
    one packed batch: rows sorted longest first, tokens left-aligned, so
    the rows still running at step t are a prefix [:k_t] and each step's
    products cover that prefix only.  A ``tape`` list receives
    each step's hidden and cell states, then the packing, for `_backward`.
    """
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    if lengths.size and lengths.min() == 0:
        raise ValueError("cannot encode an empty token sequence")
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    steps = np.arange(lengths.max(initial=0))
    tok = np.zeros((len(seqs), steps.size), dtype=np.intp)
    tok[steps < lengths[:, None]] = [w for i in order for w in seqs[i]]
    hd = params.hidden_dim
    h, c = np.zeros((2, len(seqs), hd))  # hidden and cell states
    buf = np.empty((len(seqs), 4 * hd))
    for t, k in enumerate(np.count_nonzero(lengths > steps[:, None], axis=1)):
        gi, gf, go, gg = _gates(params, tok[:k, t], h[:k], buf[:k])
        c[:k] *= gf
        c[:k] += gi * gg
        np.tanh(c[:k], out=h[:k])
        h[:k] *= go
        if tape is not None:
            tape.append((h[:k].copy(), c[:k].copy()))
    if tape is not None:
        tape.append((order, tok, h))
    out = np.empty((len(seqs), params.proj.shape[1]))
    out[order] = h @ params.proj
    return out


def _backward(params: EncoderParams, tape: list, d_out: np.ndarray,
              grads: EncoderParams) -> None:
    """Accumulate d(loss)/d(params) into grads, given d(loss)/d(encodings)
    for the rows of the `_forward` call that filled ``tape``.  Each step's
    gates are recomputed from the states of the step before.  Consumes
    the tape."""
    order, tok, h = tape.pop()
    hd = params.hidden_dim
    d_out = d_out[order]
    grads.proj += h.T @ d_out
    dh = d_out @ params.proj.T
    dc = np.zeros_like(dh)
    buf = np.empty((len(h), 4 * hd))
    d_a = np.empty_like(buf)
    while tape:
        c = tape.pop()[1]
        t, k = len(tape), len(c)
        h_prev, c_prev = (s[:k] for s in tape[-1]) if tape else (np.zeros((k, hd)),) * 2
        ids = tok[:k, t]
        gi, gf, go, gg = _gates(params, ids, h_prev, buf[:k])
        tc = np.tanh(c)
        dh_k, dc_k, d_ak = dh[:k], dc[:k], d_a[:k]
        dc_k += dh_k * go * (1.0 - tc * tc)
        d_ak[:, :hd] = dc_k * gg * gi * (1.0 - gi)
        d_ak[:, hd:2 * hd] = dc_k * c_prev * gf * (1.0 - gf)
        d_ak[:, 2 * hd:3 * hd] = dh_k * tc * go * (1.0 - go)
        d_ak[:, 3 * hd:] = dc_k * gi * (1.0 - gg * gg)
        grads.w_x += params.emb[ids].T @ d_ak
        grads.w_h += h_prev.T @ d_ak
        grads.b += d_ak.sum(axis=0)
        np.add.at(grads.emb, ids, d_ak @ params.w_x.T)
        dh_k[...] = d_ak @ params.w_h.T
        dc_k *= gf


def encode_post(params: EncoderParams, seq: Sequence[int]) -> np.ndarray:
    """Encoding of one post; deterministic given params."""
    return _forward(params, [seq])[0]


def encode_context(params: EncoderParams, member_seqs: Sequence[Sequence[int]]) -> np.ndarray:
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


def training_loss(l: np.ndarray, w_pos: np.ndarray,
                  w_negs: Sequence[np.ndarray] = ()) -> float:
    """Negative-sampling logistic loss over cosine similarities; >= 0."""
    loss = float(np.logaddexp(0.0, -similarity(l, w_pos)))  # softplus, stable
    for w in w_negs:
        loss += float(np.logaddexp(0.0, similarity(l, w)))
    return loss


def _minibatch_loss(params: EncoderParams, seqs: Sequence[Sequence[int]],
                    batch: Sequence[tuple[int, Sequence[Sequence[int]]]],
                    grads: EncoderParams) -> float:
    """Summed loss of a minibatch, with its gradient accumulated into grads.

    ``batch`` holds (centre, contexts) samples as indices into ``seqs``, the
    minibatch's distinct posts, so each post is encoded once.  A centre is
    paired with the mean of each context: its window's members first
    (label y = +1), then one-post negatives (y = -1).  A pair with cosine
    z costs softplus(-y z).
    """
    centre, ctx, rows, y = [], [], [], []
    for c, contexts in batch:
        for j, members in enumerate(contexts):
            ctx += [len(y)] * len(members)
            rows += members
            centre.append(c)
            y.append(-1.0 if j else 1.0)
    y = np.array(y)
    size = np.bincount(ctx, minlength=len(y))[:, None]
    tape: list = []
    enc = _forward(params, seqs, tape)
    left = enc[centre]
    right = np.zeros_like(left)
    np.add.at(right, ctx, enc[rows])
    right /= size
    nl = np.linalg.norm(left, axis=1)
    nr = np.linalg.norm(right, axis=1)
    z = np.einsum("ij,ij->i", left, right) / (nl * nr)
    coef = -y * _sigmoid(-y * z)  # d loss / d z
    d_left = (coef / (nl * nr))[:, None] * right - (coef * z / (nl * nl))[:, None] * left
    d_right = (coef / (nl * nr))[:, None] * left - (coef * z / (nr * nr))[:, None] * right
    d_enc = np.zeros_like(enc)
    np.add.at(d_enc, centre, d_left)
    np.add.at(d_enc, rows, (d_right / size)[ctx])
    _backward(params, tape, d_enc, grads)
    return float(np.logaddexp(0.0, -y * z).sum())


def loss_and_grads(params: EncoderParams, center_seq: Sequence[int],
                   member_seqs: Sequence[Sequence[int]], neg_seqs: Sequence[Sequence[int]],
                   grads: Optional[EncoderParams] = None) -> tuple[float, EncoderParams]:
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
    seqs = [center_seq, *members, *(s for s in neg_seqs if len(s) > 0)]
    k = len(members) + 1
    contexts = [range(1, k)] + [[j] for j in range(k, len(seqs))]
    return _minibatch_loss(params, seqs, [(0, contexts)], grads), grads


def train(threads: list[Thread], vocab: Vocab, windows: list[list[ContextWindow]],
          config: EncoderConfig) -> tuple[EncoderParams, list[float]]:
    """Minibatch gradient descent over all (post, context) samples.

    ``windows[t]`` must hold the windows of ``threads[t]``.  Negatives are
    drawn uniformly from the same thread's non-empty posts outside the
    window.  Each minibatch encodes every post it touches once, in one
    forward and one backward pass.  Deterministic for a fixed config seed.
    Returns the trained parameters and the per-epoch mean loss.
    """
    config.validate()
    if len(windows) != len(threads):
        raise ValueError("windows must be given per thread")
    seqs: list[list[list[int]]] = [
        [encode_text(vocab, p.text, config.max_len) for p in th.posts]
        for th in threads
    ]
    samples: list[tuple[int, int, tuple[int, ...]]] = []  # thread, centre, members
    for t, wins in enumerate(windows):
        for w in wins:
            if not seqs[t][w.center]:
                continue
            members = tuple(m for m in w.members if seqs[t][m])
            if members:
                samples.append((t, w.center, members))
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
            rows: dict[tuple[int, int], int] = {}  # (thread, post) -> row
            batch = []
            for si in order[start:start + config.batch_size]:
                t, center, members = samples[si]
                pool = [i for i in nonempty[t] if i != center and i not in members]
                n_neg = min(config.negatives_per_sample, len(pool))
                negs = rng.choice(len(pool), size=n_neg, replace=False) if n_neg else []
                contexts = [members] + [[pool[j]] for j in negs]
                batch.append((rows.setdefault((t, center), len(rows)),
                              [[rows.setdefault((t, i), len(rows)) for i in c] for c in contexts]))
            grads = params.zeros_like()
            total += _minibatch_loss(params, [seqs[t][i] for t, i in rows], batch, grads)
            scale = config.learning_rate / len(batch)
            for name, g in grads.groups().items():
                params.groups()[name] -= scale * g
        curve.append(total / len(samples))
    return params, curve


def embed_thread(params: EncoderParams, thread: Thread, vocab: Vocab,
                 max_len: int = 64) -> np.ndarray:
    """n x d matrix of post encodings, all posts run as one packed batch;
    empty posts get all-zero rows and are excluded from graph edges
    downstream."""
    seqs = [encode_text(vocab, p.text, max_len) for p in thread.posts]
    rows = [i for i, s in enumerate(seqs) if s]
    out = np.zeros((len(seqs), params.proj.shape[1]))
    out[rows] = _forward(params, [seqs[i] for i in rows])
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
