"""Recurrent post encoder trained with a skipgram-style objective.

A post is encoded by running a single-layer LSTM over its token
embeddings and projecting the final hidden state to the embedding width.
A context embedding is the arithmetic mean of its member posts'
encodings.  Training pushes a post's encoding toward its own context and
away from sampled negative contexts (random posts outside the window),
using a logistic loss over cosine similarities:

    loss = -log sigmoid(cos(l, w_pos)) - sum_j log sigmoid(-cos(l, w_neg_j))

Any set of posts is encoded as one packed batch: the input-to-gate
products come from one table over the batch's distinct tokens, and the
recurrent products at each timestep cover only the rows still running.
A training minibatch encodes each post it touches once and keeps every
step's gates on a tape for its backward pass.  All numerics are plain
numpy with hand-written backpropagation so the whole loss is
finite-difference checkable.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import corpus
from .corpus import ContextWindow, Vocab, encode_text
from .ingest import Thread

CHECKPOINT_MAGIC = b"UNTG"
CHECKPOINT_VERSION = 3

# posts per packed batch of embed_thread: its gate buffer, states and
# token arrays are sized by this, not by the thread
_EMBED_ROWS = 1024


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
        """Also rejects a field that the checkpoint header cannot hold, and
        a negative seed, which train cannot use."""
        for name in ("vocab_size", "embed_dim", "hidden_dim", "max_len", "epochs",
                     "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.negatives_per_sample < 0:
            raise ValueError("negatives_per_sample must be >= 0")
        for name in ("vocab_size", "embed_dim", "hidden_dim", "max_len", "epochs",
                     "negatives_per_sample", "batch_size", "seed"):
            bits = 63 if name == "seed" else 31
            if not -2**bits <= getattr(self, name) < 2**bits:
                raise ValueError(f"{name} does not fit the checkpoint header's int{bits + 1}")
        if self.seed < 0:  # np.random.default_rng takes none
            raise ValueError("seed must be >= 0")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and >= 0")


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(z / 2)), stable for every z."""
    out = z * 0.5
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _pack(seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, ...]:
    """The packed layout of non-empty token sequences: the row order
    (longest first, so the rows still running at step t are a prefix
    [:k_t]), the distinct tokens uniq, every token as an index into uniq,
    step after step, and each step's k_t."""
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    if lengths.size and lengths.min() == 0:
        raise ValueError("cannot encode an empty token sequence")
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    uniq, inv = np.unique(np.array([w for i in order for w in seqs[i]], dtype=np.intp),
                          return_inverse=True)
    step, row = np.nonzero(np.arange(lengths.max(initial=0))[:, None] < lengths)
    return order, uniq, inv[(np.cumsum(lengths) - lengths)[row] + step], np.bincount(step)


def _forward(params: EncoderParams, seqs: Sequence[Sequence[int]],
             tape: Optional[list] = None) -> np.ndarray:
    """Encodings (len(seqs) x embed_dim) of non-empty token sequences as
    one packed batch (`_pack`).  The input side of the gates does not
    depend on the recurrence, so it is one table x = emb[uniq] @ w_x + b
    over the batch's distinct tokens.  A ``tape`` list receives every
    step's gate activations and cell states plus the packing, for
    `_backward`.
    """
    order, uniq, ids, ks = _pack(seqs)
    x = params.emb[uniq] @ params.w_x
    x += params.b
    h, gates, cells = _steps(params, x, ids, ks, len(seqs), keep=tape is not None)
    if tape is not None:
        tape.append((order, uniq, ids, ks, gates, cells, h))
    out = np.empty((len(seqs), params.proj.shape[1]))
    out[order] = h @ params.proj
    return out


def _steps(params: EncoderParams, x: np.ndarray, ids: np.ndarray, ks: np.ndarray,
           n: int, keep: bool) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Final hidden states (n x hidden_dim) of the packed rows, step t
    gathering its inputs from rows ids of the table x and taking one
    k x 4h recurrent product over the k rows still running only.  Step 0
    starts from h = c = 0, so it has no recurrent product and its cell
    state is i * g.  The three sigmoid gates share the candidate's tanh pass
    (`_sigmoid`'s steps around one np.tanh over the k x 4h block).  With
    ``keep``, also every step's gate activations and cell states, packed
    step after step; else one step's gate buffer is reused, and freed on
    return, before the caller's projection allocates its n x embed_dim
    arrays."""
    hd = params.hidden_dim
    h, c = np.zeros((2, n, hd))  # hidden and cell states
    gates = np.empty((ids.size if keep else n, 4 * hd))
    cells = np.empty((ids.size, hd)) if keep else None
    o = 0
    for t, k in enumerate(ks):
        a = gates[o:o + k] if keep else gates[:k]
        np.take(x, ids[o:o + k], axis=0, out=a, mode="clip")  # in range: no checked copy
        if t:
            a += h[:k] @ params.w_h
        s = a[:, :3 * hd]
        s *= 0.5
        np.tanh(a, out=a)
        s += 1.0
        s *= 0.5
        gi, gf, go, gg = (a[:, g:g + hd] for g in range(0, 4 * hd, hd))
        if t:
            c[:k] *= gf
            c[:k] += gi * gg
        else:
            np.multiply(gi, gg, out=c[:k])
        np.tanh(c[:k], out=h[:k])
        h[:k] *= go
        if keep:
            cells[o:o + k] = c[:k]
        o += k
    return h, (gates if keep else None), cells


def _backward(params: EncoderParams, tape: list, d_out: np.ndarray,
              grads: EncoderParams) -> np.ndarray:
    """Accumulate d(loss)/d(params) into grads, given d(loss)/d(encodings)
    for the rows of the `_forward` call that filled ``tape``.  Steps run
    backwards through the LSTM gradient equations, one per gate, each
    d(loss)/d(pre-activation) written over its gate's slot on the tape.
    Only dh and dc carry between steps; tanh(c) and the previous hidden
    state o * tanh(c) are recomputed from the tape.  Step 0's previous
    states are zero, so its forget slot is zero, it adds nothing to w_h
    and passes no dh or dc back.  Each step adds its slots, in row order,
    into the per-token table d_x with one scatter-add (`_scatter_rows`),
    which gives w_x, emb and b one product each after the loop.  Consumes the
    tape; returns the distinct tokens, the rows of grads.emb touched."""
    order, uniq, ids, ks, gates, cells, h = tape.pop()
    hd = params.hidden_dim
    d_out = d_out[order]
    grads.proj += h.T @ d_out
    dh = d_out @ params.proj.T
    dc, d_x = np.zeros_like(dh), np.zeros((uniq.size, 4 * hd))
    starts = np.cumsum(ks) - ks
    for t in range(ks.size - 1, -1, -1):
        k, o = ks[t], starts[t]
        d_a = gates[o:o + k]
        gi, gf, go, gg = (d_a[:, g:g + hd] for g in range(0, 4 * hd, hd))
        tc, dh_k, dc_k = np.tanh(cells[o:o + k]), dh[:k], dc[:k]
        dc_k += (1 - tc * tc) * go * dh_k  # through h = o * tanh(c)
        np.multiply(go * (1 - go) * tc, dh_k, out=go)
        gi[...], gg[...] = (1 - gi) * gi * gg * dc_k, (1 - gg * gg) * gi * dc_k
        if t:
            p = starts[t - 1]
            c_prev = cells[p:p + k]
            h_prev = gates[p:p + k, 2 * hd:3 * hd] * np.tanh(c_prev)
            dc_k *= gf  # dc of the step before
            np.multiply((1 - gf) * dc_k, c_prev, out=gf)
            grads.w_h += h_prev.T @ d_a
            np.matmul(d_a, params.w_h.T, out=dh_k)
        else:
            gf.fill(0.0)
        _scatter_rows(d_x, ids[o:o + k], d_a)
    grads.w_x += params.emb[uniq].T @ d_x
    grads.b += d_x.sum(axis=0)
    grads.emb[uniq] += d_x @ params.w_x.T
    return uniq


def _scatter_rows(out: np.ndarray, index: Sequence[int], rows: np.ndarray) -> np.ndarray:
    """Add row i of ``rows`` into row index[i] of the C-contiguous ``out``,
    in row order, with one np.add.at over flat row * d + column indices
    (numpy's fast 1-D path); returns out."""
    d = out.shape[1]
    flat = (np.asarray(index, dtype=np.intp)[:, None] * d + np.arange(d)).ravel()
    np.add.at(out.reshape(-1), flat, rows.ravel())
    return out


def _minibatch_loss(params: EncoderParams, seqs: Sequence[Sequence[int]],
                    batch: Sequence[tuple[int, Sequence[Sequence[int]]]],
                    grads: EncoderParams) -> tuple[float, np.ndarray]:
    """Summed loss of a minibatch, with its gradient accumulated into
    grads, and the distinct tokens of ``seqs``: the only rows of
    grads.emb it changes.

    ``batch`` holds (centre, contexts) samples as indices into ``seqs``, the
    minibatch's distinct posts, so each post is encoded once.  A centre is
    paired with the mean of each context: its window's members first
    (label y = +1), then one-post negatives (y = -1).  A pair with cosine
    z costs softplus(-y z).  The context sums and the encodings' gradient
    rows are each one scatter-add in row order, `_scatter_rows`, as in
    `_backward`."""
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
    right = _scatter_rows(np.zeros((len(y), enc.shape[1])), ctx, enc[rows])
    right /= size
    nl = np.linalg.norm(left, axis=1)
    nr = np.linalg.norm(right, axis=1)
    z = np.einsum("ij,ij->i", left, right) / (nl * nr)
    coef = -y * _sigmoid(-y * z)  # d loss / d z
    d_left = (coef / (nl * nr))[:, None] * right - (coef * z / (nl * nl))[:, None] * left
    d_right = (coef / (nl * nr))[:, None] * left - (coef * z / (nr * nr))[:, None] * right
    d_enc = _scatter_rows(np.zeros_like(enc), centre + rows,
                          np.concatenate((d_left, (d_right / size)[ctx])))
    tokens = _backward(params, tape, d_enc, grads)
    return float(np.logaddexp(0.0, -y * z).sum()), tokens


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
    return _minibatch_loss(params, seqs, [(0, contexts)], grads)[0], grads


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
    # a sample's pool is nonempty[t] without its centre and members, in
    # post order.  With e_0 < e_1 < ... their positions in nonempty[t],
    # the offsets e_i - i ascend, and pool index j is position j + (the
    # number of offsets <= j).  All samples' offsets, one after another:
    excluded = [np.searchsorted(nonempty[t], sorted({center, *members}))
                for t, center, members in samples]
    bounds = np.cumsum([0] + [e.size for e in excluded])
    offsets = np.concatenate([e - np.arange(e.size) for e in excluded])
    rng = np.random.default_rng(config.seed)
    params = init_params(config)
    grads = params.zeros_like()
    dense = [(params.groups()[name], g) for name, g in grads.groups().items() if name != "emb"]
    curve: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(samples))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            rows: dict[tuple[int, int], int] = {}  # (thread, post) -> row
            batch = []
            for si in order[start:start + config.batch_size]:
                t, center, members = samples[si]
                off = offsets[bounds[si]:bounds[si + 1]]
                pool = nonempty[t].size - off.size
                # size 0 draws nothing from rng
                j = rng.choice(pool, size=min(config.negatives_per_sample, pool), replace=False)
                negs = nonempty[t][j + np.searchsorted(off, j, side="right")].tolist()
                contexts = [members] + [[i] for i in negs]
                batch.append((rows.setdefault((t, center), len(rows)),
                              [[rows.setdefault((t, i), len(rows)) for i in c] for c in contexts]))
            posts = [seqs[t][i] for t, i in rows]
            for _, g in dense:
                g.fill(0.0)
            loss, tokens = _minibatch_loss(params, posts, batch, grads)
            total += loss
            scale = config.learning_rate / len(batch)
            for p, g in dense:
                g *= scale
                p -= g
            # only the rows of the minibatch's tokens are nonzero in
            # grads.emb; zero them again for the next minibatch
            params.emb[tokens] -= scale * grads.emb[tokens]
            grads.emb[tokens] = 0.0
        curve.append(total / len(samples))
        if not np.isfinite(curve[-1]):
            raise ValueError(f"epoch {len(curve) - 1} mean loss is {curve[-1]}; "
                             "lower the learning rate")
    return params, curve


class UnreadablePostsWarning(UserWarning):
    """Some posts with tokens have none in the vocabulary: each encodes as
    a run of UNK, so its embedding depends only on its length."""


def embed_thread(params: EncoderParams, thread: Thread, vocab: Vocab,
                 max_len: int = 64) -> np.ndarray:
    """n x d matrix of post encodings; empty posts get all-zero rows and
    are excluded from graph edges downstream.  Posts are tokenized and
    encoded in packed batches of _EMBED_ROWS consecutive posts, so only
    the output grows with the thread.  Warns with UnreadablePostsWarning,
    giving both counts, when some non-empty posts are all UNK."""
    posts = thread.posts
    out = np.zeros((len(posts), params.proj.shape[1]))
    nonempty = unreadable = 0
    for lo in range(0, len(posts), _EMBED_ROWS):
        seqs = [encode_text(vocab, p.text, max_len) for p in posts[lo:lo + _EMBED_ROWS]]
        rows = [i for i, s in enumerate(seqs) if s]
        nonempty += len(rows)
        unreadable += [max(seqs[i]) for i in rows].count(corpus.UNK)  # UNK: the lowest index
        out[lo:lo + len(seqs)][rows] = _forward(params, [seqs[i] for i in rows])
    if unreadable:
        warnings.warn(f"{unreadable} of {nonempty} non-empty posts have no token in the "
                      "vocabulary", UnreadablePostsWarning, stacklevel=2)
    return out


# ---------------------------------------------------------------------------
# Checkpoint format: magic "UNTG", u32 version, config block
# (<7i q d> = vocab_size, embed_dim, hidden_dim, max_len, epochs,
# negatives_per_sample, batch_size, seed, learning_rate), then
# row-major little-endian float32 blocks: emb, w_x, w_h, b, proj, then
# to the end of the file the vocabulary, without which the rows of emb
# mean nothing: the UTF-8 text of corpus.save_vocab, the tokens of
# indices 2 .. vocab_size - 1 (0 and 1 are PAD and UNK), each followed
# by a newline, which no token holds: corpus.tokenize splits on whitespace.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sI7iqd")


def save_checkpoint(path: str, config: EncoderConfig, params: EncoderParams,
                    vocab: Vocab) -> None:
    """Builds every block before the file opens, so an existing file is kept
    when one fails.  Raises ValueError for a config that validate rejects
    or a parameter not finite as float32."""
    config.validate()
    blocks = [_HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
        config.vocab_size, config.embed_dim, config.hidden_dim,
        config.max_len, config.epochs, config.negatives_per_sample,
        config.batch_size, config.seed, config.learning_rate)]
    for name, arr in params.groups().items():
        with np.errstate(over="ignore"):  # an overflow to inf is reported below
            block = np.ascontiguousarray(arr, dtype="<f4")
        if not np.isfinite(block).all():
            raise ValueError(f"parameter {name} is not finite as float32")
        blocks.append(block.tobytes())
    blocks.append(corpus.save_vocab(vocab).encode("utf-8"))
    with open(path, "wb") as fp:
        fp.writelines(blocks)


def load_checkpoint(path: str) -> tuple[EncoderConfig, EncoderParams, Vocab]:
    """Inverse of save_checkpoint.  Raises ValueError on a malformed file;
    the header dims are checked against the file size before any read."""
    with open(path, "rb") as fp:
        header = fp.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError("truncated checkpoint header")
        magic, version, v, d, h, max_len, epochs, negs, batch, seed, lr = _HEADER.unpack(header)
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
        if os.fstat(fp.fileno()).st_size - _HEADER.size < payload:
            raise ValueError("truncated checkpoint parameter block")
        arrays = []
        for shape in shapes:  # checked before the cast, which warns on a signalling NaN
            block = np.frombuffer(fp.read(4 * int(np.prod(shape))), dtype="<f4")
            if not np.isfinite(block).all():
                raise ValueError("non-finite value in checkpoint parameter block")
            arrays.append(block.astype(np.float64).reshape(shape))
        offset = fp.tell()
        try:
            text = fp.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"vocabulary block is not UTF-8 ({exc.reason} "
                             f"at byte {offset + exc.start})") from exc
        vocab = corpus.load_vocab(text)
    if len(vocab) != v:
        raise ValueError(f"vocabulary block has {len(vocab)} tokens with PAD and UNK, "
                         f"but the header says vocab_size={v}")
    return config, EncoderParams(*arrays), vocab
