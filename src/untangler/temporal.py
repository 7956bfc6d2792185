"""Self-exciting (Hawkes) temporal model over post timestamps.

The conversation rate is modeled with the exponential-kernel intensity

    lambda(t) = mu + sum_{t_j < t} alpha * exp(-beta * (t - t_j))

Every sum over this kernel is one O(n) scan of decayed running sums
(_scan): the excitation, its beta-slope for the exact gradient, and both
halves of the Laplace kernel that smooths the intensity.  Fitting is
projected gradient ascent on the log-likelihood; low local minima of the
smoothed intensity mark conversation schisms, yielding the ranges the
graph stage consumes.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

_POSITIVE_FLOOR = 1e-8


@dataclass
class HawkesModel:
    mu: float     # baseline rate, events/second
    alpha: float  # excitation jump, events/second
    beta: float   # decay rate, 1/second

    def validate(self) -> None:
        if not (np.isfinite(self.mu) and np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("Hawkes parameters must be finite")
        if self.mu < 0 or self.alpha < 0 or self.beta <= 0:
            raise ValueError("require mu >= 0, alpha >= 0, beta > 0")


@dataclass(frozen=True)
class Range:
    lo: int  # inclusive
    hi: int  # exclusive


class IntensityError(ValueError):
    """Hawkes parameters whose intensity leaves the float range."""


def _check_sorted(events: np.ndarray, horizon: Optional[float] = None) -> np.ndarray:
    events = np.asarray(events, dtype=np.float64)
    if events.ndim != 1:
        raise ValueError("events must be a 1-d array of times")
    if not np.isfinite(events).all():
        raise ValueError("events must be finite numbers")
    if events.size > 1 and np.any(np.diff(events) < 0):
        raise ValueError("events must be sorted ascending")
    if horizon is not None and events.size and (events[0] < 0 or events[-1] > horizon):
        raise ValueError("events must lie in [0, horizon]")
    return events


def _scan(gain: np.ndarray, drive: np.ndarray | float) -> np.ndarray:
    """y[0] = 0, y[i] = gain[i-1] * (y[i-1] + drive[i-1]) with drive an
    array or one number: every sum over the kernel, one Python-float step
    a point (a float overflow is inf, without a warning)."""
    steps = drive.tolist() if isinstance(drive, np.ndarray) else repeat(drive)
    y = 0.0
    return np.fromiter([0.0, *[y := g * (y + d) for g, d in zip(gain.tolist(), steps)]],
                       np.float64, gain.size + 1)


def _log_likelihood(gaps: np.ndarray, tail: np.ndarray, horizon: float, mu: float,
                    alpha: float, beta: float) -> tuple[float, Optional[tuple]]:
    """Log-likelihood on [0, horizon] of the events with these gaps
    (np.diff(events)) and tails (horizon - events), and the state that
    _gradient reads; (-inf, None) if any event intensity is non-positive
    or overflows.  Call under np.errstate(over="ignore", invalid="ignore"):
    a decay whose exponent overflows is 0."""
    decay = np.exp(-beta * gaps)
    s = _scan(decay, 1.0)[:tail.size]  # sum_{j<i} exp(-beta * (t_i - t_j))
    lam = mu + alpha * s
    if np.any(lam <= 0):
        return -np.inf, None
    spent = -np.expm1(-beta * tail).sum()  # sum of 1 - exp(-beta * tail), accurate for small beta
    value = float(np.log(lam).sum() - mu * horizon - alpha * (spent / beta))
    if value != value or value == np.inf:  # an intensity overflowed
        return -np.inf, None
    return value, (s, decay, lam, spent)


def _gradient(gaps: np.ndarray, tail: np.ndarray, horizon: float, alpha: float,
              beta: float, state: Optional[tuple]) -> np.ndarray:
    """Exact gradient in (mu, alpha, beta) from the state _log_likelihood
    returned at the same point; nan where it returned -inf."""
    if state is None:
        return np.full(3, np.nan)
    s, decay, lam, spent = state
    r = _scan(decay, gaps * (s[:-1] + 1.0))[:s.size]  # r[i] = -ds[i]/dbeta
    inv = 1.0 / lam
    return np.array([inv.sum() - horizon, (s * inv).sum() - spent / beta,
                     alpha * (spent / beta / beta - (r * inv).sum()
                              - (tail * np.exp(-beta * tail)).sum() / beta)])


def log_likelihood(model: HawkesModel, events: np.ndarray, horizon: float) -> float:
    """Exponential-kernel Hawkes log-likelihood on [0, horizon].

    Returns -inf if any event intensity is non-positive or overflows.
    """
    model.validate()
    events = _check_sorted(events, horizon)
    with np.errstate(over="ignore", invalid="ignore"):
        return _log_likelihood(np.diff(events), horizon - events, horizon,
                               model.mu, model.alpha, model.beta)[0]


def simulate(model: HawkesModel, horizon: float, rng: np.random.Generator,
             max_events: Optional[int] = None) -> np.ndarray:
    """Sample event times on [0, horizon] by Ogata thinning.

    max_events truncates the realization, which keeps supercritical
    parameter choices (alpha >= beta) usable for burst generation.
    """
    model.validate()
    times: list[float] = []
    t = 0.0
    excite = 0.0  # sum of alpha*exp(-beta*(t - t_i)) just after current t
    while True:
        lam_bar = model.mu + excite
        if lam_bar == np.inf:
            raise IntensityError("the intensity is not a finite number")
        if lam_bar <= 0:
            break
        w = rng.exponential(1.0 / lam_bar)
        t += w
        if t > horizon:
            break
        excite *= float(np.exp(-model.beta * w))  # a Python float: overflow is inf
        if rng.random() * lam_bar <= model.mu + excite:
            times.append(t)
            excite += model.alpha
            if max_events is not None and len(times) >= max_events:
                break
    return np.array(times)


def _gaps_and_tails(events: np.ndarray, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """The gaps and tails _log_likelihood reads, of at least 2 events."""
    events = _check_sorted(events, horizon)
    if events.size < 2:
        raise ValueError("need at least 2 events to fit")
    return np.diff(events), horizon - events


def _ascend(gaps: np.ndarray, tail: np.ndarray, horizon: float, init: HawkesModel,
            steps: int, step_size: float) -> tuple[HawkesModel, float]:
    """fit's ascent from init: the model it stops at and its log-likelihood."""
    init.validate()

    def project(p: np.ndarray) -> np.ndarray:
        p = np.maximum(p, _POSITIVE_FLOOR)
        if p[1] >= p[2]:
            p[1] = 0.999 * p[2]
        return p

    p = project(np.array([init.mu, init.alpha, init.beta]))
    with np.errstate(over="ignore", invalid="ignore"):  # see _log_likelihood
        cur, state = _log_likelihood(gaps, tail, horizon, *p)
        g = _gradient(gaps, tail, horizon, p[1], p[2], state)
        delta = step_size
        for _ in range(steps):
            top = float(np.abs(g).max())
            if not np.isfinite(top) or top == 0.0:
                break
            direction = g / top  # scaled first, so the norm cannot overflow
            direction /= np.linalg.norm(direction)
            delta = min(delta * 2.0, step_size * 8)
            while delta > 1e-12:
                cand = project(p + delta * direction)
                val, state = _log_likelihood(gaps, tail, horizon, *cand)
                if val > cur:
                    p, cur = cand, val
                    g = _gradient(gaps, tail, horizon, p[1], p[2], state)
                    break
                delta *= 0.5
            else:  # no step length improved
                break
    return HawkesModel(*p.tolist()), cur


def fit(events: np.ndarray, horizon: float, init: HawkesModel,
        steps: int = 400, step_size: float = 0.1) -> HawkesModel:
    """Projected gradient ascent on the log-likelihood (exact gradient).

    Parameters are clamped at 1e-8 and projected to alpha < beta
    (stationarity).  Backtracking on the step length guarantees the
    returned likelihood is never below the initial one; each candidate
    costs one likelihood value, and the gradient is taken only at the
    start and at each accepted step.  Deterministic.
    """
    return _ascend(*_gaps_and_tails(events, horizon), horizon, init, steps, step_size)[0]


_FIT_SCALES = (0.01, 0.1, 1.0, 10.0)


class TimescaleError(ValueError):
    """The events' median gap gives no finite decay rate to fit from."""


def fit_multistart(events: np.ndarray, horizon: float, steps: int = 200,
                   step_size: float = 0.1) -> HawkesModel:
    """Fit from several decay timescales and keep the best likelihood.

    The log-likelihood surface has separate basins for fast decay (within
    bursts) and slow decay (across bursts); a single start from the
    median-gap timescale routinely misses the better one.  Each start
    uses beta0 = scale / median_gap with alpha0 = beta0 / 2 and a
    baseline at half the empirical rate.  Starts whose beta0 overflows
    are skipped; TimescaleError when none is finite.  Of equal
    likelihoods the earliest start wins.

    The starts run at once, dealt round-robin over w workers, one per
    CPU this process may use, up to the number of starts: this process
    runs starts 0, w, 2w, ... and each of w - 1 children made with
    os.fork runs its share.  The fork is safe: the child runs only
    _ascend on the arrays it inherited and leaves through os._exit, so
    no exception or buffered output escapes it; OpenBLAS stops its
    thread pool before a fork (a pthread_atfork handler), so no worker
    thread holds a lock the child could wait on; and each result comes
    back as four float64 (mu, alpha, beta, log-likelihood) in their
    bytes, the bits of running the starts in turn.  A start whose bytes
    do not arrive (a fork that failed, a child that died) runs in this
    process; without os.sched_getaffinity (off Linux) all run here.
    """
    events = _check_sorted(events)
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    rate = events.size / horizon
    gap = median_gap(events)
    starts = [scale / gap for scale in _FIT_SCALES if np.isfinite(scale / gap)]
    if not starts:
        raise TimescaleError(f"median gap between events {gap:g} is too small "
                         "for a finite decay rate to start the fit from")
    gaps, tail = _gaps_and_tails(events, horizon)

    def run(i: int) -> tuple[HawkesModel, float]:
        beta0 = starts[i]
        return _ascend(gaps, tail, horizon, HawkesModel(0.5 * rate, 0.5 * beta0, beta0),
                       steps, step_size)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(starts), cpus)
    fits: list = [None] * len(starts)
    children = []  # (pid, read end of its pipe, the starts it runs)
    try:
        for k in range(1, workers):
            share = range(k, len(starts), workers)
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                try:
                    for i in share:
                        model, value = run(i)
                        os.write(write_fd, np.array([model.mu, model.alpha, model.beta,
                                                     value]).tobytes())
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, read_fd, share))
        for i in range(0, len(starts), workers):
            fits[i] = run(i)
        for _, read_fd, share in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                rows = np.frombuffer(pipe.read(), np.float64).reshape(-1, 4).tolist()
            for i, (mu, alpha, beta, value) in zip(share, rows):
                fits[i] = HawkesModel(mu, alpha, beta), value
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_fd, _ in children:
            os.close(read_fd)
            os.waitpid(pid, 0)
    fits = [f or run(i) for i, f in enumerate(fits)]  # a start no child sent runs here
    return max(fits, key=lambda f: f[1])[0]


def sample_intensity(model: HawkesModel, events: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Raw intensity lambda(t) at each grid time t, only events strictly
    before t exciting: mu + alpha * exp(-beta * (t - t_k)) * (s_k + 1)
    with t_k the latest event before t (mu when there is none).  A decay
    whose exponent overflows is 0; IntensityError if an intensity is not
    finite."""
    model.validate()
    events = _check_sorted(events)
    grid = np.asarray(grid, dtype=np.float64)
    k = np.searchsorted(events, grid, side="left") - 1
    seen = k >= 0
    k = k[seen]
    raw = np.full(grid.shape, float(model.mu))
    with np.errstate(over="ignore"):
        s = _scan(np.exp(-model.beta * np.diff(events)), 1.0)
        raw[seen] += model.alpha * np.exp(-model.beta * (grid[seen] - events[k])) * (s[k] + 1.0)
    if not np.isfinite(raw).all():
        raise IntensityError("the intensity is not a finite number")
    return raw


def intensity(model: HawkesModel, events: np.ndarray, t: float) -> float:
    """lambda(t): sample_intensity at the one time t."""
    return float(sample_intensity(model, events, [t])[0])


def _laplace_sums(values: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """out[i] = sum_j values[j] * exp(-|t_i - t_j| / tau) on a sorted grid,
    given decay[k] = exp(-(t[k+1] - t[k]) / tau): the kernel factorises
    over the gaps between neighbours, so the earlier and the later points'
    shares are one scan each, forward and over the reversed grid."""
    return (values + _scan(decay, values)) + _scan(decay[::-1], values[::-1])[::-1]


def smooth(grid: np.ndarray, raw: np.ndarray, tau: float) -> np.ndarray:
    """Normalized two-sided Laplace-kernel smoothing of raw over the grid.

    Per-point kernel weights exp(-|dt|/tau) are renormalized to sum to
    one, so a constant series is preserved exactly and smoothed values
    stay inside [min(raw), max(raw)].  The grid must be sorted; posts at
    equal times are pooled first, so they get equal smoothed values.  A
    kernel weight whose exponent overflows is 0; IntensityError if a
    weighted sum overflows.  O(n) time and memory.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if grid.size == 0:
        return raw.copy()
    gaps = np.diff(grid)
    if np.any(gaps < 0):
        raise ValueError("grid must be sorted ascending")
    starts = np.flatnonzero(np.r_[True, gaps > 0])
    with np.errstate(over="ignore", invalid="ignore"):  # the sums are checked below
        decay = np.exp(-np.diff(grid[starts]) / tau)
        weighted = _laplace_sums(np.add.reduceat(raw, starts), decay)
    if not np.isfinite(weighted).all():
        raise IntensityError("the smoothed intensity is not a finite number")
    mass = _laplace_sums(np.diff(np.r_[starts, grid.size]).astype(np.float64), decay)
    pooled = np.cumsum(np.r_[False, gaps > 0])  # grid index -> distinct time index
    return (weighted / mass)[pooled]


def post_intensity(model: HawkesModel, times: np.ndarray,
                   tau: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """Raw and smoothed intensity at the sorted post times, smoothed over
    tau seconds (the median gap between posts by default)."""
    if tau is None:
        tau = median_gap(times)
    raw = sample_intensity(model, times, times)
    return raw, smooth(times, raw, tau)


def median_gap(times: np.ndarray) -> float:
    """Median positive inter-post gap; 1.0 when no positive gap exists.
    Equal to np.median, which imports numpy.ma on its first call."""
    gaps = np.diff(np.asarray(times, dtype=np.float64))
    gaps = np.sort(gaps[gaps > 0])
    if not gaps.size:
        return 1.0
    mid = gaps.size // 2
    return float(gaps[mid] if gaps.size % 2 else (gaps[mid - 1] + gaps[mid]) / 2)


def _quantile(values: np.ndarray, q: float) -> float:
    """np.quantile(values, q) with its default linear method, bit for bit,
    without the numpy.ma import that np.quantile makes on its first call."""
    v = np.sort(values)
    pos = (v.size - 1) * q
    lo = int(pos)
    if lo >= v.size - 1:
        return float(v[-1])
    a, b, t = v[lo], v[lo + 1], pos - lo
    d = b - a
    return float(b - d * (1 - t) if t >= 0.5 else a + d * t)


def detect_ranges(thread, model: HawkesModel, tau: Optional[float] = None,
                  quantile: float = 0.25) -> list[Range]:
    """Partition post indices [0, n) at conversation schisms.

    A boundary is placed before post i when the smoothed intensity at
    t_i drops below the given quantile of all smoothed values and is a
    local minimum among posts (strict drop from the left).
    """
    if not 0 < quantile < 1:
        raise ValueError("quantile must be in (0, 1)")
    times = np.asarray(thread.timestamps, dtype=np.float64)
    n = times.size
    if n == 0:
        return []
    if n == 1:
        return [Range(0, 1)]
    v = post_intensity(model, times, tau)[1]
    threshold = _quantile(v, quantile)
    cut = (v[1:] < threshold) & (v[1:] < v[:-1]) & np.r_[v[1:-1] <= v[2:], True]
    cuts = [0, *(np.flatnonzero(cut) + 1).tolist(), n]
    return [Range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
