"""Self-exciting (Hawkes) temporal model over post timestamps.

The conversation rate is modeled with the exponential-kernel intensity

    lambda(t) = mu + sum_{t_j < t} alpha * exp(-beta * (t - t_j))

Fitting is projected gradient ascent on the log-likelihood, whose exact
gradient and the sampled intensity come from one O(n) recursion.  The
intensity is smoothed with a two-sided Laplace kernel and low local minima
mark conversation schisms, yielding the ranges the graph stage consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class IntensitySeries:
    grid: np.ndarray      # sample times, strictly increasing
    raw: np.ndarray       # lambda at grid points
    smoothed: np.ndarray  # Laplace-smoothed lambda


@dataclass(frozen=True)
class Range:
    lo: int  # inclusive
    hi: int  # exclusive


def _check_sorted(events: np.ndarray, horizon: Optional[float] = None) -> np.ndarray:
    events = np.asarray(events, dtype=np.float64)
    if events.ndim != 1:
        raise ValueError("events must be a 1-d array of times")
    if events.size > 1 and np.any(np.diff(events) < 0):
        raise ValueError("events must be sorted ascending")
    if horizon is not None and events.size and (events[0] < 0 or events[-1] > horizon):
        raise ValueError("events must lie in [0, horizon]")
    return events


def intensity(model: HawkesModel, events: np.ndarray, t: float) -> float:
    """lambda(t); only events strictly before t excite."""
    model.validate()
    events = _check_sorted(events)
    past = events[events < t]
    return float(model.mu + model.alpha * np.exp(-model.beta * (t - past)).sum())


def _excitation(events: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """s[i] = sum_{j<i} exp(-beta * (t_i - t_j)) and r[i] = -ds[i]/dbeta in
    one pass over the gaps g, with e = exp(-beta * g): s[i] = e * (s[i-1] + 1)
    and r[i] = e * (r[i-1] + g * (s[i-1] + 1)).  Equal times count (g = 0)."""
    gaps = np.diff(events)
    s = [0.0] * events.size
    r = [0.0] * events.size
    for i, (g, e) in enumerate(zip(gaps.tolist(), np.exp(-beta * gaps).tolist()), start=1):
        s[i] = e * (s[i - 1] + 1.0)
        r[i] = e * (r[i - 1] + g * (s[i - 1] + 1.0))
    return np.array(s), np.array(r)


def _log_likelihood_and_gradient(events: np.ndarray, horizon: float, mu: float,
                                 alpha: float, beta: float) -> tuple[float, np.ndarray]:
    """Log-likelihood on [0, horizon] and its exact gradient in (mu, alpha,
    beta); (-inf, nan) if any event intensity is non-positive."""
    s, r = _excitation(events, beta)
    lam = mu + alpha * s
    if np.any(lam <= 0):
        return -np.inf, np.full(3, np.nan)
    tail = horizon - events
    spent = -np.expm1(-beta * tail).sum()  # sum of 1 - exp(-beta * tail), accurate for small beta
    inv = 1.0 / lam
    grad = np.array([inv.sum() - horizon, (s * inv).sum() - spent / beta,
                     alpha * (spent / beta ** 2 - (r * inv).sum()
                              - (tail * np.exp(-beta * tail)).sum() / beta)])
    return float(np.log(lam).sum() - mu * horizon - (alpha / beta) * spent), grad


def log_likelihood(model: HawkesModel, events: np.ndarray, horizon: float) -> float:
    """Exponential-kernel Hawkes log-likelihood on [0, horizon].

    Returns -inf if any event intensity is non-positive.
    """
    model.validate()
    events = _check_sorted(events, horizon)
    return _log_likelihood_and_gradient(events, horizon, model.mu, model.alpha, model.beta)[0]


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
        if lam_bar <= 0:
            break
        w = rng.exponential(1.0 / lam_bar)
        t += w
        if t > horizon:
            break
        excite *= np.exp(-model.beta * w)
        if rng.random() * lam_bar <= model.mu + excite:
            times.append(t)
            excite += model.alpha
            if max_events is not None and len(times) >= max_events:
                break
    return np.array(times)


def fit(events: np.ndarray, horizon: float, init: HawkesModel,
        steps: int = 400, step_size: float = 0.1) -> HawkesModel:
    """Projected gradient ascent on the log-likelihood (exact gradient).

    Parameters are clamped at 1e-8 and projected to alpha < beta
    (stationarity).  Backtracking on the step length guarantees the
    returned likelihood is never below the initial one.  Deterministic.
    """
    events = _check_sorted(events, horizon)
    if events.size < 2:
        raise ValueError("need at least 2 events to fit")
    init.validate()

    def project(p: np.ndarray) -> np.ndarray:
        p = np.maximum(p, _POSITIVE_FLOOR)
        if p[1] >= p[2]:
            p[1] = 0.999 * p[2]
        return p

    p = project(np.array([init.mu, init.alpha, init.beta]))
    cur, g = _log_likelihood_and_gradient(events, horizon, *p)
    delta = step_size
    for _ in range(steps):
        if delta <= 0:
            break
        top = float(np.abs(g).max())
        if not np.isfinite(top) or top == 0.0:
            break
        direction = g / top  # scaled first, so the norm cannot overflow
        direction /= np.linalg.norm(direction)
        delta = min(delta * 2.0, step_size * 8)
        improved = False
        while delta > 1e-12:
            cand = project(p + delta * direction)
            val, cand_g = _log_likelihood_and_gradient(events, horizon, *cand)
            if val > cur:
                p, cur, g = cand, val, cand_g
                improved = True
                break
            delta *= 0.5
        if not improved:
            break
    return HawkesModel(float(p[0]), float(p[1]), float(p[2]))


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
    are skipped; TimescaleError when none is finite.
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
    best: Optional[tuple[float, HawkesModel]] = None
    for beta0 in starts:
        init = HawkesModel(mu=0.5 * rate, alpha=0.5 * beta0, beta=beta0)
        model = fit(events, horizon, init, steps=steps, step_size=step_size)
        score = log_likelihood(model, events, horizon)
        if best is None or score > best[0]:
            best = (score, model)
    return best[1]


def sample_intensity(model: HawkesModel, events: np.ndarray,
                     grid: np.ndarray) -> IntensitySeries:
    """Raw intensity at the given grid times (smoothed starts as a copy):
    intensity() at each t, as mu + alpha * exp(-beta * (t - t_k)) * (s_k + 1)
    with t_k the latest event before t (mu when there is none)."""
    model.validate()
    events = _check_sorted(events)
    grid = np.asarray(grid, dtype=np.float64)
    k = np.searchsorted(events, grid, side="left") - 1
    seen = k >= 0
    k = k[seen]
    raw = np.full(grid.shape, float(model.mu))
    raw[seen] += model.alpha * np.exp(-model.beta * (grid[seen] - events[k])) * (
        _excitation(events, model.beta)[0][k] + 1.0)
    return IntensitySeries(grid=grid, raw=raw, smoothed=raw.copy())


def _laplace_sums(values: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """out[i] = sum_j values[j] * exp(-|t_i - t_j| / tau) on a sorted grid,
    given decay[k] = exp(-(t[k+1] - t[k]) / tau).

    A forward and a backward first-order recursive filter, each exact
    because the kernel factorises over the gaps between neighbours.
    """
    fwd = values.tolist()
    bwd = values.tolist()
    gain = decay.tolist()
    for k in range(1, len(fwd)):
        fwd[k] += gain[k - 1] * fwd[k - 1]
    for k in range(len(bwd) - 2, -1, -1):
        bwd[k] += gain[k] * bwd[k + 1]
    out = np.array(fwd)
    out[:-1] += decay * np.array(bwd[1:])
    return out


def smooth(series: IntensitySeries, tau: float) -> IntensitySeries:
    """Normalized two-sided Laplace-kernel smoothing over the grid.

    Per-point kernel weights exp(-|dt|/tau) are renormalized to sum to
    one, so a constant series is preserved exactly and smoothed values
    stay inside [min(raw), max(raw)].  The grid must be sorted; posts at
    equal times are pooled first, so they get equal smoothed values.
    O(n) time and memory.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    grid = series.grid
    raw = series.raw
    if grid.size == 0:
        return IntensitySeries(grid=grid.copy(), raw=raw.copy(), smoothed=raw.copy())
    gaps = np.diff(grid)
    if np.any(gaps < 0):
        raise ValueError("grid must be sorted ascending")
    starts = np.flatnonzero(np.r_[True, gaps > 0])
    decay = np.exp(-np.diff(grid[starts]) / tau)
    weighted = _laplace_sums(np.add.reduceat(raw, starts), decay)
    mass = _laplace_sums(np.diff(np.r_[starts, grid.size]).astype(np.float64), decay)
    pooled = np.cumsum(np.r_[False, gaps > 0])  # grid index -> distinct time index
    smoothed = (weighted / mass)[pooled]
    return IntensitySeries(grid=grid.copy(), raw=raw.copy(), smoothed=smoothed)


def median_gap(times: np.ndarray) -> float:
    """Median positive inter-post gap; 1.0 when no positive gap exists."""
    gaps = np.diff(np.asarray(times, dtype=np.float64))
    gaps = gaps[gaps > 0]
    return float(np.median(gaps)) if gaps.size else 1.0


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
    if tau is None:
        tau = median_gap(times)
    series = smooth(sample_intensity(model, times, times), tau)
    vals = series.smoothed
    threshold = float(np.quantile(vals, quantile))
    cuts = [0]
    for i in range(1, n):
        if vals[i] >= threshold:
            continue
        if vals[i] < vals[i - 1] and (i == n - 1 or vals[i] <= vals[i + 1]):
            cuts.append(i)
    cuts.append(n)
    return [Range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
