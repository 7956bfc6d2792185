"""Self-exciting (Hawkes) temporal model over post timestamps.

The conversation rate is modeled with the exponential-kernel intensity

    lambda(t) = mu + sum_{t_j < t} alpha * exp(-beta * (t - t_j))

Every sum over this kernel is one O(n) scan of decayed running sums
(_scan): the excitation and both halves of the Laplace kernel that
smooths the intensity.  Fitting maximises the log-likelihood's profile
over beta, with an exact concave solve for (mu, alpha) at each beta in
the stationary box alpha <= 0.999 beta; low local minima of the smoothed
intensity mark conversation schisms, yielding the ranges the graph stage
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# points that _scan turns into Python floats at a time
_SCAN_STEPS = 4096


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
    if np.any(np.diff(events) < 0):
        raise ValueError("events must be sorted ascending")
    if horizon is not None and events.size and (events[0] < 0 or events[-1] > horizon):
        raise ValueError("events must lie in [0, horizon]")
    return events


def _scan(gain: np.ndarray, drive: np.ndarray | float) -> np.ndarray:
    """y[0] = 0, y[i] = gain[i-1] * (y[i-1] + drive[i-1]) with drive an
    array or one number: every sum over the kernel, one Python-float step
    a point (a float overflow is inf, without a warning), _SCAN_STEPS
    points at a time, since a list of Python floats takes 4x the array."""
    out = np.empty(gain.size + 1)
    out[0] = y = 0.0
    for at in range(0, gain.size, _SCAN_STEPS):
        part = slice(at, at + _SCAN_STEPS)
        if isinstance(drive, np.ndarray):
            steps = [y := g * (y + d) for g, d in zip(gain[part].tolist(), drive[part].tolist())]
        else:
            steps = [y := g * (y + drive) for g in gain[part].tolist()]
        out[1:][part] = steps
    return out


def _value(s: np.ndarray, horizon: float, spent: float, mu: float, alpha: float) -> float:
    """L = sum(log(mu + alpha * s)) - mu * horizon - alpha * spent, the
    log-likelihood given the excitation s and the compensator's
    spent = sum(1 - exp(-beta * tail)) / beta; -inf if any event intensity
    is non-positive or overflows."""
    lam = mu + alpha * s
    if (lam <= 0).any():  # checked before the log, which warns at 0
        return -np.inf
    value = float(np.log(lam).sum() - mu * horizon - alpha * spent)
    return value if -np.inf < value < np.inf else -np.inf  # an intensity overflowed


def log_likelihood(model: HawkesModel, events: np.ndarray, horizon: float) -> float:
    """Exponential-kernel Hawkes log-likelihood on [0, horizon], as _value:
    -inf if any event intensity is non-positive or overflows.  A decay
    whose exponent overflows is 0; the slice drops _scan's 0 for no events."""
    model.validate()
    events, beta = _check_sorted(events, horizon), model.beta
    gaps, tail = np.diff(events), horizon - events
    with np.errstate(over="ignore", invalid="ignore"):
        s = _scan(np.exp(-beta * gaps), 1.0)[:tail.size]  # sum_{j<i} exp(-beta * (t_i - t_j))
        return _value(s, horizon, -np.expm1(-beta * tail).sum() / beta, model.mu, model.alpha)


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


class TimescaleError(ValueError):
    """The events' median gap gives no finite decay rate to fit from."""


def _profile(gaps: np.ndarray, tail: np.ndarray, horizon: float, beta: float,
             mu: float, alpha: float) -> tuple[float, float, float]:
    """(value, mu, alpha) at the log-likelihood's maximum for this beta,
    from (mu, alpha); value -inf for an infinite beta.  At a fixed beta, s
    and A = sum(1 - exp(-beta * tail)) / beta are fixed, so
    L = sum(log(mu + alpha * s)) - mu * horizon - alpha * A is concave on
    the box mu >= 1e-12, 0 <= alpha <= 0.999 beta.  Damped Newton steps,
    taken relative to mu so the system's entries are of order n in any
    time unit; past an alpha bound, alpha stops at it and mu takes the
    model's best there.  Call under log_likelihood's np.errstate."""
    if not beta < np.inf:
        return -np.inf, mu, alpha
    s = _scan(np.exp(-beta * gaps), 1.0)
    spent, cap = -np.expm1(-beta * tail).sum() / beta, 0.999 * beta
    mu, alpha = max(mu, 1e-12), min(alpha, cap)
    if (cur := _value(s, horizon, spent, mu, alpha)) == -np.inf:  # start below the overflow
        alpha, cur = 0.0, _value(s, horizon, spent, mu, 0.0)
    for _ in range(50):
        q = mu / (mu + alpha * s)
        sq = s * q
        g_mu, g_alpha = q.sum() - mu * horizon, sq.sum() - mu * spent  # mu * gradient
        m00, m01, m11 = q @ q, q @ sq, sq @ sq  # mu**2 * minus the Hessian
        det = m00 * m11 - m01 * m01
        target = (alpha + mu * (m00 * g_alpha - m01 * g_mu) / det if det > 0
                  else cap if g_alpha > 0 else 0.0)  # s is all 0: L is linear in alpha
        step = min(max(target, 0.0), cap) - alpha
        x = (g_mu - m01 * step / mu) / m00  # mu's step, relative to mu
        if not 1e-10 < g_mu * x + g_alpha * step / mu < np.inf:  # twice the model's gain
            break
        for k in range(34):  # step lengths 1, 1/2, ... down to about 1e-10
            cand = max(mu * (1.0 + x / 2**k), 1e-12), alpha + step / 2**k
            if (val := _value(s, horizon, spent, *cand)) >= cur:
                break
        else:  # no step length keeps L from falling
            break
        (mu, alpha), cur = cand, val
    return cur, mu, alpha


def fit_multistart(events: np.ndarray, horizon: float, steps: int = 40,
                   step_size: float = 0.15) -> HawkesModel:
    """Maximum likelihood by the profile over beta (_profile at each):
    betas log-spaced step_size decades apart over [1e-4, 1e2] / median gap
    (41 by default), then `steps` golden-section steps in log beta between
    the best one's neighbours (none: the grid alone), each solve from the
    last one's end, the earliest of equal values winning.  The model is
    always in _profile's box, so alpha <= 0.999 beta.  TimescaleError when
    the smallest beta is not finite."""
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be a finite number > 0")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0 < step_size <= 6:
        raise ValueError("step_size must be in (0, 6] decades")
    events = _check_sorted(events, horizon)
    if events.size < 2:
        raise ValueError("need at least 2 events to fit")
    gaps, tail = np.diff(events), horizon - events
    gap = median_gap(events)
    lo = 1e-4 / gap
    if not lo < np.inf:
        raise TimescaleError(f"median gap between events {gap:g} is too small "
                             "for a finite decay rate to start the fit from")
    mu, alpha = tail.size / horizon, 0.0  # where the next solve starts
    best = (HawkesModel(mu, alpha, lo), -np.inf)  # (model, value)
    last = int(6.0 / step_size)  # the grid's last step

    def profile(u: float) -> float:  # u in grid steps, 0 to last
        nonlocal mu, alpha, best
        beta = lo * 10.0 ** (step_size * u)
        value, mu, alpha = _profile(gaps, tail, horizon, beta, mu, alpha)
        best = max(best, (HawkesModel(mu, alpha, beta), value), key=lambda f: f[1])
        return value

    with np.errstate(over="ignore", invalid="ignore"):  # see _profile
        top = max(range(last + 1), key=profile)  # profiles the grid in order; the first best wins
        a, b, shrink = max(top - 1, 0), min(top + 1, last), (5.0 ** 0.5 - 1.0) / 2.0
        c, d = b - shrink * (b - a), a + shrink * (b - a)
        if steps:
            fc, fd = profile(c), profile(d)
        for _ in range(steps):
            if fc >= fd:
                b, d, fd, c = d, c, fc, d - shrink * (d - a)
                fc = profile(c)
            else:
                a, c, fc, d = c, d, fd, c + shrink * (b - c)
                fd = profile(d)
    return best[0]


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
    tau seconds: by default 3 / beta, three of the kernel's decay times,
    the span over which a burst's excitation fades to 5%."""
    raw = sample_intensity(model, times, times)
    return raw, smooth(times, raw, 3.0 / model.beta if tau is None else tau)


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
    local minimum among posts (strict drop from the left).  tau is
    post_intensity's, 3 / beta by default.
    """
    if not 0 < quantile < 1:
        raise ValueError("quantile must be in (0, 1)")
    times = np.asarray(thread.timestamps, dtype=np.float64)
    n = times.size
    if n == 0:
        return []
    v = post_intensity(model, times, tau)[1]
    threshold = _quantile(v, quantile)
    cut = (v[1:] < threshold) & (v[1:] < v[:-1]) & np.r_[v[1:-1] <= v[2:], True]
    cuts = [0, *(np.flatnonzero(cut) + 1).tolist(), n]
    return [Range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
