"""Hawkes model: intensity, likelihood, simulation, fitting, ranges."""

import numpy as np
import pytest

from untangler import temporal
from untangler.temporal import (HawkesModel, Range, detect_ranges, fit,
                                fit_multistart, intensity, log_likelihood,
                                median_gap, sample_intensity, simulate, smooth)

from conftest import make_thread
from oracles import reference_smooth


def naive_intensity(model, events, t):
    total = model.mu
    for tj in events:
        if tj < t:
            total += model.alpha * np.exp(-model.beta * (t - tj))
    return total


def naive_log_likelihood(model, events, horizon):
    """Direct form: sum of log-intensities minus the integrated rate."""
    ll = 0.0
    for i, ti in enumerate(events):
        ll += np.log(naive_intensity(model, events[:i], ti))
    compensator = model.mu * horizon
    for tj in events:
        compensator += (model.alpha / model.beta) * (1 - np.exp(-model.beta * (horizon - tj)))
    return ll - compensator


class TestModel:
    def test_validation(self):
        HawkesModel(0.0, 0.0, 1.0).validate()
        for bad in [HawkesModel(-1, 1, 1), HawkesModel(1, -1, 1),
                    HawkesModel(1, 1, 0), HawkesModel(np.nan, 1, 1)]:
            with pytest.raises(ValueError):
                bad.validate()


class TestIntensity:
    def test_matches_naive_summation(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            model = HawkesModel(rng.uniform(0.1, 2), rng.uniform(0, 2), rng.uniform(0.1, 3))
            events = np.sort(rng.uniform(0, 50, size=rng.integers(0, 40)))
            t = rng.uniform(0, 60)
            assert intensity(model, events, t) == pytest.approx(
                naive_intensity(model, events, t), abs=1e-10)

    def test_only_strictly_earlier_events_excite(self):
        model = HawkesModel(0.5, 1.0, 1.0)
        events = np.array([1.0, 2.0])
        assert intensity(model, events, 1.0) == pytest.approx(0.5)
        assert intensity(model, events, 2.0) == pytest.approx(0.5 + np.exp(-1.0))

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError):
            intensity(HawkesModel(1, 0, 1), np.array([2.0, 1.0]), 3.0)


class TestLogLikelihood:
    def test_matches_naive_form(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            model = HawkesModel(rng.uniform(0.1, 2), rng.uniform(0, 1), rng.uniform(0.5, 3))
            events = np.sort(rng.uniform(0, 20, size=rng.integers(2, 30)))
            assert log_likelihood(model, events, 25.0) == pytest.approx(
                naive_log_likelihood(model, events, 25.0), rel=1e-9)

    def test_empty_events(self):
        assert log_likelihood(HawkesModel(0.5, 1, 1), np.array([]), 10.0) == -5.0

    def test_events_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood(HawkesModel(1, 0, 1), np.array([5.0]), 4.0)

    def test_zero_mu_first_event_gives_minus_inf(self):
        assert log_likelihood(HawkesModel(0.0, 1.0, 1.0),
                              np.array([1.0, 2.0]), 5.0) == -np.inf

    def test_gradient_matches_central_differences(self):
        # Compared per log-parameter, p_i * dL/dp_i, against central
        # differences with step h = 1e-5 in log p_i.  Their rounding error
        # (~eps * M / h) and truncation error (~h**2 * M) are both below
        # 1e-10 * M, where M = 1 + n + mu * T + |L| bounds the terms of L;
        # the gate is 1e-8 * M.
        grad = temporal._log_likelihood_and_gradient
        rng = np.random.default_rng(41)
        h = 1e-5
        for case in range(240):
            n = case % 3 if case < 30 else int(rng.integers(3, 60))
            horizon = float(rng.choice([1.0, 50.0, 1e4])) * rng.uniform(0.5, 2)
            events = np.sort(rng.uniform(0, horizon, size=n))
            if n >= 2 and rng.random() < 0.4:  # tied timestamps
                i = rng.integers(1, n, size=rng.integers(1, n))
                events[i] = events[i - 1]
                events = np.sort(events)
            if n and rng.random() < 0.3:
                events[0] = 0.0
            if n and rng.random() < 0.3:
                events[-1] = horizon
            p = np.array([rng.uniform(0.01, 2), rng.uniform(0.01, 2),
                          rng.uniform(0.01, 3)]) * np.exp(rng.uniform(-3, 3, size=3))
            near_floor = rng.random(3) < 0.2
            p[near_floor] = 1e-8 * rng.uniform(1, 10, size=near_floor.sum())
            value, g = grad(events, horizon, *p)
            assert value == log_likelihood(HawkesModel(*p), events, horizon)
            central = np.zeros(3)
            for j in range(3):
                up, dn = p.copy(), p.copy()
                up[j] *= np.exp(h)
                dn[j] *= np.exp(-h)
                central[j] = (grad(events, horizon, *up)[0]
                              - grad(events, horizon, *dn)[0]) / (2 * h)
            scale = 1 + n + p[0] * horizon + abs(value)
            np.testing.assert_allclose(p * g, central, rtol=0, atol=1e-8 * scale)


class TestSimulate:
    def test_events_sorted_within_horizon(self):
        rng = np.random.default_rng(2)
        times = simulate(HawkesModel(1.0, 0.5, 1.0), 100.0, rng)
        assert np.all(np.diff(times) >= 0)
        assert times.size == 0 or (times[0] > 0 and times[-1] <= 100.0)

    def test_mean_count_matches_theory(self):
        # stationary rate mu / (1 - alpha/beta)
        model = HawkesModel(1.0, 0.5, 1.0)
        rng = np.random.default_rng(3)
        counts = [simulate(model, 200.0, rng).size for _ in range(40)]
        assert np.mean(counts) == pytest.approx(400.0, rel=0.1)

    def test_max_events_caps_supercritical_run(self):
        rng = np.random.default_rng(4)
        times = simulate(HawkesModel(0.5, 3.0, 0.5), 1e9, rng, max_events=50)
        assert times.size == 50

    def test_zero_rate_yields_no_events(self):
        rng = np.random.default_rng(0)
        assert simulate(HawkesModel(0.0, 1.0, 1.0), 100.0, rng).size == 0

    def test_deterministic_given_rng_seed(self):
        model = HawkesModel(1.0, 0.5, 1.0)
        a = simulate(model, 50.0, np.random.default_rng(9))
        b = simulate(model, 50.0, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestFit:
    def test_never_decreases_likelihood(self):
        rng = np.random.default_rng(11)
        truth = HawkesModel(0.3, 0.6, 1.2)
        events = simulate(truth, 300.0, rng)
        init = HawkesModel(1.0, 0.1, 2.0)
        fitted = fit(events, 300.0, init, steps=50)
        assert log_likelihood(fitted, events, 300.0) >= \
            log_likelihood(init, events, 300.0)

    def test_projection_keeps_parameters_valid(self):
        rng = np.random.default_rng(12)
        events = simulate(HawkesModel(0.5, 0.8, 1.0), 200.0, rng)
        fitted = fit(events, 200.0, HawkesModel(0.01, 5.0, 0.5), steps=40)
        fitted.validate()
        assert fitted.alpha < fitted.beta

    def test_too_few_events_rejected(self):
        with pytest.raises(ValueError):
            fit(np.array([1.0]), 10.0, HawkesModel(1, 0, 1))

    def test_events_outside_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            fit(np.array([1.0, 5.0]), 4.0, HawkesModel(1, 0, 1))
        with pytest.raises(ValueError, match="horizon"):
            fit(np.array([-1.0, 2.0]), 4.0, HawkesModel(1, 0, 1))

    def test_multistart_beats_or_ties_single_start(self):
        rng = np.random.default_rng(13)
        events = simulate(HawkesModel(0.2, 0.5, 1.0), 400.0, rng)
        horizon = 400.0
        multi = fit_multistart(events, horizon, steps=100)
        gap = median_gap(events)
        rate = events.size / horizon
        single = fit(events, horizon,
                     HawkesModel(0.5 * rate, 0.5 / gap, 1.0 / gap), steps=100)
        assert log_likelihood(multi, events, horizon) >= \
            log_likelihood(single, events, horizon) - 1e-9

    def test_multistart_validates_horizon(self):
        with pytest.raises(ValueError):
            fit_multistart(np.array([0.0, 1.0]), 0.0)

    def test_multistart_rejects_subnormal_timescale(self):
        # median gap 5e-324: scale / gap overflows to inf at every scale
        with pytest.raises(temporal.TimescaleError, match="median gap"):
            fit_multistart(np.array([0.0, 5e-324, 1e-323]), 1.0)


class TestSmoothing:
    def test_constant_series_preserved(self):
        grid = np.array([0.0, 1.0, 3.0, 7.0])
        series = temporal.IntensitySeries(grid, np.full(4, 2.5), np.full(4, 2.5))
        out = smooth(series, tau=2.0)
        np.testing.assert_allclose(out.smoothed, 2.5)

    def test_smoothed_within_raw_bounds(self):
        rng = np.random.default_rng(21)
        grid = np.sort(rng.uniform(0, 100, size=60))
        raw = rng.uniform(0, 5, size=60)
        series = temporal.IntensitySeries(grid, raw, raw.copy())
        out = smooth(series, tau=3.0)
        assert out.smoothed.min() >= raw.min() - 1e-12
        assert out.smoothed.max() <= raw.max() + 1e-12

    def test_larger_tau_flattens_more(self):
        grid = np.linspace(0, 10, 50)
        raw = np.sin(grid)
        series = temporal.IntensitySeries(grid, raw, raw.copy())
        narrow = smooth(series, tau=0.1).smoothed
        wide = smooth(series, tau=50.0).smoothed
        assert np.ptp(wide) < np.ptp(narrow)

    def test_tau_validation(self):
        series = sample_intensity(HawkesModel(1, 0, 1), np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            smooth(series, tau=0.0)

    def test_matches_dense_reference(self):
        # the recursion multiplies per-gap decays where the dense kernel
        # takes one exp per pair; both round, so compare to rtol 1e-12
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            grid = np.sort(rng.uniform(0, 1000, size=n))
            if rng.random() < 0.5:  # duplicate times
                grid = np.sort(np.r_[grid, grid[rng.integers(0, n, size=rng.integers(1, n + 1))]])
            if rng.random() < 0.3:  # a gap of a million seconds, far beyond tau
                grid[grid.size // 2:] += 1e6
            if rng.random() < 0.3:  # epoch-scale timestamps
                grid += 1.7e9
            raw = rng.uniform(0.01, 5.0, size=grid.size)
            tau = float(rng.choice([0.01, 1.0, 30.0, 1e4]))
            out = smooth(temporal.IntensitySeries(grid, raw, raw.copy()), tau)
            np.testing.assert_allclose(out.smoothed, reference_smooth(grid, raw, tau),
                                       rtol=1e-12, atol=0)

    def test_equal_times_get_equal_values(self):
        grid = np.array([0.0, 1.0, 1.0, 1.0, 2.5, 9.0, 9.0])
        raw = np.array([1.0, 0.3, 2.0, 0.7, 1.1, 4.0, 0.2])
        out = smooth(temporal.IntensitySeries(grid, raw, raw.copy()), tau=1.3).smoothed
        assert out[1] == out[2] == out[3] and out[5] == out[6]

    def test_empty_and_unsorted_grids(self):
        empty = np.zeros(0)
        assert smooth(temporal.IntensitySeries(empty, empty, empty), 1.0).smoothed.size == 0
        with pytest.raises(ValueError, match="sorted"):
            smooth(temporal.IntensitySeries(np.array([1.0, 0.0]), np.ones(2), np.ones(2)), 1.0)

    def test_sample_intensity_values(self):
        model = HawkesModel(0.5, 1.0, 2.0)
        events = np.array([1.0, 2.0])
        series = sample_intensity(model, events, np.array([0.5, 1.5, 2.5]))
        expected = [naive_intensity(model, events, t) for t in (0.5, 1.5, 2.5)]
        np.testing.assert_allclose(series.raw, expected)

    def test_sample_intensity_matches_intensity(self):
        # the recursion multiplies at most n per-gap decays where
        # intensity() takes one exp per event, so they agree to ~n ulp
        rng = np.random.default_rng(43)
        for case in range(300):
            n = 0 if case < 20 else int(rng.integers(1, 80))
            events = np.sort(rng.uniform(0, 100, size=n))
            if n >= 2 and rng.random() < 0.4:  # tied timestamps
                i = rng.integers(1, n, size=rng.integers(1, n))
                events[i] = events[i - 1]
                events = np.sort(events)
            if rng.random() < 0.3:  # epoch-scale timestamps
                events += 1.7e9
            lo = events[0] if n else 0.0
            hi = events[-1] if n else 100.0
            grid = np.r_[rng.uniform(lo - 10, hi + 10, size=rng.integers(0, 50)),
                         events[rng.integers(0, n, size=min(n, 10))]]
            model = HawkesModel(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0.01, 3))
            series = sample_intensity(model, events, grid)
            expected = [intensity(model, events, t) for t in grid]
            np.testing.assert_allclose(series.raw, expected, rtol=1e-12, atol=0)


class TestMedianGap:
    def test_median_of_positive_gaps(self):
        assert median_gap(np.array([0.0, 1.0, 1.0, 4.0])) == pytest.approx(2.0)

    def test_fallback_when_no_positive_gap(self):
        assert median_gap(np.array([5.0, 5.0])) == 1.0
        assert median_gap(np.array([5.0])) == 1.0


class TestDetectRanges:
    def test_empty_and_single(self):
        model = HawkesModel(1.0, 0.0, 1.0)
        assert detect_ranges(make_thread([]), model) == []
        assert detect_ranges(make_thread([3.0]), model) == [Range(0, 1)]

    def test_ranges_partition_indices(self):
        rng = np.random.default_rng(31)
        times = np.sort(rng.uniform(0, 1000, size=40))
        ranges = detect_ranges(make_thread(times), HawkesModel(0.5, 0.3, 0.6))
        assert ranges[0].lo == 0 and ranges[-1].hi == 40
        for a, b in zip(ranges, ranges[1:]):
            assert a.hi == b.lo
        assert all(r.hi > r.lo for r in ranges)

    def test_clear_gap_creates_boundary(self):
        # two dense bursts far apart: the second burst's first post is a
        # low-intensity local minimum, so a boundary lands on it
        times = list(np.linspace(0, 10, 30)) + list(np.linspace(5000, 5010, 30))
        model = HawkesModel(0.01, 0.5, 1.0)
        ranges = detect_ranges(make_thread(times), model, tau=1.0)
        assert Range(0, 30) in ranges

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            detect_ranges(make_thread([1.0, 2.0]), HawkesModel(1, 0, 1), quantile=1.0)
