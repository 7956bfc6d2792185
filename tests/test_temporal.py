"""Hawkes model: intensity, likelihood, simulation, fitting, ranges."""

import functools
import math

import numpy as np
import pytest

from untangler import cli, corpus, embedder, harness, temporal
from untangler.temporal import (HawkesModel, Range, detect_ranges, fit_multistart,
                                intensity, log_likelihood, median_gap,
                                post_intensity, sample_intensity, simulate, smooth)

from conftest import make_thread
from oracles import (reference_excitation, reference_laplace_sums, reference_ranges,
                     reference_smooth)


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


class TestExcitation:
    @pytest.mark.parametrize("beta", [1e-4, 0.01, 1.13, 114.0])
    def test_matches_the_indexed_loop_exactly(self, beta):
        rng = np.random.default_rng(43)
        cases = [np.array([]), np.array([3.0]), np.array([1.0, 2.5]), np.array([2.0, 2.0]),
                 np.array([0.0, 10.0, 10.0, 10.0, 20.0]),
                 np.array([0.0, 1.0, 50.0, 50.5, 900.0])]  # exp(-114 * 49) underflows to 0
        for _ in range(40):
            events = np.cumsum(rng.exponential(rng.choice([0.01, 1.0, 100.0]),
                                               size=rng.integers(2, 200)))
            if rng.random() < 0.5:  # equal times
                events[rng.integers(1, events.size, size=5)] = 0.0
                events = np.maximum.accumulate(events)
            cases.append(events)
        for events in cases:
            s = temporal._scan(np.exp(-beta * np.diff(events)), 1.0)[:events.size]
            assert s.tolist() == reference_excitation(events, beta).tolist()

    @pytest.mark.parametrize("size", [4095, 4096, 4097, 9000])
    def test_scan_matches_one_loop_across_parts(self, size):
        # _scan steps 4,096 points at a time; the running sum carries over
        rng = np.random.default_rng(size)
        gain, drive = rng.random(size), rng.random(size)
        for d in (drive, 1.0, drive[::-1]):
            y, expected = 0.0, [0.0]
            for g, x in zip(gain.tolist(), np.broadcast_to(d, size).tolist()):
                y = g * (y + x)
                expected.append(y)
            assert temporal._scan(gain, d).tolist() == expected


class TestOverflow:
    # a decay whose exponent overflows is 0; an intensity that overflows
    # makes the likelihood -inf, not inf - inf
    @pytest.mark.parametrize("call, expected", [
        (lambda: intensity(HawkesModel(1, 0.5, 1e308), [0.0], 2.0), 1.0),
        (lambda: log_likelihood(HawkesModel(1, 0.5, 1e308), [0, 2], 3), -3.0),
        (lambda: log_likelihood(HawkesModel(1, 1e308, 1e-300), [0, 1, 2], 3), -np.inf),
        (lambda: log_likelihood(HawkesModel(1, 0.5, 1e-320), [0, 1, 2], 3),
         pytest.approx(math.log(3) - 6)),
    ], ids=["intensity", "log_likelihood-decay", "log_likelihood-intensity",
            "log_likelihood-compensator"])
    def test_silent_and_defined(self, call, expected):
        assert call() == expected


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
    def test_too_few_events_rejected(self):
        with pytest.raises(ValueError, match="at least 2 events"):
            fit_multistart(np.array([1.0]), 10.0)

    def test_events_outside_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            fit_multistart(np.array([1.0, 5.0]), 4.0)
        with pytest.raises(ValueError, match="horizon"):
            fit_multistart(np.array([-1.0, 2.0]), 4.0)

    def test_multistart_validates_horizon(self):
        with pytest.raises(ValueError):
            fit_multistart(np.array([0.0, 1.0]), 0.0)

    @pytest.mark.parametrize("horizon", [-1.0, np.inf, np.nan])
    def test_multistart_rejects_a_horizon_that_is_not_a_finite_positive_number(self, horizon):
        with pytest.raises(ValueError, match="horizon must be a finite number > 0"):
            fit_multistart(np.array([0.0, 1.0]), horizon)

    def test_multistart_rejects_subnormal_timescale(self):
        # median gap 5e-324: scale / gap overflows to inf at every scale
        with pytest.raises(temporal.TimescaleError, match="median gap"):
            fit_multistart(np.array([0.0, 5e-324, 1e-323]), 1.0)


@pytest.mark.parametrize("events", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 1.0, 2.0]],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda events: fit_multistart(events, 3.0),
    lambda events: log_likelihood(HawkesModel(1.0, 0.5, 1.0), events, 3.0),
    lambda events: sample_intensity(HawkesModel(1.0, 0.5, 1.0), events, np.array([1.5])),
], ids=["fit_multistart", "log_likelihood", "sample_intensity"])
def test_non_finite_events_rejected(call, events):
    with pytest.raises(ValueError, match="finite"):
        call(np.array(events))


def cli_events(seed, **synth):
    """The events and horizon disentangle fits on a synthetic thread."""
    thread, _ = harness.generate(cli.default_synth_config(**synth), seed=seed)
    times = np.asarray(thread.timestamps)
    events = times - times[0]
    return events, (float(events[-1]) or 1.0) + 1.0


# name -> () -> (events, horizon)
FIT_CASES = {
    **{f"oracle-180 seed {seed}": (lambda seed=seed: cli_events(
        seed, n_conversations=3, posts_lo=60, posts_hi=60)) for seed in (1, 1_000_001)},
    "criterion 4": lambda: (simulate(HawkesModel(0.2, 0.8, 1.6), 1300.0,
                                     np.random.default_rng(11)), 1300.0),
    "criterion 8": lambda: cli_events(8, n_conversations=25, posts_lo=200, posts_hi=200),
}

# fit_multistart's (steps, step_size): the defaults and criterion 4's
BUDGETS = {"default": {}, "criterion 4": {"steps": 800, "step_size": 0.1}}

# the decay timescales, in units of the median gap, that the reference
# starts from
START_SCALES = (0.01, 0.1, 1.0, 10.0)


@functools.lru_cache(maxsize=None)
def quasi_newton_reference(case):
    """The best log-likelihood that scipy's L-BFGS-B finds over
    (log mu, alpha / beta in [0, 0.999], log beta) from each of
    START_SCALES, with beta0 = scale / median gap, alpha0 = beta0 / 2 and
    a baseline at half the empirical rate."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    events, horizon = FIT_CASES[case]()
    rate, gap = events.size / horizon, median_gap(events)

    def loss(p):
        beta = math.exp(p[2])
        value = log_likelihood(HawkesModel(math.exp(p[0]), p[1] * beta, beta), events, horizon)
        return -value if value > -np.inf else 1e300

    return max(-minimize(loss, (math.log(0.5 * rate), 0.5, math.log(scale / gap)),
                         method="L-BFGS-B", bounds=[(None, None), (0.0, 0.999), (None, None)],
                         options={"ftol": 1e-15, "gtol": 1e-12}).fun
               for scale in START_SCALES)


class TestProfileFit:
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("case", FIT_CASES)
    def test_at_least_a_quasi_newton_reference(self, case, budget):
        events, horizon = FIT_CASES[case]()
        value = log_likelihood(fit_multistart(events, horizon, **BUDGETS[budget]),
                               events, horizon)
        assert value >= quasi_newton_reference(case) - 1e-9 * (1 + abs(value))

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("case", FIT_CASES)
    def test_fit_stays_in_the_box(self, case, budget):
        # a stationary process, alpha < beta, at the profile's bound at most
        fitted = fit_multistart(*FIT_CASES[case](), **BUDGETS[budget])
        fitted.validate()
        assert fitted.mu >= 1e-12 and fitted.alpha <= 0.999 * fitted.beta

    def test_budgets(self, monkeypatch):
        # steps golden-section steps (2 + steps solves, none for 0 steps)
        # after 6 / step_size + 1 grid points; the defaults are 40 and 0.15
        events, horizon = FIT_CASES["oracle-180 seed 1"]()
        assert fit_multistart(events, horizon) == \
            fit_multistart(events, horizon, steps=40, step_size=0.15)
        for steps, step_size in [(-1, 0.15), (40, 0.0), (40, -0.1), (40, 6.01),
                                 (40, np.nan), (40, np.inf)]:
            with pytest.raises(ValueError, match="steps|step_size"):
                fit_multistart(events, horizon, steps=steps, step_size=step_size)
        solve, betas = temporal._profile, []

        def spy(gaps, tail, horizon, beta, mu, alpha):
            betas.append(beta)
            return solve(gaps, tail, horizon, beta, mu, alpha)

        monkeypatch.setattr(temporal, "_profile", spy)
        for budget, solves in [({}, 83), ({"steps": 0}, 41),
                               ({"steps": 5, "step_size": 0.1}, 68), ({"step_size": 6.0}, 44)]:
            betas.clear()
            fit_multistart(events, horizon, **budget)
            assert len(betas) == solves
        np.testing.assert_allclose(betas[:2], np.array([1e-4, 1e2]) / median_gap(events),
                                   rtol=1e-12)

    def test_inner_solve_matches_a_bounded_quasi_newton_solver(self):
        # at a fixed beta the solve's (mu, alpha) is the concave maximum on
        # the box mu >= 1e-12, 0 <= alpha <= 0.999 beta: scipy's L-BFGS-B,
        # run from the solve's start and from its answer, finds no more
        minimize = pytest.importorskip("scipy.optimize").minimize
        rng = np.random.default_rng(45)
        at_bound = 0
        for case in range(100):
            n = int(rng.integers(2, 120))
            events = np.cumsum(rng.exponential(rng.choice([0.01, 1.0, 100.0]), size=n))
            if rng.random() < 0.3:  # tied timestamps
                events[rng.integers(1, n, size=n // 3)] = 0.0
                events = np.maximum.accumulate(events)
            horizon = float(events[-1]) + float(rng.uniform(0, 10))
            beta = float(rng.choice([1e-4, 1e-2, 1.0, 1e2, 1e4])) / median_gap(events)
            start = (float(rng.uniform(1e-3, 10)) * n / horizon,
                     float(rng.uniform(0, 0.999)) * beta)
            gaps, tail = np.diff(events), horizon - events

            def loss(p):
                return -log_likelihood(HawkesModel(p[0], p[1], beta), events, horizon)

            with np.errstate(over="ignore", invalid="ignore"):
                value, mu, alpha = temporal._profile(gaps, tail, horizon, beta, *start)
                assert 1e-12 <= mu and 0.0 <= alpha <= 0.999 * beta
                assert value == -loss([mu, alpha]) >= -loss(start)
                best = min(minimize(loss, x0, method="L-BFGS-B",
                                    bounds=[(1e-12, None), (0.0, 0.999 * beta)],
                                    options={"ftol": 1e-15, "gtol": 1e-12}).fun
                           for x0 in (start, (mu, alpha)))
            assert value >= -best - 1e-10 * (1 + abs(value))
            at_bound += alpha in (0.0, 0.999 * beta)
        assert 0 < at_bound < 100

    def test_profile_beats_a_dense_beta_grid(self):
        # the grid and golden-section search find the best beta that a
        # 2,001-point grid over the same range finds, or better
        events, horizon = FIT_CASES["oracle-180 seed 1"]()
        gaps, tail = np.diff(events), horizon - events
        fitted = fit_multistart(events, horizon)
        with np.errstate(over="ignore", invalid="ignore"):
            dense = max(temporal._profile(gaps, tail, horizon, beta, events.size / horizon, 0.0)[0]
                        for beta in np.geomspace(1e-4, 1e2, 2001) / median_gap(events))
        assert log_likelihood(fitted, events, horizon) >= dense - 1e-9

    def test_equal_values_keep_the_earliest_beta(self, monkeypatch):
        # a flat profile: every beta ties, so the grid's first point wins
        events, horizon = FIT_CASES["oracle-180 seed 1"]()
        monkeypatch.setattr(temporal, "_profile",
                            lambda gaps, tail, horizon, beta, mu, alpha: (-1.0, 0.5, 0.0))
        model = fit_multistart(events, horizon)
        assert model == HawkesModel(0.5, 0.0, 1e-4 / median_gap(events))


class TestSmoothing:
    def test_constant_series_preserved(self):
        grid = np.array([0.0, 1.0, 3.0, 7.0])
        np.testing.assert_allclose(smooth(grid, np.full(4, 2.5), tau=2.0), 2.5)

    def test_smoothed_within_raw_bounds(self):
        rng = np.random.default_rng(21)
        grid = np.sort(rng.uniform(0, 100, size=60))
        raw = rng.uniform(0, 5, size=60)
        out = smooth(grid, raw, tau=3.0)
        assert out.min() >= raw.min() - 1e-12
        assert out.max() <= raw.max() + 1e-12

    def test_larger_tau_flattens_more(self):
        grid = np.linspace(0, 10, 50)
        raw = np.sin(grid)
        narrow = smooth(grid, raw, tau=0.1)
        wide = smooth(grid, raw, tau=50.0)
        assert np.ptp(wide) < np.ptp(narrow)

    def test_tau_validation(self):
        grid = np.array([2.0])
        raw = sample_intensity(HawkesModel(1, 0, 1), np.array([1.0]), grid)
        with pytest.raises(ValueError):
            smooth(grid, raw, tau=0.0)

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
            np.testing.assert_allclose(smooth(grid, raw, tau), reference_smooth(grid, raw, tau),
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tau", [1e-3, 0.7, 30.0, 1e4])
    def test_laplace_sums_match_the_indexed_loop_exactly(self, tau):
        rng = np.random.default_rng(44)
        cases = [np.array([2.0]), np.array([1.0, 2.5]), np.array([0.0, 1.0, 900.0])]
        for _ in range(40):
            cases.append(np.cumsum(rng.exponential(rng.choice([0.01, 1.0, 100.0]),
                                                   size=rng.integers(2, 200))))
        for grid in cases:
            decay = np.exp(-np.diff(grid) / tau)
            for values in (rng.uniform(0.01, 5.0, size=grid.size),
                           rng.integers(1, 4, size=grid.size).astype(np.float64)):
                out = temporal._laplace_sums(values, decay)
                assert out.tolist() == reference_laplace_sums(values, decay).tolist()

    def test_equal_times_get_equal_values(self):
        grid = np.array([0.0, 1.0, 1.0, 1.0, 2.5, 9.0, 9.0])
        raw = np.array([1.0, 0.3, 2.0, 0.7, 1.1, 4.0, 0.2])
        out = smooth(grid, raw, tau=1.3)
        assert out[1] == out[2] == out[3] and out[5] == out[6]

    def test_empty_and_unsorted_grids(self):
        empty = np.zeros(0)
        assert smooth(empty, empty, 1.0).size == 0
        with pytest.raises(ValueError, match="sorted"):
            smooth(np.array([1.0, 0.0]), np.ones(2), 1.0)

    def test_sample_intensity_values(self):
        model = HawkesModel(0.5, 1.0, 2.0)
        events = np.array([1.0, 2.0])
        raw = sample_intensity(model, events, np.array([0.5, 1.5, 2.5]))
        expected = [naive_intensity(model, events, t) for t in (0.5, 1.5, 2.5)]
        np.testing.assert_allclose(raw, expected)

    def test_sample_intensity_matches_intensity(self):
        # the scan multiplies at most n per-gap decays where
        # naive_intensity takes one exp per event, so they agree to ~n ulp
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
            raw = sample_intensity(model, events, grid)
            expected = [naive_intensity(model, events, t) for t in grid]
            np.testing.assert_allclose(raw, expected, rtol=1e-12, atol=0)


class TestMedianGap:
    def test_median_of_positive_gaps(self):
        assert median_gap(np.array([0.0, 1.0, 1.0, 4.0])) == pytest.approx(2.0)

    def test_fallback_when_no_positive_gap(self):
        assert median_gap(np.array([5.0, 5.0])) == 1.0
        assert median_gap(np.array([5.0])) == 1.0

    def test_equals_np_median(self):
        rng = np.random.default_rng(33)
        for n in range(2, 200):
            times = np.cumsum(rng.exponential(3.0, size=n) * (rng.random(n) < 0.8))
            if n % 3 == 0:  # equal gaps
                times = np.cumsum(rng.choice([0.0, 0.5, 1.0, rng.exponential(3.0)], size=n))
            gaps = np.diff(times)
            expected = float(np.median(gaps[gaps > 0])) if (gaps > 0).any() else 1.0
            assert median_gap(times) == expected


class TestQuantile:
    def test_equals_np_quantile(self):
        # np.quantile's linear method takes b - (b - a) * (1 - t) for t >= 0.5
        # and a + (b - a) * t below; near q = 0 and 1, t sits at either end
        rng = np.random.default_rng(34)
        qs = [1e-12, 1e-6, 0.1, 0.25, 0.5, 0.75, 0.9, 1 - 1e-6, 1 - 1e-12, 1 - 2 ** -53]
        for n in [1, 2, *rng.integers(1, 80, size=300).tolist()]:
            if rng.random() < 0.5:  # ties
                values = rng.integers(0, 4, size=n).astype(float)
            else:
                values = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5)
            for q in [*qs, float(rng.uniform(0, 1))]:
                assert temporal._quantile(values, q) == float(np.quantile(values, q))


class TestDetectRanges:
    def test_empty_and_single(self):
        model = HawkesModel(1.0, 0.0, 1.0)
        assert detect_ranges(make_thread([]), model) == []
        assert detect_ranges(make_thread([3.0]), model) == [Range(0, 1)]
        # one post checks the model and tau as two do
        for bad, tau in ((HawkesModel(math.nan, 0.0, 1.0), None), (model, 0.0)):
            for times in ([3.0], [3.0, 4.0]):
                with pytest.raises(ValueError):
                    detect_ranges(make_thread(times), bad, tau=tau)

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

    def test_default_tau_is_three_decay_times(self):
        rng = np.random.default_rng(46)
        times = np.sort(rng.uniform(0, 1000, size=40))
        model = HawkesModel(0.05, 0.3, 0.4)
        raw, smoothed = post_intensity(model, times)
        assert raw.tolist() == sample_intensity(model, times, times).tolist()
        assert smoothed.tolist() == smooth(times, raw, 3.0 / 0.4).tolist()
        assert detect_ranges(make_thread(times), model) == \
            detect_ranges(make_thread(times), model, tau=3.0 / 0.4)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            detect_ranges(make_thread([1.0, 2.0]), HawkesModel(1, 0, 1), quantile=1.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_cuts_match_the_loop(self, monkeypatch, seed):
        # integer times tie, and smooth pools ties into plateaus; on odd
        # seeds the smoothed values become small integers, with plateaus anywhere
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        times = np.sort(rng.integers(0, n, size=n)).astype(float)
        seen = []

        def spy(grid, raw, tau):
            out = smooth(grid, raw, tau)
            if seed % 2:
                out = rng.integers(0, 4, size=n).astype(float)
            seen.append(out)
            return out

        monkeypatch.setattr(temporal, "smooth", spy)
        quantile = float(rng.uniform(0.05, 0.95))
        ranges = detect_ranges(make_thread(times), HawkesModel(0.5, 0.3, 0.6), quantile=quantile)
        assert [(r.lo, r.hi) for r in ranges] == reference_ranges(seen[0], quantile)


@pytest.mark.parametrize("seed", range(4, 13))
def test_criterion_7_recipe_holds_on_other_seeds(seed):
    # criterion 7 (tests/test_acceptance.py) runs seed 3; this runs nine
    # more: the fitted model's default cut must find the three conversations
    config = cli.default_synth_config(n_conversations=3, posts_lo=60, posts_hi=60)
    thread, gold = harness.generate(config, seed=seed)
    vocab = corpus.build_vocab([thread])
    windows = corpus.build_windows(thread, corpus.BEFORE_ONLY, 3)
    enc_config = embedder.EncoderConfig(vocab_size=len(vocab))
    params, _ = embedder.train([thread], vocab, [windows], enc_config)
    times = np.asarray(thread.timestamps)
    model = fit_multistart(times - times[0], float(times[-1] - times[0]) + 1.0)
    _, _, _, conversations = cli.run_pipeline(
        thread, enc_config, params, vocab, model, tau=None, quantile=0.25)
    pred_labels = {m: idx for idx, conv in enumerate(conversations) for m in conv.members}
    pred_parents = {c: p for conv in conversations for c, p in conv.parents.items()}
    assert harness.partition_ari(pred_labels, gold.labels) >= 0.7
    assert harness.edge_prf(pred_parents, gold.parents)[2] >= 0.5
