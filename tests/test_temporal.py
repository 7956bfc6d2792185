"""Hawkes model: intensity, likelihood, simulation, fitting, ranges."""

import math
import os
import time
import warnings

import numpy as np
import pytest

from untangler import cli, harness, temporal
from untangler.temporal import (HawkesModel, Range, detect_ranges, fit,
                                fit_multistart, intensity, log_likelihood,
                                median_gap, sample_intensity, simulate, smooth)

from conftest import make_thread
from oracles import (reference_excitation, reference_laplace_sums, reference_ranges,
                     reference_smooth)


def value_and_gradient(events, horizon, mu, alpha, beta):
    """The log-likelihood and its gradient, as fit takes them: the value
    first, then the gradient from the state the value left."""
    gaps, tail = np.diff(events), horizon - events
    value, state = temporal._log_likelihood(gaps, tail, horizon, mu, alpha, beta)
    return value, temporal._gradient(gaps, tail, horizon, alpha, beta, state)


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
        grad = value_and_gradient
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
            gaps = np.diff(events)
            decay = np.exp(-beta * gaps)
            s = temporal._scan(decay, 1.0)[:events.size]
            r = temporal._scan(decay, gaps * (s[:-1] + 1.0))[:events.size]
            ref_s, ref_r = reference_excitation(events, beta)
            assert s.tolist() == ref_s.tolist()
            assert r.tolist() == ref_r.tolist()

    def test_non_positive_intensity_gives_minus_inf_and_nan_gradient(self):
        events = np.array([1.0, 2.0])
        value, g = value_and_gradient(events, 5.0, 0.0, 1.0, 1.0)
        assert value == -np.inf and np.isnan(g).all()


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

    def test_gradient_only_at_the_start_and_each_accepted_step(self, monkeypatch):
        # the line search takes values only; fit accepts the first
        # candidate above the current value, so replaying the values finds
        # every accepted step and the state the gradient must be taken at
        values, states = [], []
        value_fn, gradient_fn = temporal._log_likelihood, temporal._gradient

        def value_spy(*args):
            values.append(value_fn(*args))
            return values[-1]

        def gradient_spy(gaps, tail, horizon, alpha, beta, state):
            states.append(state)
            return gradient_fn(gaps, tail, horizon, alpha, beta, state)

        monkeypatch.setattr(temporal, "_log_likelihood", value_spy)
        monkeypatch.setattr(temporal, "_gradient", gradient_spy)
        rng = np.random.default_rng(14)
        events = simulate(HawkesModel(0.2, 0.5, 1.0), 400.0, rng)
        rate, gap = events.size / 400.0, median_gap(events)
        for scale in temporal._FIT_SCALES:
            values.clear()
            states.clear()
            beta0 = scale / gap
            fit(events, 400.0, HawkesModel(0.5 * rate, 0.5 * beta0, beta0), steps=200)
            cur, accepted = values[0][0], []
            for value, state in values[1:]:
                if value > cur:
                    cur = value
                    accepted.append(state)
            assert len(states) == len(accepted) + 1
            assert all(a is b for a, b in zip(states, [values[0][1], *accepted]))
            assert len(values) > len(states) > 1

    def test_multistart_validates_horizon(self):
        with pytest.raises(ValueError):
            fit_multistart(np.array([0.0, 1.0]), 0.0)

    def test_multistart_rejects_subnormal_timescale(self):
        # median gap 5e-324: scale / gap overflows to inf at every scale
        with pytest.raises(temporal.TimescaleError, match="median gap"):
            fit_multistart(np.array([0.0, 5e-324, 1e-323]), 1.0)


@pytest.mark.parametrize("events", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 1.0, 2.0]],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda events: fit(events, 3.0, HawkesModel(1.0, 0.5, 1.0)),
    lambda events: fit_multistart(events, 3.0),
    lambda events: log_likelihood(HawkesModel(1.0, 0.5, 1.0), events, 3.0),
    lambda events: sample_intensity(HawkesModel(1.0, 0.5, 1.0), events, np.array([1.5])),
], ids=["fit", "fit_multistart", "log_likelihood", "sample_intensity"])
def test_non_finite_events_rejected(call, events):
    with pytest.raises(ValueError, match="finite"):
        call(np.array(events))


def cli_events(seed, **synth):
    """The events and horizon disentangle fits on a synthetic thread."""
    thread, _ = harness.generate(cli.default_synth_config(**synth), seed=seed)
    times = np.asarray(thread.timestamps)
    events = times - times[0]
    return events, (float(events[-1]) or 1.0) + 1.0


# name -> () -> (events, horizon, steps)
FIT_CASES = {
    **{f"oracle-180 seed {seed}": (lambda seed=seed: (
        *cli_events(seed, n_conversations=3, posts_lo=60, posts_hi=60), 200))
       for seed in (1, 1_000_001)},
    "criterion 4": lambda: (simulate(HawkesModel(0.2, 0.8, 1.6), 1300.0,
                                     np.random.default_rng(11)), 1300.0, 800),
    "criterion 8": lambda: (
        *cli_events(8, n_conversations=25, posts_lo=200, posts_hi=200), 200),
}


def in_turn(events, horizon, steps=200):
    """fit_multistart's starts run one after another: the model of the
    best log-likelihood, the earliest start winning ties."""
    rate, gap = events.size / horizon, median_gap(events)
    gaps, tail = np.diff(events), horizon - events
    best = None
    for scale in temporal._FIT_SCALES:
        beta0 = scale / gap
        model, value = temporal._ascend(gaps, tail, horizon,
                                        HawkesModel(0.5 * rate, 0.5 * beta0, beta0), steps, 0.1)
        if best is None or value > best[1]:
            best = model, value
    return best[0]


def forbidden(*args, **kwargs):
    pytest.fail("called where it must not be")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="without sched_getaffinity the starts run in turn")
class TestParallelStarts:
    @pytest.fixture(autouse=True)
    def no_child_or_descriptor_left(self):
        descriptors = len(os.listdir("/proc/self/fd"))
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == descriptors

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        """Two workers, so the fork runs on a one-CPU machine too."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.mark.parametrize("case", FIT_CASES)
    def test_equals_the_starts_run_in_turn(self, case):
        events, horizon, steps = FIT_CASES[case]()
        assert fit_multistart(events, horizon, steps=steps) == in_turn(events, horizon, steps)

    def test_one_cpu_forks_nothing(self, monkeypatch):
        events, horizon, _ = FIT_CASES["oracle-180 seed 1"]()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", forbidden)
        assert fit_multistart(events, horizon) == in_turn(events, horizon)

    def test_failed_fork_runs_the_starts_here(self, monkeypatch, two_cpus):
        # start 1, the child's, wins on this thread
        events, horizon, _ = FIT_CASES["oracle-180 seed 1"]()

        def fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert fit_multistart(events, horizon) == in_turn(events, horizon)

    @pytest.mark.parametrize("dies_at", [1, 2], ids=["before-writing", "after-one-start"])
    def test_dead_child_s_starts_run_here(self, monkeypatch, two_cpus, dies_at):
        events, horizon, _ = FIT_CASES["oracle-180 seed 1"]()
        expected = in_turn(events, horizon)
        parent, ascend, calls = os.getpid(), temporal._ascend, []

        def dying(*args):
            if os.getpid() != parent:
                calls.append(args)
                if len(calls) == dies_at:
                    os._exit(1)
            return ascend(*args)

        monkeypatch.setattr(temporal, "_ascend", dying)
        assert fit_multistart(events, horizon) == expected

    def test_interrupted_share_kills_the_child(self, monkeypatch, two_cpus):
        events, horizon, _ = FIT_CASES["oracle-180 seed 1"]()
        parent = os.getpid()

        def stuck(*args):
            if os.getpid() != parent:
                time.sleep(30)
            raise KeyboardInterrupt

        monkeypatch.setattr(temporal, "_ascend", stuck)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            fit_multistart(events, horizon)
        assert time.monotonic() - start < 10

    def test_equal_likelihoods_keep_the_earliest_start(self, monkeypatch, two_cpus):
        # starts 1 (the child's) and 2 (this process's) tie at the best value
        events, horizon, _ = FIT_CASES["oracle-180 seed 1"]()
        beta0s = [scale / median_gap(events) for scale in temporal._FIT_SCALES]
        values = [-3.0, -1.0, -1.0, -2.0]

        def fake(gaps, tail, horizon, init, steps, step_size):
            i = beta0s.index(init.beta)
            return HawkesModel(1.0, 0.0, float(i + 1)), values[i]

        monkeypatch.setattr(temporal, "_ascend", fake)
        assert fit_multistart(events, horizon) == HawkesModel(1.0, 0.0, 2.0)

    def test_no_warning_after_blas_threads_start(self, two_cpus):
        # Python 3.12+ warns on fork in a process with more than one thread;
        # OpenBLAS stops the pool a matmul starts in its pthread_atfork
        # handler.  An "error" filter does not raise that warning, so record it.
        events, horizon, _ = FIT_CASES["oracle-180 seed 1"]()
        square = np.random.default_rng(0).standard_normal((500, 500))
        assert np.isfinite(square @ square).all()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_multistart(events, horizon)
        assert [str(w.message) for w in caught] == []
        assert model == in_turn(events, horizon)


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
