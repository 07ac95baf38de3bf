import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest
from helpers import (
    bias_detection,
    child_env,
    outages_at,
    random_policy,
    reference_batch_se,
    reference_run,
)
from hypothesis import given
from hypothesis import strategies as st

from ehcr import sensing, simulator
from ehcr.chain import Policy, action_ranges
from ehcr.performance import evaluate
from ehcr.simulator import (
    CORRELATION_MODES,
    SimConfig,
    _occupancy_se,
    _series_se,
    compare,
    run,
)
from ehcr.system_model import with_overrides

TAU = 5e-4
THRESHOLD = 30.0


def mixed_policy(params, tau=TAU, threshold=THRESHOLD) -> Policy:
    return Policy.constant(params, tau, threshold, alpha=0.5, beta1=0.3,
                           beta2=0.5)


class TestRun:
    def test_identical_seeds_identical_reports(self, testbench_params):
        sim = SimConfig(slots=20_000, seed=99)
        policy = mixed_policy(testbench_params)
        a = run(testbench_params, policy, sim)
        b = run(testbench_params, policy, sim)
        assert a.mu_p == b.mu_p and a.mu_s == b.mu_s
        assert np.array_equal(a.battery_histogram, b.battery_histogram)
        assert np.array_equal(a.occupancy_se, b.occupancy_se)
        assert a.action_counts == b.action_counts

    def test_different_seeds_differ(self, testbench_params):
        policy = mixed_policy(testbench_params)
        a = run(testbench_params, policy, SimConfig(slots=20_000, seed=1))
        b = run(testbench_params, policy, SimConfig(slots=20_000, seed=2))
        assert not np.array_equal(a.battery_histogram, b.battery_histogram)

    def test_zero_harvest_empty_battery_never_acts(self, make_params):
        params = make_params(lambda_e=0.0, eta=0.0)
        policy = mixed_policy(params)
        report = run(params, policy, SimConfig(slots=50_000, seed=3))
        assert report.mu_s == 0.0
        assert report.su_tx_slots == 0
        assert report.action_counts["idle"] == 50_000
        assert report.battery_histogram[0] == 50_000
        # licensed user unaffected: empirical rate matches the solitary value
        silent = outages_at(params, TAU).pu_no_outage_silent
        assert abs(report.mu_p - silent) <= 3.0 * report.mu_p_se

    def test_histogram_sums_to_slots_and_stays_in_range(self, testbench_params):
        report = run(testbench_params, mixed_policy(testbench_params),
                     SimConfig(slots=10_000, seed=4))
        assert report.battery_histogram.sum() == 10_000
        assert report.battery_histogram.size == testbench_params.N_max + 1

    def test_idle_channel_blind_policy(self, testbench_params):
        # no licensed activity: mu_p has no samples, secondary success is
        # the access fraction times the solitary burst value
        params = with_overrides(testbench_params, rho=0.0)
        policy = Policy.constant(params, TAU, THRESHOLD, 1.0, 1.0, 0.0)
        report = run(params, policy, SimConfig(slots=100_000, seed=5))
        assert report.pu_active_slots == 0
        assert math.isnan(report.mu_p)
        ws = outages_at(params, TAU).su_no_outage_ws
        access = (report.action_counts["blind"]) / report.slots
        assert abs(report.mu_s - ws * access) <= 3.0 * report.mu_s_se

    def test_initial_battery_respected(self, testbench_params):
        with pytest.raises(ValueError):
            run(testbench_params, mixed_policy(testbench_params),
                SimConfig(slots=10, seed=1, initial_battery=99))

    def test_faithful_mode_runs(self, testbench_params):
        report = run(testbench_params, mixed_policy(testbench_params),
                     SimConfig(slots=5_000, seed=6, correlation_mode="faithful"))
        assert 0.0 <= report.mu_s <= 1.0
        assert report.battery_histogram.sum() == 5_000

    @pytest.mark.parametrize("P_p", [1e20, 1e300])
    def test_faithful_detection_past_chndtr_range(self, testbench_params, P_p):
        # the noncentral chi-square tail once computed here was NaN past a
        # noncentrality of about 1e19, which declared every licensed-busy
        # sensed slot free; detection there is certain, as it is at 1e12
        def faithful(P_p):
            params = with_overrides(testbench_params, P_p=P_p)
            policy = Policy.constant(params, TAU, THRESHOLD, 0.0, 0.0, 1.0)
            return run(params, policy,
                       SimConfig(slots=2_000, seed=3, correlation_mode="faithful"))

        huge, moderate = faithful(P_p), faithful(1e12)
        assert huge.action_counts == moderate.action_counts
        assert huge.su_tx_slots == moderate.su_tx_slots

    @pytest.mark.parametrize("P_p", [1e20, 1e300, 3e307])
    def test_faithful_detection_at_huge_snr(self, testbench_params, P_p):
        # the statistic is drawn at any noncentrality; at 3e307 the mean SNR
        # is 1.3e308, so about a quarter of the slots' SNRs are inf.  At
        # rho 1 every sensed slot is licensed-busy and must be declared so,
        # with no overflow warning
        params = with_overrides(testbench_params, P_p=P_p, rho=1.0)
        policy = Policy.constant(params, TAU, THRESHOLD, 0.0, 0.0, 1.0)
        report = run(params, policy,
                     SimConfig(slots=2_000, seed=3, correlation_mode="faithful"))
        assert report.action_counts["sense"] > 1_900
        assert report.su_tx_slots == 0

    @pytest.mark.parametrize("threshold", [15.0, THRESHOLD, 60.0])
    def test_faithful_busy_share_follows_detection_law(self, testbench_params,
                                                       threshold):
        # at rho 1 every sensed slot is licensed-busy, and a slot decides to
        # sense before its own gain is drawn, so the share of sensed slots
        # declared busy estimates the Rayleigh-averaged detection probability
        params = with_overrides(testbench_params, rho=1.0)
        policy = Policy.constant(params, TAU, threshold, 0.0, 0.0, 1.0)
        quantities = policy.validate_against(params)
        p_d = sensing.detection_avg(
            sensing.SensingConfig(threshold, quantities.m), quantities.gamma_bar)
        report = run(params, policy, SimConfig(
            slots=100_000, seed=14, correlation_mode="faithful"))
        sensed = report.action_counts["sense"]
        busy = (sensed - report.su_tx_slots) / sensed
        assert abs(busy - p_d) <= 4.0 * math.sqrt(p_d * (1.0 - p_d) / sensed)

    def test_faithful_mode_quantifies_correlation_gap(self, testbench_params):
        # sharing the licensed-link gain between sensing and harvest breaks
        # the independence the analytics assume; the z-scores measure how
        # much, without any flag requirement either way
        comparison = compare(
            testbench_params, mixed_policy(testbench_params),
            SimConfig(slots=50_000, seed=12, correlation_mode="faithful"))
        assert len(comparison.rows) == 4 + testbench_params.n_states
        assert all(math.isfinite(row.zscore) for row in comparison.rows)

    @pytest.mark.parametrize("key, value", [("b_s", 2e5), ("b_p", 1e8)])
    def test_rates_past_float_range(self, make_params, key, value):
        # 2**rate used to raise OverflowError in the outcome draw
        params = make_params(**{key: value})
        report = run(params, mixed_policy(params), SimConfig(slots=2_000, seed=8))
        assert (report.mu_s if key == "b_s" else report.mu_p) == 0.0

    def test_decorrelated_matches_analytics(self, testbench_params):
        policy = mixed_policy(testbench_params)
        analytic = evaluate(testbench_params, policy)
        report = run(testbench_params, policy, SimConfig(slots=100_000, seed=7))
        assert abs(report.mu_p - analytic.mu_p) <= 3.0 * report.mu_p_se
        assert abs(report.mu_s - analytic.mu_s) <= 3.0 * report.mu_s_se
        assert abs(report.p_sense - analytic.p_sense) <= 3.0 * report.p_sense_se
        assert abs(report.p_access - analytic.p_access) <= 3.0 * report.p_access_se
        for level in range(testbench_params.n_states):
            assert abs(report.occupancy[level]
                       - analytic.stationary.pi[level]) <= \
                3.0 * report.occupancy_se[level], level


class TestCompare:
    def test_clean_run_unflagged(self, testbench_params):
        comparison = compare(testbench_params, mixed_policy(testbench_params),
                             SimConfig(slots=100_000, seed=8))
        assert not comparison.flagged
        metrics = [row.metric for row in comparison.rows]
        assert metrics[:4] == ["mu_p", "mu_s", "p_sense", "p_access"]
        assert len(metrics) == 4 + testbench_params.n_states

    def test_detection_fault_is_flagged(self, testbench_params, monkeypatch):
        bias_detection(monkeypatch, 0.5)
        comparison = compare(testbench_params, mixed_policy(testbench_params),
                             SimConfig(slots=50_000, seed=9))
        assert comparison.flagged

    def test_single_slot_run_never_flags(self, testbench_params):
        comparison = compare(testbench_params, mixed_policy(testbench_params),
                             SimConfig(slots=1, seed=10))
        assert not comparison.flagged
        assert comparison.warnings

    def test_below_min_samples_warns_without_flags(self, testbench_params,
                                                   monkeypatch):
        bias_detection(monkeypatch, 0.2)
        comparison = compare(testbench_params, mixed_policy(testbench_params),
                             SimConfig(slots=500, seed=11))
        assert not comparison.flagged
        assert any("minimum sample" in w for w in comparison.warnings)

    def test_negative_min_samples_rejected(self, testbench_params):
        with pytest.raises(ValueError, match="min_samples must be >= 0"):
            compare(testbench_params, mixed_policy(testbench_params),
                    SimConfig(slots=100, seed=11), min_samples=-5)

    @pytest.mark.parametrize("mode, shape, warned", [
        ("faithful", "mixed", True),
        ("decorrelated", "mixed", False),
        ("faithful", "blind", False),  # never senses
    ])
    def test_faithful_sensing_comparison_warns(self, testbench_params, mode,
                                               shape, warned):
        # only a faithful run couples the sensing SNR to the RF harvest, and
        # only a policy that senses reads the coupled verdicts
        comparison = compare(testbench_params, POLICIES[shape](testbench_params),
                             SimConfig(slots=2_000, seed=13, correlation_mode=mode))
        assert sum("analytic model takes them as independent" in warning
                   for warning in comparison.warnings) == warned


def ramp_policy(params, tau=TAU, threshold=THRESHOLD) -> Policy:
    alpha_range, beta_range = action_ranges(params, tau)
    return Policy(alpha=np.linspace(0.0, 1.0, len(alpha_range)),
                  beta1=np.linspace(0.6, 0.0, len(beta_range)),
                  beta2=np.linspace(0.0, 0.4, len(beta_range)),
                  tau=tau, threshold=threshold)


POLICIES = {
    "idle": lambda params: Policy.idle(params, TAU, THRESHOLD),
    "blind": lambda params: Policy.constant(params, TAU, THRESHOLD, 1.0, 1.0, 0.0),
    "sense": lambda params: Policy.constant(params, TAU, THRESHOLD, 0.0, 0.0, 1.0),
    "mixed": mixed_policy,
    "ramp": ramp_policy,
}


def assert_reports_equal(actual, expected):
    for f in dataclasses.fields(expected):
        a, b = getattr(actual, f.name), getattr(expected, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        elif isinstance(b, float) and math.isnan(b):
            assert math.isnan(a), f.name
        else:
            assert type(a) is type(b) and a == b, (f.name, a, b)


class TestSimConfigValidation:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            SimConfig(slots=10, seed=seed)

    @pytest.mark.parametrize("field", ["slots", "initial_battery"])
    def test_rejects_non_integral_counts(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(**{"slots": 10, "seed": 0, field: 2.5})

    def test_accepts_numpy_integer_seed(self):
        assert SimConfig(slots=10, seed=np.int64(3)).seed == 3


class TestMatchesSlotBySlotReference:
    """The vectorized run equals the slot-by-slot loop on every field; in
    faithful mode the loop draws each licensed-busy slot's detector
    statistic on its own, in slot order."""

    @pytest.mark.parametrize("mode", CORRELATION_MODES)
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_policies(self, testbench_params, name, mode):
        policy = POLICIES[name](testbench_params)
        sim = SimConfig(slots=20_001, seed=31, correlation_mode=mode)
        assert_reports_equal(run(testbench_params, policy, sim),
                             reference_run(testbench_params, policy, sim))

    @pytest.mark.parametrize("mode", CORRELATION_MODES)
    @pytest.mark.parametrize("slots", [
        1, 199, 200, 20_001, 10 * simulator._WINDOW - 1, 10 * simulator._WINDOW,
        10 * simulator._WINDOW + 1])
    def test_uneven_batches(self, testbench_params, slots, mode):
        policy = ramp_policy(testbench_params)
        sim = SimConfig(slots=slots, seed=32, correlation_mode=mode)
        assert_reports_equal(run(testbench_params, policy, sim),
                             reference_run(testbench_params, policy, sim))

    @pytest.mark.parametrize("mode", CORRELATION_MODES)
    @pytest.mark.parametrize("setting", [
        {"initial_battery": 15}, {"N_max": 60}, {"rho": 0.0}, {"rho": 1.0}])
    def test_settings(self, make_params, setting, mode):
        setting = dict(setting)
        initial = setting.pop("initial_battery", 0)
        params = make_params(**setting)
        sim = SimConfig(slots=5_000, seed=33, initial_battery=initial,
                        correlation_mode=mode)
        for policy in (ramp_policy(params), mixed_policy(params)):
            assert_reports_equal(run(params, policy, sim),
                                 reference_run(params, policy, sim))

    def test_detection_fault_injection(self, testbench_params, monkeypatch):
        # the hook the fault tests bias the detectors through is transparent
        # at bias 1, so a flagged fault comes from the bias alone
        bias_detection(monkeypatch, 1.0)
        policy = mixed_policy(testbench_params)
        for mode in CORRELATION_MODES:
            sim = SimConfig(slots=3_000, seed=34, correlation_mode=mode)
            assert_reports_equal(run(testbench_params, policy, sim),
                                 reference_run(testbench_params, policy, sim))

    @given(policy_seed=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 2**63 - 1),
           slots=st.integers(1, 3_000),
           rho=st.floats(0.0, 1.0),
           threshold=st.floats(5.0, 100.0),
           initial=st.integers(0, 20),
           mode=st.sampled_from(CORRELATION_MODES))
    def test_random_polytope_policies(self, testbench_params, policy_seed,
                                      seed, slots, rho, threshold, initial,
                                      mode):
        params = with_overrides(testbench_params, rho=rho)
        policy = random_policy(np.random.default_rng(policy_seed), params,
                               TAU, threshold)
        sim = SimConfig(slots=slots, seed=seed, initial_battery=initial,
                        correlation_mode=mode)
        assert_reports_equal(run(params, policy, sim),
                             reference_run(params, policy, sim))


class TestMatchesAtEveryStepping(TestMatchesSlotBySlotReference):
    """The same cases with the battery's windowed stepping cut short or
    reshaped: no round, so the slot loop steps every slot; one round, so it
    finishes from the second window on; one-slot windows; and one window
    longer than any run here, mostly idle padding."""

    @pytest.fixture(autouse=True, params=[
        ("_ROUNDS", 0), ("_ROUNDS", 1), ("_WINDOW", 1), ("_WINDOW", 20_002)],
        ids=["no-round", "one-round", "one-slot-windows", "one-window"])
    def stepping(self, request, monkeypatch):
        monkeypatch.setattr(simulator, *request.param)


def scalar_levels(action_u, declared_busy, harvest, blind_at, sense_at, n_t,
                  n_s, n_max, initial) -> list[int]:
    """The battery recursion, one slot at a time."""
    levels, battery = [], initial
    for u, busy, gain in zip(action_u, declared_busy, harvest):
        levels.append(battery)
        if u < blind_at[battery]:
            battery -= n_t
        elif u < sense_at[battery]:
            battery -= n_s if busy else n_s + n_t
        battery = min(battery + int(gain), n_max)
    return levels


class TestBatteryLevels:
    """The windowed battery against the plain recursion on its own inputs."""

    @given(seed=st.integers(0, 2**32 - 1),
           slots=st.integers(1, 700),
           n_max=st.integers(5, 60),
           costs=st.tuples(st.integers(1, 60), st.integers(1, 60)),
           initial=st.integers(0, 60),
           probabilities=st.sampled_from([(0.0, 0.5, 1.0), (0.3, 0.7), None]),
           on_threshold=st.sampled_from([0.0, 0.3, 1.0]),
           harvest_top=st.sampled_from([0, 1, 5, 60, 10**18]))
    def test_matches_scalar_loop(self, seed, slots, n_max, costs, initial,
                                 probabilities, on_threshold, harvest_top):
        # probabilities drawn from a short list tie thresholds across levels
        # and, as beta2 = 0, sense_at with blind_at; a share of the action
        # draws sits exactly on a threshold; harvests reach the ambient cap
        rng = np.random.default_rng(seed)
        n_t, n_s = min(costs[0], n_max), costs[1]
        initial = min(initial, n_max)

        def pick(size):
            return (rng.choice(probabilities, size) if probabilities
                    else rng.random(size))

        blind_at = np.zeros(n_max + 1)
        sense_at = np.zeros(n_max + 1)
        blind_at[n_t:n_s + n_t] = pick(len(blind_at[n_t:n_s + n_t]))
        if n_s + n_t <= n_max:
            beta1, beta2 = pick(n_max + 1 - n_s - n_t), pick(n_max + 1 - n_s - n_t)
            beta2 = np.minimum(beta2, 1.0 - beta1)
            blind_at[n_s + n_t:] = beta1
            sense_at[n_s + n_t:] = beta1 + beta2
        sense_at[:n_s + n_t] = blind_at[:n_s + n_t]
        action_u = rng.random(slots)
        on = rng.random(slots) < on_threshold
        action_u[on] = rng.choice(np.concatenate([blind_at, sense_at]),
                                  np.count_nonzero(on))
        action_u = np.minimum(action_u, np.nextafter(1.0, 0.0))
        declared_busy = rng.random(slots) < 0.5
        harvest = rng.integers(0, harvest_top, slots, endpoint=True)
        inputs = (action_u, declared_busy, harvest, blind_at, sense_at, n_t,
                  n_s, n_max, initial)
        assert simulator._battery_levels(*inputs).tolist() == \
            scalar_levels(*inputs)

    def test_start_levels_that_never_merge(self, monkeypatch):
        # no harvest and always acting: a full battery drains to 2 with
        # transmissions of 3, an empty one stays at 0, so every window ends
        # off its true level until the slot loop takes over
        completions = []
        original = simulator._slot_loop

        def spy(*args):
            completions.append(args)
            return original(*args)

        monkeypatch.setattr(simulator, "_slot_loop", spy)
        n_max, n_t, n_s, slots = 20, 3, 1, 5_000
        blind_at = np.where(np.arange(n_max + 1) >= n_t, 1.0, 0.0)
        inputs = (np.random.default_rng(1).random(slots),
                  np.zeros(slots, dtype=bool), np.zeros(slots, dtype=np.int64),
                  blind_at, blind_at, n_t, n_s, n_max, 0)
        levels = simulator._battery_levels(*inputs)
        assert levels.tolist() == scalar_levels(*inputs) == [0] * slots
        assert len(completions) == 1


class TestVectorizedPieces:
    @pytest.mark.parametrize("n", [199, 200, 12_345, 20_000, 20_001])
    def test_batch_se_equals_array_split_definition(self, n):
        rng = np.random.default_rng(n)
        sticky = np.cumsum(rng.random(n) < 0.01) % 2
        for series in (rng.random(n) < 0.003, rng.random(n) < 0.4,
                       np.zeros(n, dtype=bool), sticky.astype(bool)):
            series = series.astype(np.int8)
            assert _series_se(series) == reference_batch_se(series)
        levels = np.minimum(rng.geometric(0.3, n) - 1, 6)
        histogram = np.bincount(levels, minlength=9)
        expected = [reference_batch_se((levels == k).astype(np.int8))
                    for k in range(9)]
        assert _occupancy_se(levels, histogram).tolist() == expected

    @pytest.mark.parametrize("n", [150, 20_000])
    def test_never_visited_level_gets_binomial_floor(self, n):
        levels = np.random.default_rng(5).integers(0, 3, n)
        se = _occupancy_se(levels, np.bincount(levels, minlength=5))
        smoothed = 1.0 / (n + 2.0)
        floor = math.sqrt(smoothed * (1.0 - smoothed) / n)
        assert se[3] == floor and se[4] == floor

    def test_detection_instant_still_evaluates_marcum_q(self, monkeypatch):
        calls = []
        original = sensing.marcum_q

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sensing, "marcum_q", spy)
        cfg = sensing.SensingConfig(threshold=THRESHOLD, m=10)
        assert sensing.detection_instant(cfg, 2.0) == original(*calls[0])
        assert len(calls) == 1

    def test_faithful_run_imports_nothing_from_scipy_stats(self):
        code = (
            "import sys\n"
            "import ehcr\n"
            "from ehcr.chain import Policy\n"
            "from ehcr.presets import load_preset\n"
            "from ehcr.simulator import SimConfig, run\n"
            "from ehcr.system_model import params_from_dict\n"
            "params = params_from_dict(load_preset('testbench'))\n"
            "policy = Policy.constant(params, 5e-4, 30.0, 0.0, 0.0, 1.0)\n"
            "run(params, policy, SimConfig(slots=500, seed=1,"
            " correlation_mode='faithful'))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

