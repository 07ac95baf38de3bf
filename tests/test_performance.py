import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehcr.chain import Policy, StationaryDistribution, action_ranges
from ehcr.performance import action_rewards, evaluate
from ehcr.sensing import detection_avg, false_alarm
from ehcr.system_model import ConfigurationError, derive, with_overrides
from helpers import (
    access_stats,
    outages_at,
    primary_success_rate,
    secondary_success_rate,
    sensing_config,
)
from helpers import random_policy as _random_policy

TAU = 5e-4
THRESHOLD = 30.0


def random_policy(rng, params, tau=TAU, threshold=THRESHOLD) -> Policy:
    return _random_policy(rng, params, tau, threshold)


def pinned_stationary(params, mass_on_beta_range, tau=TAU):
    """A frozen battery law placing all mass on the full-action range."""
    _, beta_range = action_ranges(params, tau)
    pi = np.zeros(params.n_states)
    pi[beta_range.start:] = mass_on_beta_range / len(beta_range)
    return StationaryDistribution(pi)


def row_rates(params, stationary, policy, outages, p_d, p_f=0.0):
    """(mu_p, mu_s): the shared action rewards weighed by the shares of the
    level actions under a frozen battery law (``p_f`` weighs the secondary
    rate only)."""
    actions = policy.level_actions(derive(params, policy.tau))
    shares = (stationary.pi * actions).sum(axis=1)
    mu_s, mu_p = (shares @ action_rewards(params, outages, p_d, p_f)).tolist()
    return mu_p, mu_s


class TestPrimaryRate:
    def test_idle_policy_gives_silent_value(self, testbench_params):
        report = evaluate(testbench_params,
                          Policy.idle(testbench_params, TAU, THRESHOLD))
        silent = outages_at(testbench_params, TAU).pu_no_outage_silent
        assert report.mu_p == pytest.approx(silent, abs=1e-12)
        assert report.mu_s == 0.0

    def test_pure_blind_on_pinned_mass_gives_interfered_value(self, testbench_params):
        params = testbench_params
        outages = outages_at(params, TAU)
        pi = pinned_stationary(params, 1.0)
        policy = Policy.constant(params, TAU, THRESHOLD, 0.0, 1.0, 0.0)
        value, _ = row_rates(params, pi, policy, outages, p_d=0.97)
        assert value == pytest.approx(outages.pu_no_outage_ws, abs=1e-12)

    def test_idle_dominates_every_policy(self, testbench_params):
        # every access branch is weakly worse for the licensed user
        params = testbench_params
        idle_value = evaluate(params, Policy.idle(params, TAU, THRESHOLD)).mu_p
        rng = np.random.default_rng(31)
        for _ in range(500):
            policy = random_policy(rng, params)
            outages = outages_at(params, TAU)
            pi = StationaryDistribution(np.full(params.n_states,
                                                1.0 / params.n_states))
            value, _ = row_rates(params, pi, policy, outages, p_d=0.9)
            assert value <= idle_value + 1e-12

    def test_full_model_idle_dominance(self, testbench_params):
        params = testbench_params
        idle_value = evaluate(params, Policy.idle(params, TAU, THRESHOLD)).mu_p
        rng = np.random.default_rng(33)
        for _ in range(500):
            report = evaluate(params, random_policy(rng, params))
            assert report.mu_p <= idle_value + 1e-12


class TestSecondaryRate:
    def test_idle_policy_never_transmits(self, testbench_params):
        report = evaluate(testbench_params,
                          Policy.idle(testbench_params, TAU, THRESHOLD))
        assert report.mu_s == 0.0
        assert report.p_sense == 0.0
        assert report.p_access == 0.0

    def test_idle_channel_sensing_collapse(self, testbench_params):
        # no licensed activity, sense-always: only the no-false-alarm branch
        params = with_overrides(testbench_params, rho=0.0)
        policy = Policy.constant(params, TAU, THRESHOLD, 0.0, 0.0, 1.0)
        cfg = sensing_config(params, TAU, THRESHOLD)
        p_f = false_alarm(cfg)
        report = evaluate(params, policy)
        outages = outages_at(params, TAU)
        _, beta_range = action_ranges(params, TAU)
        mass = float(report.stationary.pi[beta_range.start:].sum())
        expected = (1.0 - p_f) * outages.su_no_outage_s * mass
        assert report.mu_s == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_access_probabilities_at_frozen_law(self, testbench_params):
        params = testbench_params
        outages = outages_at(params, TAU)
        pi = pinned_stationary(params, 0.8)
        rng = np.random.default_rng(37)
        cfg = sensing_config(params, TAU, THRESHOLD)
        q = derive(params, TAU)
        p_d = detection_avg(cfg, q.gamma_bar)
        p_f = false_alarm(cfg)
        for _ in range(100):
            policy = random_policy(rng, params)
            _, base = row_rates(params, pi, policy, outages, p_d, p_f)
            bumped_vectors = []
            for name in ("alpha", "beta1", "beta2"):
                arr = getattr(policy, name).copy()
                if arr.size == 0:
                    continue
                k = int(rng.integers(arr.size))
                if name == "alpha":
                    arr[k] = min(1.0, arr[k] + 0.1)
                    bumped_vectors.append(Policy(arr, policy.beta1, policy.beta2,
                                                 TAU, THRESHOLD))
                elif name == "beta1":
                    room = 1.0 - policy.beta1[k] - policy.beta2[k]
                    arr[k] += min(0.1, room)
                    bumped_vectors.append(Policy(policy.alpha, arr, policy.beta2,
                                                 TAU, THRESHOLD))
                else:
                    room = 1.0 - policy.beta1[k] - policy.beta2[k]
                    arr[k] += min(0.1, room)
                    bumped_vectors.append(Policy(policy.alpha, policy.beta1, arr,
                                                 TAU, THRESHOLD))
            for bumped in bumped_vectors:
                _, value = row_rates(params, pi, bumped, outages, p_d, p_f)
                assert value >= base - 1e-12


class TestReport:
    def test_feasibility_flag(self, testbench_params):
        params = testbench_params
        report = evaluate(params, Policy.idle(params, TAU, THRESHOLD))
        assert report.feasible  # silent value 0.728 over the 0.65 floor
        strict = with_overrides(params, mu_th=0.99)
        report = evaluate(strict, Policy.idle(strict, TAU, THRESHOLD))
        assert not report.feasible

    def test_time_bandwidth_product_of_one(self, testbench_params):
        # tau = 5e-5 gives m = 1, where averaged detection is undefined: a
        # blind-only policy never weighs it, a sensing policy is refused
        tau = 5e-5
        assert derive(testbench_params, tau).m == 1
        blind = Policy.constant(testbench_params, tau, 3.0, 0.5, 0.5, 0.0)
        report = evaluate(testbench_params, blind)
        assert report.mu_s == pytest.approx(0.0425, abs=1e-4)
        assert report.mu_p == pytest.approx(0.7134, abs=1e-4)
        assert report.p_sense == 0.0
        sensed = Policy.constant(testbench_params, tau, 3.0, 0.5, 0.3, 0.5)
        with pytest.raises(ConfigurationError, match="at least 2"):
            evaluate(testbench_params, sensed)

    def test_rates_in_unit_interval(self, testbench_params):
        rng = np.random.default_rng(41)
        for _ in range(20):
            report = evaluate(testbench_params,
                              random_policy(rng, testbench_params))
            assert 0.0 <= report.mu_p <= 1.0
            assert 0.0 <= report.mu_s <= 1.0
            assert 0.0 <= report.p_sense <= 1.0
            assert 0.0 <= report.p_access <= 1.0


class TestRateRows:
    """The action rewards shared with the policy LP against the per-level
    loops."""

    @given(policy_seed=st.integers(0, 2**32 - 1),
           tau_steps=st.integers(1, 19),
           rho=st.floats(0.0, 1.0),
           p_d=st.floats(0.0, 1.0),
           p_f=st.floats(0.0, 1.0))
    def test_rows_match_loop_oracles_on_any_law(self, testbench_params,
                                                policy_seed, tau_steps, rho,
                                                p_d, p_f):
        params = with_overrides(testbench_params, rho=rho)
        tau = tau_steps * TAU  # the preset's sensing-time grid
        rng = np.random.default_rng(policy_seed)
        policy = random_policy(rng, params, tau)
        pi = StationaryDistribution(rng.dirichlet(np.full(params.n_states, 0.3)))
        outages = outages_at(params, tau)
        mu_p, mu_s = row_rates(params, pi, policy, outages, p_d, p_f)
        assert mu_p == pytest.approx(
            primary_success_rate(params, pi, policy, outages, p_d), abs=1e-12)
        assert mu_s == pytest.approx(
            secondary_success_rate(params, pi, policy, outages, p_d, p_f),
            abs=1e-12)

    @given(policy_seed=st.integers(0, 2**32 - 1),
           tau_steps=st.integers(1, 19),
           rho=st.floats(0.0, 1.0),
           threshold=st.floats(5.0, 100.0))
    def test_evaluate_matches_loop_oracles(self, testbench_params, policy_seed,
                                           tau_steps, rho, threshold):
        params = with_overrides(testbench_params, rho=rho)
        tau = tau_steps * TAU
        policy = random_policy(np.random.default_rng(policy_seed), params, tau,
                               threshold)
        report = evaluate(params, policy)
        cfg = sensing_config(params, tau, threshold)
        q = derive(params, tau)
        p_d = detection_avg(cfg, q.gamma_bar)
        p_f = false_alarm(cfg)
        outages = outages_at(params, tau)
        pi = report.stationary
        assert report.mu_p == pytest.approx(
            primary_success_rate(params, pi, policy, outages, p_d), abs=1e-12)
        assert report.mu_s == pytest.approx(
            secondary_success_rate(params, pi, policy, outages, p_d, p_f),
            abs=1e-12)
        assert (report.p_sense, report.p_access, report.expected_sensing_time
                ) == pytest.approx(access_stats(params, pi, policy), abs=1e-12)
