import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehcr.chain import (
    STATIONARY_RTOL,
    AmbiguousChainError,
    Policy,
    TransitionMatrix,
    _closed_classes,
    _shifted_rows,
    action_ranges,
    stationary_distribution,
)
from ehcr.harvesting import (
    HarvestPmf,
    combined_distribution,
    nature_distribution,
    rf_distribution,
)
from ehcr.system_model import derive, with_overrides
from helpers import (
    build_transition_matrix,
    components_at,
    compose,
    random_policy,
    reference_closed_classes,
    reference_compose_transition,
    reference_shifted_rows,
)


def enumerate_kernel(n_max, n_t, n_s, rho, idle_masses, active_masses,
                     alpha, beta1, beta2, p_d, p_f):
    """Brute-force oracle: sum over (channel state, action, verdict, harvest).

    The harvest laws are given as exact finite mass arrays, so the clamp at
    the battery cap is enumerated directly instead of via tail formulas.
    """
    n = n_max + 1
    kernel = np.zeros((n, n))
    for i in range(n):
        if i >= n_t + n_s:
            k = i - (n_t + n_s)
            actions = [("idle", 1.0 - beta1[k] - beta2[k]),
                       ("blind", beta1[k]), ("sense", beta2[k])]
        elif i >= n_t:
            a = alpha[i - n_t]
            actions = [("idle", 1.0 - a), ("blind", a)]
        else:
            actions = [("idle", 1.0)]
        for pu_prob, masses, p_stop in ((1.0 - rho, idle_masses, p_f),
                                        (rho, active_masses, p_d)):
            for action, a_prob in actions:
                if a_prob == 0.0:
                    continue
                if action == "sense":
                    branches = [(n_s, p_stop), (n_s + n_t, 1.0 - p_stop)]
                else:
                    branches = [(n_t if action == "blind" else 0, 1.0)]
                for consumed, branch_prob in branches:
                    for q, mass in enumerate(masses):
                        j = min(i - consumed + q, n_max)
                        kernel[i, j] += pu_prob * a_prob * branch_prob * mass
    return kernel


def occupation_stats(params, stationary, policy):
    """(sensing probability, blind-access probability, expected sensing time)
    as the stationary shares of the level actions, as ``evaluate`` takes
    them."""
    actions = policy.level_actions(derive(params, policy.tau))
    _, p_access, p_sense = (stationary.pi * actions).sum(axis=1).tolist()
    return p_sense, p_access, p_sense * policy.tau


def toy_setup(make_params):
    # n_t = 1 (E_t = E_u), n_s = 1 at tau = 0.5 (one 0.9-J sample per 1-J packet)
    params = make_params(
        T=1.0, W=2.0, f_s=2.0, E_t=1.0, E_u=1.0, e_proc=0.9,
        N_max=2, lambda_e=1.0, rho=0.5)
    idle = HarvestPmf(np.array([0.5, 0.3, 0.2]))
    active = HarvestPmf(np.array([0.25, 0.30, 0.25, 0.20]))
    return params, idle, active


class TestBuildTransitionMatrix:
    def test_toy_chain_matches_enumeration(self, make_params):
        params, idle, active = toy_setup(make_params)
        policy = Policy(alpha=[0.5], beta1=[0.5], beta2=[0.5],
                        tau=0.5, threshold=2.0)
        tm = build_transition_matrix(params, policy, idle, active,
                                     p_d=0.9, p_f=0.1)
        oracle = enumerate_kernel(
            2, 1, 1, 0.5, idle.masses, active.masses,
            alpha=[0.5], beta1=[0.5], beta2=[0.5], p_d=0.9, p_f=0.1)
        assert np.allclose(tm.matrix, oracle, atol=1e-14)

    def test_toy_chain_random_policies_match_enumeration(self, make_params):
        params, idle, active = toy_setup(make_params)
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = rng.random()
            b1, b2 = rng.random(2)
            if b1 + b2 > 1.0:
                b1, b2 = 1.0 - b1, 1.0 - b2
            p_d, p_f = rng.random(), rng.random()
            policy = Policy(alpha=[a], beta1=[b1], beta2=[b2],
                            tau=0.5, threshold=2.0)
            tm = build_transition_matrix(params, policy, idle, active, p_d, p_f)
            oracle = enumerate_kernel(2, 1, 1, 0.5, idle.masses, active.masses,
                                      [a], [b1], [b2], p_d, p_f)
            assert np.allclose(tm.matrix, oracle, atol=1e-14)

    def test_zero_harvest_idle_policy_is_identity(self, make_params):
        params = make_params(lambda_e=0.0, eta=0.0)
        idle = nature_distribution(params)
        active = combined_distribution(params)
        policy = Policy.idle(params, tau=5e-4, threshold=2.0)
        tm = build_transition_matrix(params, policy, idle, active, 0.9, 0.1)
        assert np.allclose(tm.matrix, np.eye(params.n_states), atol=1e-15)

    def test_rows_sum_to_one_random_draws(self, make_params):
        # 200 random parameter/policy draws
        rng = np.random.default_rng(77)
        for _ in range(200):
            n_max = int(rng.integers(3, 21))
            e_t = float(rng.uniform(1.0, max(1.5, n_max / 2.0))) * 1e-4
            params = make_params(
                N_max=n_max, E_t=e_t,
                lambda_e=float(rng.uniform(0.0, 400.0)),
                rho=float(rng.uniform(0.0, 1.0)),
                eta=float(rng.uniform(0.05, 1.0)),
            )
            w = params.W
            tau = float(rng.integers(1, 20)) / w
            alpha_range, beta_range = action_ranges(params, tau)
            b1 = rng.random(len(beta_range))
            b2 = rng.random(len(beta_range))
            over = b1 + b2 > 1.0
            b1[over], b2[over] = 1.0 - b1[over], 1.0 - b2[over]
            policy = Policy(alpha=rng.random(len(alpha_range)),
                            beta1=b1, beta2=b2, tau=tau, threshold=2.0)
            tm = build_transition_matrix(
                params, policy,
                nature_distribution(params), combined_distribution(params),
                p_d=float(rng.uniform(0.3, 1.0)),
                p_f=float(rng.uniform(0.0, 0.7)))
            sums = tm.matrix.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-9
            assert np.all(tm.matrix >= 0.0)

    def test_policy_shape_validation(self, testbench_params):
        with pytest.raises(ValueError):
            Policy(alpha=[0.5, 0.5, 0.5], beta1=[0.1], beta2=[0.2],
                   tau=5e-4, threshold=2.0).validate_against(testbench_params)
        with pytest.raises(ValueError):
            Policy(alpha=[1.5], beta1=[], beta2=[], tau=5e-4, threshold=2.0)
        with pytest.raises(ValueError):
            Policy(alpha=[], beta1=[0.7], beta2=[0.7], tau=5e-4, threshold=2.0)

    @pytest.mark.parametrize("name", ["alpha", "beta1", "beta2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_policy_rejects_non_finite_entries(self, name, value):
        entries = {"alpha": [0.5], "beta1": [0.1], "beta2": [0.2]}
        entries[name] = [value]
        with pytest.raises(ValueError, match="finite"):
            Policy(**entries, tau=5e-4, threshold=2.0)

    def test_components_compose_to_full_matrix(self, testbench_params):
        params = testbench_params
        idle = nature_distribution(params)
        active = combined_distribution(params)
        rng = np.random.default_rng(13)
        kernels = components_at(params, 1e-3, idle, active, 0.95, 0.08)
        alpha_range, beta_range = action_ranges(params, 1e-3)
        for _ in range(10):
            a = rng.random(len(alpha_range))
            b1 = rng.random(len(beta_range)) * 0.5
            b2 = rng.random(len(beta_range)) * 0.5
            policy = Policy(alpha=a, beta1=b1, beta2=b2, tau=1e-3, threshold=2.0)
            direct = build_transition_matrix(params, policy, idle, active,
                                             0.95, 0.08)
            composed = reference_compose_transition(kernels, alpha_range,
                                                    beta_range, a, b1, b2)
            assert np.allclose(direct.matrix, composed, atol=1e-15)

    def test_level_actions_cover_each_range(self, testbench_params):
        params = testbench_params
        q = derive(params, 1e-3)
        policy = random_policy(np.random.default_rng(5), params, 1e-3, 2.0)
        idle, blind, sense = policy.level_actions(q)
        acting, sensing_from = q.alpha_range.start, q.beta_range.start
        assert np.array_equal(blind, np.concatenate(
            [np.zeros(acting), policy.alpha, policy.beta1]))
        assert np.array_equal(sense, np.concatenate(
            [np.zeros(sensing_from), policy.beta2]))
        assert np.array_equal(idle[:acting], np.ones(acting))
        assert np.allclose(idle + blind + sense, 1.0, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_kernel_rejects_non_finite_entries(self, entry):
        # a NaN row sum passed the sum check and surfaced as a false
        # diagnosis of two closed classes
        for kernel in (np.full((2, 2), entry), np.array([[1.0, 0.0], [entry, 0.0]])):
            with pytest.raises(ValueError, match="finite"):
                TransitionMatrix(kernel)

    @given(policy_seed=st.integers(0, 2**32 - 1),
           tau_steps=st.integers(1, 19),
           rho=st.floats(0.0, 1.0),
           p_d=st.floats(0.0, 1.0),
           p_f=st.floats(0.0, 1.0))
    def test_random_polytope_kernels(self, testbench_params, policy_seed,
                                     tau_steps, rho, p_d, p_f):
        # stochastic rows, a stationary law, and the level loop to 1e-15
        params = with_overrides(testbench_params, rho=rho)
        tau = tau_steps * 5e-4  # the preset's sensing-time grid
        policy = random_policy(np.random.default_rng(policy_seed), params, tau,
                               2.0)
        kernels = components_at(params, tau, nature_distribution(params),
                                combined_distribution(params), p_d, p_f)
        kernel = compose(params, kernels, policy)
        alpha_range, beta_range = action_ranges(params, tau)
        # einsum mixes the action kernels where the loop adds increments
        assert np.allclose(kernel, reference_compose_transition(
            kernels, alpha_range, beta_range, policy.alpha, policy.beta1,
            policy.beta2), rtol=0.0, atol=1e-15)
        assert np.all(kernel >= -1e-12)
        assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-9
        pi = stationary_distribution(TransitionMatrix(kernel)).pi
        assert np.max(np.abs(pi @ kernel - pi)) <= STATIONARY_RTOL

    @pytest.mark.parametrize("n_max", [20, 60])
    @pytest.mark.parametrize("mode", ["mixed", "nature", "rf"])
    def test_shifted_rows_equal_level_loop(self, make_params, n_max, mode):
        overrides = {"nature": {"eta": 0.0}, "rf": {"lambda_e": 0.0}}
        params = make_params(N_max=n_max, **overrides.get(mode, {}))
        n = params.n_states
        for dist in (nature_distribution(params), rf_distribution(params),
                     combined_distribution(params)):
            for consumption in range(n + 3):
                assert np.array_equal(
                    _shifted_rows(dist, consumption, n),
                    reference_shifted_rows(dist, consumption, n))


class TestStationary:
    def test_symmetric_two_state(self):
        tm = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        pi = stationary_distribution(tm).pi
        assert pi == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_hand_solved_two_state(self):
        tm = TransitionMatrix(np.array([[0.9, 0.1], [0.5, 0.5]]))
        pi = stationary_distribution(tm).pi
        assert pi == pytest.approx([5.0 / 6.0, 1.0 / 6.0], abs=1e-12)

    def test_residual_on_random_chains(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            p = rng.random((n, n)) + 1e-3
            p /= p.sum(axis=1, keepdims=True)
            tm = TransitionMatrix(p)
            pi = stationary_distribution(tm).pi
            assert np.max(np.abs(pi @ p - pi)) <= 1e-9
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pi >= 0.0)

    def test_two_absorbing_classes_rejected(self):
        tm = TransitionMatrix(np.eye(2))
        with pytest.raises(AmbiguousChainError) as err:
            stationary_distribution(tm)
        assert err.value.classes == [[0], [1]]

    def test_closed_classes_match_strong_components(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            p = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.02, 0.3))
            p[np.arange(n), rng.integers(0, n, n)] += 1.0  # no empty row
            p /= p.sum(axis=1, keepdims=True)
            assert _closed_classes(p) == reference_closed_classes(p)

    def test_unique_absorbing_state_is_found(self):
        # upward drift into the cap
        p = np.array([
            [0.2, 0.8, 0.0],
            [0.0, 0.3, 0.7],
            [0.0, 0.0, 1.0],
        ])
        pi = stationary_distribution(TransitionMatrix(p)).pi
        assert pi == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_idle_policy_battery_fills(self, testbench_params):
        # positive harvest, never draining: all mass ends at the cap
        params = testbench_params
        policy = Policy.idle(params, tau=5e-4, threshold=2.0)
        tm = build_transition_matrix(
            params, policy, nature_distribution(params),
            combined_distribution(params), 0.98, 0.02)
        pi = stationary_distribution(tm).pi
        assert pi[params.N_max] >= 0.99


class TestAccessStats:
    def test_idle_policy_all_zero(self, testbench_params):
        params = testbench_params
        policy = Policy.idle(params, tau=5e-4, threshold=2.0)
        tm = build_transition_matrix(
            params, policy, nature_distribution(params),
            combined_distribution(params), 0.98, 0.02)
        pi = stationary_distribution(tm)
        assert occupation_stats(params, pi, policy) == (0.0, 0.0, 0.0)

    def test_sense_always_collapses_to_range_mass(self, testbench_params):
        params = testbench_params
        tau = 5e-4
        policy = Policy.constant(params, tau, 2.0, alpha=0.0, beta1=0.0, beta2=1.0)
        tm = build_transition_matrix(
            params, policy, nature_distribution(params),
            combined_distribution(params), 0.98, 0.02)
        pi = stationary_distribution(tm)
        p_sense, p_access, expected_tau = occupation_stats(params, pi, policy)
        _, beta_range = action_ranges(params, tau)
        assert p_sense == pytest.approx(
            float(pi.pi[beta_range.start:].sum()), abs=1e-12)
        assert p_access == 0.0
        assert expected_tau == pytest.approx(p_sense * tau, abs=1e-15)

    def test_toy_chain_stats_match_enumeration(self, make_params):
        # stationary law of the enumerated kernel reproduces the module's
        params, idle, active = toy_setup(make_params)
        policy = Policy(alpha=[0.3], beta1=[0.2], beta2=[0.6],
                        tau=0.5, threshold=2.0)
        tm = build_transition_matrix(params, policy, idle, active, 0.9, 0.1)
        oracle = enumerate_kernel(2, 1, 1, 0.5, idle.masses, active.masses,
                                  [0.3], [0.2], [0.6], 0.9, 0.1)
        pi = stationary_distribution(tm)
        pi_oracle = stationary_distribution(TransitionMatrix(oracle))
        assert np.allclose(pi.pi, pi_oracle.pi, atol=1e-12)
        mine = occupation_stats(params, pi, policy)
        theirs = (float(pi_oracle.pi[2] * 0.6),
                  float(pi_oracle.pi[1] * 0.3 + pi_oracle.pi[2] * 0.2),
                  float(pi_oracle.pi[2] * 0.6) * 0.5)
        assert mine == pytest.approx(theirs, abs=1e-12)
