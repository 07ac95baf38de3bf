import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ehcr import chain
from ehcr.chain import (
    _EDGE_TOL,
    STATIONARY_RTOL,
    AmbiguousChainError,
    Policy,
    _closed_classes,
    _reached_in_one_step,
    action_ranges,
    harvest_blocks,
    stationary_distribution,
)
from ehcr.harvesting import (
    HarvestPmf,
    combined_distribution,
    harvest_laws,
    nature_distribution,
)
from ehcr.optimizer import GridSpec
from ehcr.system_model import derive, with_overrides
from helpers import (
    build_transition_matrix,
    components_at,
    compose,
    random_policy,
    reference_closed_classes,
    reference_compose_transition,
    reference_shifted_rows,
    reference_stationary,
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


def random_chain(rng, n, class_sizes, cap=False):
    """Random kernel over n states whose closed classes are disjoint random
    sets of the given sizes, each irreducible through a cycle over its
    members; every other state is transient, with an edge onward (to a later
    transient or into a class) so that it drains.  With ``cap`` the one
    class is the top state, absorbing, as a battery that fills and never
    spends.  Returns the kernel and its sorted closed classes."""
    order = np.append(rng.permutation(n - 1), n - 1) if cap else rng.permutation(n)
    p = np.zeros((n, n))
    start = n - sum(class_sizes)
    classes = []
    for size in class_sizes:
        members = order[start:start + size]
        start += size
        p[members, np.roll(members, 1)] = rng.uniform(0.05, 1.0, size)
        extra = rng.random((size, size)) < 0.3
        p[np.ix_(members, members)] += extra * rng.uniform(0.05, 1.0, (size, size))
        classes.append(sorted(members.tolist()))
    for k, i in enumerate(order[:n - sum(class_sizes)]):
        p[i, order[rng.integers(k + 1, n)]] += rng.uniform(0.05, 1.0)
        p[i] += (rng.random(n) < 0.3) * rng.uniform(0.05, 1.0, n)
    return p / p.sum(axis=1, keepdims=True), sorted(classes)


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
        assert np.allclose(tm, oracle, atol=1e-14)

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
            assert np.allclose(tm, oracle, atol=1e-14)

    def test_zero_harvest_idle_policy_is_identity(self, make_params):
        params = make_params(lambda_e=0.0, eta=0.0)
        idle = nature_distribution(params)
        active = combined_distribution(params)
        policy = Policy.idle(params, tau=5e-4, threshold=2.0)
        tm = build_transition_matrix(params, policy, idle, active, 0.9, 0.1)
        assert np.allclose(tm, np.eye(params.n_states), atol=1e-15)

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
            sums = tm.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-9
            assert np.all(tm >= 0.0)

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
            assert np.allclose(direct, composed, atol=1e-15)

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

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, math.inf, math.nan])
    def test_policy_rejects_bad_threshold(self, threshold):
        with pytest.raises(ValueError, match="positive and finite"):
            Policy(alpha=[0.5], beta1=[0.1], beta2=[0.2], tau=5e-4,
                   threshold=threshold)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_kernel_rejects_non_finite_entries(self, entry):
        # a NaN row sum passed the sum check and surfaced as a false
        # diagnosis of two closed classes
        for kernel in (np.full((2, 2), entry), np.array([[1.0, 0.0], [entry, 0.0]])):
            with pytest.raises(ValueError, match="finite"):
                stationary_distribution(kernel)

    @pytest.mark.parametrize("kernel, message", [
        (np.array([[1.5, -0.5], [0.5, 0.5]]), "nonnegative"),
        (np.full((2, 3), 1.0 / 3.0), "square"),
        (np.full(3, 1.0 / 3.0), "square"),
        (np.array([[0.5, 0.5], [0.5, 0.6]]), "sum to 1"),
    ])
    def test_kernel_rejects_malformed_arrays(self, kernel, message):
        with pytest.raises(ValueError, match=message):
            stationary_distribution(kernel)

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
        pi = stationary_distribution(kernel).pi
        assert np.max(np.abs(pi @ kernel - pi)) <= STATIONARY_RTOL

    @pytest.mark.parametrize("n_max", [20, 60])
    @pytest.mark.parametrize("mode", ["mixed", "nature", "rf"])
    def test_shifted_rows_equal_level_loop(self, make_params, n_max, mode):
        # the gathered blocks equal the per-level loop bit for bit, at every
        # sensing time of the preset grid
        overrides = {"nature": {"eta": 0.0}, "rf": {"lambda_e": 0.0}}
        params = make_params(N_max=n_max, **overrides.get(mode, {}))
        n = params.n_states
        laws = harvest_laws(params)
        for tau in GridSpec(tau_min=5e-4).tau_values(params):
            q = derive(params, tau)
            costs = (0, q.n_t, q.n_s, q.n_s + q.n_t)
            oracle = [[reference_shifted_rows(law, cost, n) for cost in costs]
                      for law in laws]
            assert np.array_equal(harvest_blocks(params, q, *laws), oracle)

    @given(n_max=st.integers(1, 80), n_t=st.integers(1, 80),
           n_s=st.integers(1, 100),
           lambda_e=st.one_of(st.just(0.0), st.floats(0.0, 5e4)),
           eta=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    @example(n_max=1, n_t=1, n_s=1, lambda_e=0.0, eta=0.0)  # one-count support
    @example(n_max=80, n_t=80, n_s=10**6, lambda_e=5e4, eta=1.0)  # full, n_s sentinel
    def test_gathered_rows_equal_level_loop_on_every_row(
            self, testbench_params, n_max, n_t, n_s, lambda_e, eta):
        # every row, affordable or not, at supports from one count to the
        # full 4 N_max + 1 and sensing costs up to the n_states sentinel;
        # the 10 detector samples at tau 5e-4 cost n_s packets
        e_u = testbench_params.E_u
        params = with_overrides(testbench_params, N_max=n_max,
                                E_t=min(n_t, n_max) * e_u, e_proc=n_s * e_u / 10,
                                lambda_e=lambda_e, eta=eta)
        n = params.n_states
        q = derive(params, 5e-4)
        assert q.n_s == min(n_s, n)
        laws = harvest_laws(params)
        costs = (0, q.n_t, q.n_s, q.n_s + q.n_t)
        oracle = [[reference_shifted_rows(law, cost, n) for cost in costs]
                  for law in laws]
        assert np.array_equal(harvest_blocks(params, q, *laws), oracle)
        # each law's level matrix is read-only and built once
        for law, again in zip(laws, harvest_laws(params)):
            levels = law.level_matrix(n, n + q.n_t)
            assert not levels.flags.writeable
            assert again.level_matrix(n, n + q.n_t) is levels
            assert levels.shape[0] <= n + min(n + q.n_t, law.masses.size + 1)


    @given(n_max=st.integers(2, 60), rho=st.floats(0.05, 0.95),
           seed=st.integers(0, 2**32 - 1))
    def test_sense_kernels_map_rows_and_products_as_the_stack(
            self, testbench_params, n_max, rho, seed):
        # linear in the blocks: the blocks' rows at some levels give the
        # stack's rows there bit for bit, and the blocks' products with
        # biases the stack's products to within rounding
        params = with_overrides(testbench_params, N_max=n_max, rho=rho)
        blocks = harvest_blocks(params, derive(params, 5e-4),
                                *harvest_laws(params))
        rng = np.random.default_rng(seed)
        count, n = 7, params.n_states
        p_d, p_f = rng.random(count), rng.random(count)
        stack = chain.sense_kernels(params, blocks, p_d[:, None, None],
                                    p_f[:, None, None])
        for k in range(count):
            assert np.array_equal(
                stack[k], chain.sense_kernels(params, blocks, p_d[k], p_f[k]))
        levels = rng.integers(n, size=count)
        rows = chain.sense_kernels(params, blocks[:, 2:, levels], p_d[:, None],
                                   p_f[:, None])
        assert np.array_equal(rows, stack[np.arange(count), levels])
        biases = rng.standard_normal((n, count))
        products = chain.sense_kernels(params, blocks @ biases, p_d, p_f)
        expected = np.einsum("kij,jk->ik", stack, biases)
        assert np.max(np.abs(products - expected)) <= 1e-14 * n * np.abs(
            biases).max()


class TestStationary:
    def test_symmetric_two_state(self):
        pi = stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]])).pi
        assert pi == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_hand_solved_two_state(self):
        pi = stationary_distribution(np.array([[0.9, 0.1], [0.5, 0.5]])).pi
        assert pi == pytest.approx([5.0 / 6.0, 1.0 / 6.0], abs=1e-12)

    def test_residual_on_random_chains(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            p = rng.random((n, n)) + 1e-3
            p /= p.sum(axis=1, keepdims=True)
            pi = stationary_distribution(p).pi
            assert np.max(np.abs(pi @ p - pi)) <= 1e-9
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pi >= 0.0)

    def test_two_absorbing_classes_rejected(self):
        with pytest.raises(AmbiguousChainError) as err:
            stationary_distribution(np.eye(2))
        assert err.value.classes == [[0], [1]]

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25),
           closed_size=st.integers(1, 25), cap=st.booleans())
    def test_unichain_matches_least_squares(self, seed, n, closed_size, cap):
        # transient levels and an absorbing cap included
        size = 1 if cap else min(closed_size, n)
        p, classes = random_chain(np.random.default_rng(seed), n, [size], cap)
        assert _closed_classes(p) == classes
        pi = stationary_distribution(p).pi
        assert np.max(np.abs(pi - reference_stationary(p))) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 25),
           count=st.integers(2, 4))
    def test_several_closed_classes_rejected(self, seed, n, count):
        rng = np.random.default_rng(seed)
        count = min(count, n)
        sizes = rng.multinomial(int(rng.integers(count, n + 1)) - count,
                                np.full(count, 1.0 / count)) + 1
        p, classes = random_chain(rng, n, sizes.tolist())
        with pytest.raises(AmbiguousChainError) as err:
            stationary_distribution(p)
        assert err.value.classes == classes

    def test_closed_classes_match_strong_components(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            p = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.02, 0.3))
            p[np.arange(n), rng.integers(0, n, n)] += 1.0  # no empty row
            p /= p.sum(axis=1, keepdims=True)
            assert _closed_classes(p) == reference_closed_classes(p)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25),
           count=st.integers(1, 4), joined=st.booleans(),
           near_miss=st.sampled_from([None, 0.0, 1e-15, _EDGE_TOL,
                                      2 * _EDGE_TOL]))
    def test_one_step_certificate_implies_one_closed_class(self, seed, n,
                                                           count, joined,
                                                           near_miss):
        # chains with one to four closed classes, some joined by a column
        # made positive in every row, or in all rows but one, where the
        # entry is zero or near the edge tolerance
        rng = np.random.default_rng(seed)
        count = min(count, n)
        sizes = rng.multinomial(int(rng.integers(count, n + 1)) - count,
                                np.full(count, 1.0 / count)) + 1
        p, _ = random_chain(rng, n, sizes.tolist())
        if joined:
            column = rng.integers(n)
            p[:, column] += rng.uniform(1e-3, 1.0, n)
            if near_miss is not None:
                p[rng.integers(n), column] = near_miss
            p /= p.sum(axis=1, keepdims=True)
        if _reached_in_one_step(p):
            assert len(reference_closed_classes(p)) == 1
            assert _closed_classes(p) == reference_closed_classes(p)

    def test_certified_kernel_skips_the_class_search(self, monkeypatch):
        searched = []

        def counted(p):
            searched.append(p)
            return _closed_classes(p)

        monkeypatch.setattr(chain, "_closed_classes", counted)
        certified = np.array([[0.5, 0.5, 0.0], [0.2, 0.0, 0.8], [0.9, 0.1, 0.0]])
        cycle = np.roll(np.eye(3), 1, axis=1)
        for p in (certified, cycle):
            pi = stationary_distribution(p).pi
            assert pi == pytest.approx(reference_stationary(p), abs=1e-12)
        assert len(searched) == 1 and searched[0] is cycle

    def test_unique_absorbing_state_is_found(self):
        # upward drift into the cap
        p = np.array([
            [0.2, 0.8, 0.0],
            [0.0, 0.3, 0.7],
            [0.0, 0.0, 1.0],
        ])
        pi = stationary_distribution(p).pi
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
        pi_oracle = stationary_distribution(oracle)
        assert np.allclose(pi.pi, pi_oracle.pi, atol=1e-12)
        mine = occupation_stats(params, pi, policy)
        theirs = (float(pi_oracle.pi[2] * 0.6),
                  float(pi_oracle.pi[1] * 0.3 + pi_oracle.pi[2] * 0.2),
                  float(pi_oracle.pi[2] * 0.6) * 0.5)
        assert mine == pytest.approx(theirs, abs=1e-12)
