import dataclasses
import math
import pickle
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ehcr import harvesting, numerics, optimizer
from ehcr.chain import (
    AmbiguousChainError,
    action_ranges,
    idle_blind_kernels,
    sense_kernels,
    transition_components,
)
from ehcr.numerics import LP_FEASIBILITY_TOL, solve_lp
from ehcr.optimizer import (
    GridPointStatus,
    GridSpec,
    InfeasibleGridError,
    _admitted,
    _cold_solve,
    _policy_iteration,
    _screen,
    _select_winner,
    optimize,
)
from ehcr.performance import FEASIBILITY_TOL, action_rewards, evaluate
from ehcr.sensing import SensingConfig, detection_avg, false_alarm
from ehcr.simulator import SimConfig, compare
from ehcr.system_model import derive, validate, with_overrides
from helpers import (
    PointGrid,
    best_random_feasible,
    column_at,
    components_at,
    deadline,
    enumerated_optimum,
    outages_at,
    point_lp,
    policy_lp,
    reference_closed_classes,
    reference_column_mdp,
    reference_policy_iteration,
    reference_search,
    sensing_config,
)
from test_numerics import (
    assert_rungs_match_linprog,
    columnwise_program,
    linprog_reference,
)
from test_performance import random_policy

FAST_GRID = GridSpec(tau_min=2e-3, lambda_count=6)
#: preset-like thresholds at the preset's tau_min: at rho 0.5 one point wins
#: outright, at rho 0.1 all 57 points tie to within solver noise
TIE_GRID = GridSpec(tau_min=5e-4, lambda_values=(30.0, 33.0, 36.0))
#: TIE_GRID's thresholds, each with a twin a billionth above it: the two
#: points of a pair tie within ``LP_FEASIBILITY_TOL``, so every certify tier
#: holds two or more points
TWIN_GRID = GridSpec(tau_min=5e-4, lambda_values=tuple(
    value * scale for value in (30.0, 33.0, 36.0) for scale in (1.0, 1.0 + 1e-9)))
#: nine sensing times, of which the battery cannot fund sensing at the last
#: four (6 to 9 ms)
BLIND_GRID = GridSpec(tau_min=1e-3, lambda_count=6)


class TestGridSpec:
    def test_tau_values_cover_the_slot(self, testbench_params):
        grid = GridSpec(tau_min=5e-4)
        taus = grid.tau_values(testbench_params)
        assert taus[0] == 5e-4
        assert len(taus) == 19
        assert taus[-1] <= testbench_params.T - 5e-4 + 1e-12

    def test_non_integral_grid_rejected(self, testbench_params):
        with pytest.raises(ValueError):
            GridSpec(tau_min=3.3e-5).tau_values(testbench_params)

    def test_oversized_grid_rejected_before_its_loop(self, testbench_params):
        # about 2e303 sensing times: their loop used to run until memory
        # was gone
        params = with_overrides(testbench_params, T=1e300)
        with deadline(5.0), pytest.raises(ValueError, match="2e\\+303 sensing"):
            GridSpec(tau_min=5e-4).tau_values(params)

    def test_grid_size_bound_is_exact(self, testbench_params, monkeypatch):
        grid = GridSpec(tau_min=5e-4)
        monkeypatch.setattr(optimizer, "_MAX_SENSING_TIMES", 19)
        assert len(grid.tau_values(testbench_params)) == 19
        monkeypatch.setattr(optimizer, "_MAX_SENSING_TIMES", 18)
        with pytest.raises(ValueError, match="gives 19 sensing times"):
            grid.tau_values(testbench_params)

    def test_lambda_grid_spans_false_alarm_extremes(self):
        grid = GridSpec(tau_min=5e-4, lambda_count=40)
        for m in (2, 10, 60):
            lambdas = grid.lambda_grid(m)
            assert len(lambdas) == 40
            pf_hi = false_alarm(SensingConfig(lambdas[0], m))
            pf_lo = false_alarm(SensingConfig(lambdas[-1], m))
            assert pf_hi == pytest.approx(0.999, abs=1e-6)
            assert pf_lo == pytest.approx(0.001, abs=1e-6)

    def test_explicit_lambda_values(self):
        grid = GridSpec(tau_min=5e-4, lambda_values=(3.0, 7.0))
        assert grid.lambda_grid(12) == (3.0, 7.0)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GridSpec(tau_min=0.0)
        with pytest.raises(ValueError):
            GridSpec(tau_min=1e-3, lambda_values=(0.0,))
        with pytest.raises(ValueError, match="^explicit lambda_values is empty$"):
            GridSpec(tau_min=1e-3, lambda_values=())
        with pytest.raises(ValueError, match="lambda_count"):
            GridSpec(tau_min=1e-3, lambda_count=True)


def solve_point(params, tau, threshold, scheme):
    """``optimize`` over the one point (tau, threshold): its solution, or
    None with the point's record when it has none."""
    try:
        return optimize(params, PointGrid(tau, threshold), scheme)[0], None
    except InfeasibleGridError as exc:
        [record] = exc.records
        return None, record


class TestSolveFixed:
    """Searches of a single (tau, threshold) point."""

    def test_round_trip_consistency(self, testbench_params):
        solution, _ = solve_point(testbench_params, 5e-4, 30.0, "probabilistic")
        assert abs(solution.lp_objective - solution.report.mu_s) <= 1e-6
        assert abs(solution.lp_mu_p - solution.report.mu_p) <= 1e-6
        assert solution.report.feasible

    @given(rho=st.floats(0.05, 0.95),
           tau_steps=st.integers(1, 19),
           threshold_at=st.floats(0.0, 1.0),
           scheme=st.sampled_from(optimizer.SCHEMES))
    def test_lp_round_trip(self, testbench_params, rho, tau_steps,
                           threshold_at, scheme):
        # the LP's rates agree with the chain-and-rates evaluation of the
        # screened policy, wherever the point is feasible
        params = with_overrides(testbench_params, rho=rho)
        grid = GridSpec(tau_min=5e-4)  # the preset's grid
        tau = grid.tau_values(params)[tau_steps - 1]
        lambdas = grid.lambda_grid(derive(params, tau).m)
        threshold = lambdas[0] * (lambdas[-1] / lambdas[0]) ** threshold_at
        solution, _ = solve_point(params, tau, threshold, scheme)
        if solution is None:
            return  # infeasible, or sensing-only cannot fund sensing here
        assert abs(solution.lp_objective - solution.report.mu_s) <= 1e-6
        assert abs(solution.lp_mu_p - solution.report.mu_p) <= 1e-6

    def test_recovered_probabilities_valid(self, testbench_params):
        solution, _ = solve_point(testbench_params, 1e-3, 25.0, "probabilistic")
        for arr in (solution.policy.alpha, solution.policy.beta1,
                    solution.policy.beta2):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
        assert np.all(solution.policy.beta1 + solution.policy.beta2 <= 1.0 + 1e-12)

    def test_unattainable_floor_is_infeasible(self, testbench_params):
        # silence already violates a floor above the solitary success value
        strict = with_overrides(testbench_params, mu_th=0.99)
        solution, record = solve_point(strict, 5e-4, 30.0, "probabilistic")
        assert solution is None and record.status == "infeasible"

    def test_sensing_only_pins_blind_probabilities(self, testbench_params):
        solution, _ = solve_point(testbench_params, 5e-4, 30.0, "sensing_only")
        assert np.all(solution.policy.alpha == 0.0)
        assert np.all(solution.policy.beta1 == 0.0)

    def test_unreachable_sensing_blind_only_lp(self, testbench_params):
        # n_s(6 ms) = 12, n_t = 10: the full-action range is empty
        tau = 6e-3
        _, beta_range = action_ranges(testbench_params, tau)
        assert len(beta_range) == 0
        solution, _ = solve_point(testbench_params, tau, 30.0, "probabilistic")
        assert solution.policy.beta1.size == 0
        assert solution.report.p_sense == 0.0
        _, record = solve_point(testbench_params, tau, 30.0, "sensing_only")
        assert record.status == "sensing_unreachable"

    def test_single_sample_detector_rejected(self, testbench_params):
        _, record = solve_point(testbench_params, 5e-5, 30.0, "probabilistic")
        assert record.status == "unsupported_m"

    def test_unknown_scheme(self, testbench_params):
        with pytest.raises(ValueError):
            solve_point(testbench_params, 5e-4, 30.0, "greedy")

    def test_unconstrained_idle_channel_dominates_random(self, testbench_params):
        # no floor, no licensed activity: nothing feasible may beat the LP
        from ehcr import harvesting
        from ehcr.sensing import detection_avg
        from ehcr.system_model import derive
        from helpers import fast_policy_value

        params = with_overrides(testbench_params, mu_th=0.0, rho=0.0)
        tau, threshold = 5e-4, 30.0
        solution, _ = solve_point(params, tau, threshold, "probabilistic")
        q = derive(params, tau)
        cfg = sensing_config(params, tau, threshold)
        p_d = detection_avg(cfg, q.gamma_bar)
        p_f = false_alarm(cfg)
        kernels = components_at(
            params, tau, *(harvesting.nature_distribution(params),
                           harvesting.combined_distribution(params)),
            p_d, p_f)
        outages = outages_at(params, tau)
        rng = np.random.default_rng(51)
        best = max(
            fast_policy_value(params, kernels, outages, p_d, p_f,
                              random_policy(rng, params))[1]
            for _ in range(1000))
        assert solution.lp_objective >= best - 1e-6
        # the winner saturates access at every level reachable in steady state
        reachable = solution.report.stationary.pi > 1e-9
        idx = np.nonzero(reachable)[0]
        policy = solution.policy
        alpha_range, beta_range = action_ranges(params, tau)
        for i in idx:
            if i >= beta_range.start:
                k = i - beta_range.start
                assert policy.beta1[k] + policy.beta2[k] == pytest.approx(
                    1.0, abs=1e-6)
            elif i >= alpha_range.start:
                assert policy.alpha[i - alpha_range.start] == pytest.approx(
                    1.0, abs=1e-6)


class TestOptimize:
    def test_single_point_grid_equals_solve_fixed(self, testbench_params):
        grid = GridSpec(tau_min=5e-3, lambda_values=(30.0,))
        taus = grid.tau_values(testbench_params)
        assert taus == (5e-3,)
        swept, records = optimize(testbench_params, grid, "probabilistic")
        assert len(records) == 1 and records[0].status == "optimal"
        assert_same_search(swept, records,
                           *reference_search(testbench_params, grid, "probabilistic"))

    def test_scheme_dominance(self, testbench_params):
        for rho in (0.2, 0.6):
            params = with_overrides(testbench_params, rho=rho)
            prob, _ = optimize(params, FAST_GRID, "probabilistic")
            sens, _ = optimize(params, FAST_GRID, "sensing_only")
            assert prob.lp_objective >= sens.lp_objective - 1e-9

    def test_constraint_respected_at_optimum(self, testbench_params):
        solution, _ = optimize(testbench_params, FAST_GRID, "probabilistic")
        assert solution.report.mu_p >= testbench_params.mu_th - 1e-6

    def test_all_points_infeasible_raises_with_statuses(self, testbench_params):
        strict = with_overrides(testbench_params, mu_th=0.99)
        with pytest.raises(InfeasibleGridError) as err:
            optimize(strict, FAST_GRID, "probabilistic")
        records = err.value.records
        assert len(records) == len(FAST_GRID.tau_values(strict)) * 6
        assert all(r.status == "infeasible" for r in records)

    def test_sensing_unreachable_points_logged(self, testbench_params):
        _, records = optimize(testbench_params, FAST_GRID, "sensing_only")
        unreachable = [r for r in records if r.status == "sensing_unreachable"]
        # tau >= 5.5 ms cannot fund sensing on the testbench battery
        assert {r.tau for r in unreachable} == {6e-3, 8e-3}

    def test_winner_selection_is_order_independent(self):
        # every (tau, lambda) grid point occurs once; ties are in objective
        rng = random.Random(5)
        candidates = [(obj, tau, lam, object())
                      for obj, tau, lam in (
                          (0.3, 1e-3, 5.0), (0.3, 1e-3, 9.0),
                          (0.3, 2e-3, 5.0), (0.1, 2e-3, 9.0),
                          (0.25, 3e-3, 5.0))]
        reference = _select_winner(list(candidates))
        assert reference is candidates[0][3]
        for _ in range(20):
            shuffled = list(candidates)
            rng.shuffle(shuffled)
            assert _select_winner(shuffled) is reference

    def test_tie_break_prefers_small_tau_then_threshold(self):
        a, b, c = object(), object(), object()
        winner = _select_winner([
            (0.5, 2e-3, 9.0, a),
            (0.5, 1e-3, 9.0, b),
            (0.5, 1e-3, 5.0, c),
        ])
        assert winner is c


def _near_best(records) -> int:
    objectives = [r.objective for r in records if r.status == "optimal"]
    return sum(o >= max(objectives) - LP_FEASIBILITY_TOL for o in objectives)


class TestWarmScreen:
    """The screen and the cold LP solves that certify its near-best points."""

    @staticmethod
    def _policy_lps(params):
        """The cold LPs of four grid points, under both schemes."""
        idle = harvesting.nature_distribution(params)
        active = harvesting.combined_distribution(params)
        for tau, threshold, scheme in ((5e-4, 33.0, "probabilistic"),
                                       (2e-3, 60.0, "probabilistic"),
                                       (1e-3, 20.0, "sensing_only"),
                                       (6e-3, 30.0, "probabilistic")):
            cfg = sensing_config(params, tau, threshold)
            quantities = derive(params, tau)
            p_d = detection_avg(cfg, quantities.gamma_bar)
            p_f = false_alarm(cfg)
            yield policy_lp(params, quantities,
                            components_at(params, tau, idle, active, p_d, p_f),
                            action_rewards(params, outages_at(params, tau), p_d, p_f),
                            scheme)

    def test_first_rung_matches_linprog_on_policy_lps(self, testbench_params):
        for lp in self._policy_lps(testbench_params):
            assert np.array_equal(solve_lp(*lp), linprog_reference(lp).x)

    def test_every_rung_matches_linprog_on_policy_lps(self, testbench_params):
        for lp in self._policy_lps(testbench_params):
            assert_rungs_match_linprog(lp)

    @pytest.mark.parametrize("grid, rho, ties", [
        (FAST_GRID, 0.1, "all"), (FAST_GRID, 0.5, "all"),
        (TIE_GRID, 0.1, "all"), (TIE_GRID, 0.5, 1)])
    def test_winner_matches_all_cold_search(self, testbench_params, grid, rho,
                                            ties):
        params = with_overrides(testbench_params, rho=rho)
        screened, records = optimize(params, grid, "probabilistic")
        cold, cold_records = reference_search(params, grid, "probabilistic")
        optimal = sum(r.status == "optimal" for r in cold_records)
        assert _near_best(cold_records) == (optimal if ties == "all" else ties)
        assert_same_search(screened, records, cold, cold_records)

    def test_solver_failure_is_logged_and_search_continues(
            self, testbench_params, monkeypatch):
        # one worker, so that the second LP is that of the second point
        monkeypatch.setattr(numerics, "_WORKERS", 1)
        fail_lps(monkeypatch, lambda i: i == 1)
        solution, records = optimize(testbench_params, FAST_GRID, "probabilistic")
        statuses = [r.status for r in records]
        assert statuses[1] == "solver_failure"
        assert statuses.count("solver_failure") == 1
        assert statuses.count("optimal") == len(records) - 1
        assert (solution.tau, solution.threshold) != (records[1].tau,
                                                      records[1].threshold)
        assert solution.report.mu_p >= testbench_params.mu_th - 1e-6

    @pytest.mark.parametrize("mu_th", [0.65, 0.72])  # slack, binding
    def test_next_tier_competes_when_the_near_best_all_fail(
            self, testbench_params, monkeypatch, mu_th):
        # at rho 0.5 the best point of TWIN_GRID ties with its twin
        # threshold; should both cold solves fail, the points within
        # LP_FEASIBILITY_TOL of the best of the rest are solved cold and one
        # of them wins
        params = with_overrides(testbench_params, rho=0.5, mu_th=mu_th)
        first, first_records = optimize(params, TWIN_GRID, "probabilistic")
        objectives = [r.objective if r.status == "optimal" else -math.inf
                      for r in first_records]
        failed = [i for i, o in enumerate(objectives)
                  if o >= max(objectives) - LP_FEASIBILITY_TOL]
        assert len(failed) == 2
        rest = [o for i, o in enumerate(objectives)
                if o > -math.inf and i not in failed]
        second_tier = sum(o >= max(rest) - LP_FEASIBILITY_TOL for o in rest)
        assert second_tier >= 2
        monkeypatch.setattr(numerics, "_WORKERS", 1)
        met = fail_lps(monkeypatch, lambda i: i < len(failed))
        solution, records = optimize(params, TWIN_GRID, "probabilistic")
        assert len(met) == len(failed) + second_tier
        assert [i for i, r in enumerate(records)
                if r.status == "solver_failure"] == failed
        assert (solution.tau, solution.threshold) != (first.tau, first.threshold)
        assert solution.lp_objective < first.lp_objective
        assert solution.lp_objective == pytest.approx(max(rest),
                                                      abs=LP_FEASIBILITY_TOL)
        assert abs(solution.report.mu_s - solution.lp_objective) <= 1e-6
        assert solution.report.mu_p >= mu_th - 1e-6


class TestColdSolves:
    """Cold solves built from column skeletons and spread over threads
    change nothing."""

    @given(rho=st.floats(0.05, 0.95), mu_th=st.floats(0.6, 0.75),
           scheme=st.sampled_from(optimizer.SCHEMES))
    @settings(max_examples=10)
    def test_batched_build_equals_point_build(self, testbench_params, rho,
                                              mu_th, scheme):
        params = with_overrides(testbench_params, rho=rho, mu_th=mu_th)
        built = []  # list.append is atomic, so the workers need no lock

        def capture(lp, method, presolve):
            built.append(lp)
            return "Infeasible", None

        for tau in FAST_GRID.tau_values(params):
            column = column_at(params, tau, FAST_GRID)
            if optimizer._unsupported(column.quantities, scheme):
                continue
            blocks = optimizer._blocks(params, column)
            idle_blind = idle_blind_kernels(params, blocks)
            sense = sense_kernels(params, blocks, column.p_d[:, None, None],
                                  column.p_f[:, None, None])
            rewards = action_rewards(params, column.outages, column.p_d,
                                     column.p_f)
            for k, (p_d, p_f) in enumerate(zip(column.p_d, column.p_f)):
                kernels = transition_components(params, blocks, p_d, p_f)
                assert np.array_equal(kernels[:2], idle_blind)
                assert np.array_equal(kernels[2], sense[k])
                assert np.array_equal(
                    action_rewards(params, column.outages, p_d, p_f), rewards[k])
            ks = [0, 2, 3, 5]
            built.clear()
            with mock.patch.object(numerics, "_WORKERS", 2), \
                    mock.patch.object(numerics, "_solve_rung", capture):
                results = _cold_solve(params, scheme, [(column, k) for k in ks])
            # the captured solves are infeasible: one such result per entry
            assert results == [("infeasible", None)] * len(ks)
            # a column that cannot fund sensing has one LP for all thresholds
            assert len(built) == (len(ks) if column.quantities.beta_range else 1)
            for k in ks:  # the workers may take the entries in any order
                want = columnwise_program(point_lp(params, column, k, scheme))
                assert any(len(lp) == len(want) == 7 and all(
                    np.asarray(got).dtype == np.asarray(expected).dtype
                    and np.array_equal(got, expected)
                    for got, expected in zip(lp, want)) for lp in built)

    @given(rho=st.floats(0.05, 0.95), mu_th=st.floats(0.6, 0.75),
           mode=st.sampled_from(["mixed", "nature", "rf"]),
           scheme=st.sampled_from(optimizer.SCHEMES),
           n_max=st.integers(5, 30), reverse=st.booleans())
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_skeleton_arrays_equal_point_lp(self, testbench_params, rho, mu_th,
                                            mode, scheme, n_max, reverse):
        # each program of a column's stack is its threshold's own dense LP:
        # array for array, element for element, of the same dtypes, in
        # either order of the thresholds, and the stack's batched solve
        # gives each its own solve's bits.  Below N_max 15 no sensing time
        # of FAST_GRID can fund sensing, at 30 every one can, and in
        # between both kinds are screened
        params = harvest_mode(with_overrides(testbench_params, rho=rho,
                                             mu_th=mu_th, N_max=n_max), mode)
        for tau in FAST_GRID.tau_values(params):
            column = column_at(params, tau, FAST_GRID)
            if optimizer._unsupported(column.quantities, scheme):
                continue
            ks = list(range(len(column.thresholds)))[::-1 if reverse else 1]
            stack = optimizer._column_lps(params, column, scheme, ks)
            solved = solve_lp(*stack)
            for i, k in enumerate(ks):
                want = point_lp(params, column, k, scheme)
                for got, expected in zip(stack, want, strict=True):
                    assert got[i].dtype == expected.dtype
                    assert np.array_equal(got[i], expected)
                x, reference = solved[i], solve_lp(*want)
                assert (x is None) == (reference is None)
                assert x is None or np.array_equal(x, reference)

    def test_tied_search_equals_point_oracle_to_the_bit(self, testbench_params):
        # every point of this cell ties, so every point is solved cold, in
        # one tier and in grid order: each cold status and value, and so the
        # winner they rank, equal the per-point oracle's exactly.  The values
        # are dot products on contiguous rows; taken on a strided row, one
        # moved in the last ulp
        params = with_overrides(testbench_params, rho=0.1)
        cold_solve, cold = optimizer._cold_solve, []

        def capture(params, scheme, entries):
            solved = cold_solve(params, scheme, entries)
            cold.extend(solved)
            return solved

        with mock.patch.object(optimizer, "_cold_solve", capture):
            solution, records = optimize(params, FAST_GRID, "probabilistic")
        reference, reference_records = reference_search(params, FAST_GRID,
                                                         "probabilistic")
        assert all(record.status == "optimal" for record in records)
        assert len(cold) == len(records) == len(reference_records)
        assert cold == [(r.status, r.objective) for r in reference_records]
        assert (solution.tau, solution.threshold) == (reference.tau,
                                                      reference.threshold)

    def test_threaded_results_keep_entry_order(self, testbench_params,
                                               monkeypatch):
        # the earlier an LP is taken up, the longer its solve sleeps, so the
        # workers finish out of order; the records must not follow them.
        # All 24 points tie, in 13 distinct LPs.
        params = with_overrides(testbench_params, rho=0.1)
        serial = search_with_workers(params, FAST_GRID, 1)
        lock, started = threading.Lock(), []
        solve_rung = numerics._solve_rung

        def slow_early(lp, method, presolve):
            with lock:
                started.append(1)
                delay = max(0.0, 0.005 * (13 - len(started)))
            time.sleep(delay)
            return solve_rung(lp, method, presolve)

        monkeypatch.setattr(numerics, "_solve_rung", slow_early)
        threaded = search_with_workers(params, FAST_GRID, 2)
        assert len(started) == 13
        assert_identical_searches(threaded, serial)

    @given(rho=st.floats(0.05, 0.95), mu_th=st.floats(0.6, 0.75),
           lambda_e=st.floats(20.0, 400.0),
           scheme=st.sampled_from(optimizer.SCHEMES))
    @settings(max_examples=10)
    def test_non_sensing_column_has_one_lp(self, testbench_params, rho, mu_th,
                                           lambda_e, scheme):
        # why the columns that cannot fund sensing share one cold solve:
        # their thresholds and sensing times differ in the detector terms
        # and the sensing cost, but no LP array does
        params = with_overrides(testbench_params, rho=rho, mu_th=mu_th,
                                lambda_e=lambda_e)
        first, costs = None, set()
        for tau in FAST_GRID.tau_values(params):
            column = column_at(params, tau, FAST_GRID)
            if column.quantities.beta_range:
                continue
            costs.add(column.quantities.n_s)
            assert len(set(column.p_d.tolist())) == len(column.thresholds)
            if first is None:
                first = point_lp(params, column, 0, scheme)
            for k in range(len(column.thresholds)):
                for got, want in zip(point_lp(params, column, k, scheme), first,
                                     strict=True):
                    assert np.array_equal(got, want)
        assert len(costs) == 2  # 6 and 8 ms, at two sensing costs

    def test_mixed_entries_share_only_the_non_sensing_solve(
            self, testbench_params, monkeypatch):
        # one call with the thresholds of a sensing and a non-sensing column
        # in shuffled order: one solve for the latter, one per entry of the
        # former, and each result the one its entry gets alone
        params = with_overrides(testbench_params, rho=0.1)
        sensing, blind = (column_at(params, tau, FAST_GRID)
                          for tau in (2e-3, 8e-3))
        assert sensing.quantities.beta_range and not blind.quantities.beta_range
        entries = [(column, k) for column in (sensing, blind)
                   for k in range(len(column.thresholds))]
        random.Random(7).shuffle(entries)
        alone = [_cold_solve(params, "probabilistic", [entry])[0]
                 for entry in entries]
        lock, solves = threading.Lock(), []
        solve_rung = numerics._solve_rung

        def counted(lp, method, presolve):
            with lock:
                solves.append(1)
            return solve_rung(lp, method, presolve)

        monkeypatch.setattr(numerics, "_WORKERS", 2)
        monkeypatch.setattr(numerics, "_solve_rung", counted)
        results = _cold_solve(params, "probabilistic", entries)
        assert len(solves) == 1 + len(sensing.thresholds)
        assert len(results) == len(entries)
        assert all(status == "optimal" and objective is not None
                   for status, objective in results)
        assert results == alone

    @given(rho=st.floats(0.05, 0.95), mu_th=st.floats(0.6, 0.75),
           lambda_e=st.floats(20.0, 400.0))
    @settings(max_examples=10, deadline=None)
    def test_search_equals_point_by_point_oracle(self, testbench_params, rho,
                                                 mu_th, lambda_e):
        # reference_search solves every point's LP on its own: each result
        # optimize solved cold is the oracle's at the entry's column and
        # threshold index, and the winners agree.  A sensing time that
        # cannot fund sensing is solved on the first such column, whose LP
        # at the same index is its own (test_non_sensing_column_has_one_lp)
        params = with_overrides(testbench_params, rho=rho, mu_th=mu_th,
                                lambda_e=lambda_e)
        cold_solve, cold = optimizer._cold_solve, []

        def capture(params, scheme, entries):
            solved = cold_solve(params, scheme, entries)
            cold.extend(GridPointStatus(column.quantities.tau,
                                        column.thresholds[k], status, objective)
                        for (column, k), (status, objective) in zip(entries, solved))
            return solved

        with mock.patch.object(optimizer, "_cold_solve", capture):
            solution, records = search_with_workers(params, FAST_GRID, 2)
        try:
            reference, reference_records = reference_search(
                params, FAST_GRID, "probabilistic")
        except InfeasibleGridError as exc:
            reference, reference_records = None, exc.records
        oracle = {(r.tau, r.threshold): r for r in reference_records}
        assert all(record == oracle[record.tau, record.threshold]
                   for record in cold)
        assert (solution is None) == (reference is None)
        if solution is None:
            assert records == reference_records
            return
        assert_same_search(solution, records, reference, reference_records)

    @pytest.mark.parametrize("grid, rho, mu_th", [
        (FAST_GRID, 0.1, 0.65),  # every point ties: all solved cold
        (TIE_GRID, 0.5, 0.72),   # one point wins, on the floor
    ])
    def test_serial_equals_threaded(self, testbench_params, grid, rho, mu_th):
        params = with_overrides(testbench_params, rho=rho, mu_th=mu_th)
        assert_identical_searches(search_with_workers(params, grid, 1),
                                  search_with_workers(params, grid, 2))

    def test_many_threads_switching_often(self, testbench_params):
        # more workers than cores, and a thread switch every microsecond: a
        # result lost or put in the wrong place changes the records
        params = with_overrides(testbench_params, rho=0.1)
        serial = search_with_workers(params, FAST_GRID, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with deadline(120.0):
                threaded = search_with_workers(params, FAST_GRID, 8)
        finally:
            sys.setswitchinterval(interval)
        assert_identical_searches(threaded, serial)

    @given(rho=st.floats(0.05, 0.95), mu_th=st.floats(0.6, 0.75),
           lambda_e=st.floats(20.0, 400.0))
    @settings(max_examples=5, deadline=None)
    def test_serial_equals_threaded_anywhere(self, testbench_params, rho,
                                             mu_th, lambda_e):
        params = with_overrides(testbench_params, rho=rho, mu_th=mu_th,
                                lambda_e=lambda_e)
        assert_identical_searches(search_with_workers(params, FAST_GRID, 1),
                                  search_with_workers(params, FAST_GRID, 2))


def search(params, grid, scheme):
    """``optimize``'s winner and records, or the records of an infeasible
    grid."""
    try:
        return optimize(params, grid, scheme)
    except InfeasibleGridError as exc:
        return None, exc.records


def search_with_workers(params, grid, workers):
    """:func:`search` of the probabilistic scheme with ``workers`` cold-solve
    threads."""
    with mock.patch.object(numerics, "_WORKERS", workers):
        return search(params, grid, "probabilistic")


def fail_lps(monkeypatch, failing) -> list:
    """Make every rung fail on the i-th LP that a first rung meets, for each
    i that ``failing`` holds true; returns the programs the first rungs
    met, in call order."""
    solve_rung, lock, met, failed = numerics._solve_rung, threading.Lock(), [], []

    def patched(lp, method, presolve):
        with lock:
            if (method, presolve) == numerics._RUNGS[0]:
                met.append(lp)
                if failing(len(met) - 1):
                    failed.append(lp)
            fails = any(lp is program for program in failed)
        return ("Unknown", None) if fails else solve_rung(lp, method, presolve)

    monkeypatch.setattr(numerics, "_solve_rung", patched)
    return met


def assert_identical_searches(got, want):
    """Two searches agree bit for bit: every record, the winner's LP values
    and its policy."""
    (solution, records), (reference, reference_records) = got, want
    assert records == reference_records
    assert (solution is None) == (reference is None)
    if solution is None:
        return
    for name in ("lp_objective", "lp_mu_p"):
        assert np.array_equal(getattr(solution, name), getattr(reference, name))
    for name in ("alpha", "beta1", "beta2"):
        assert np.array_equal(getattr(solution.policy, name),
                              getattr(reference.policy, name))


def assert_same_search(solution, records, reference, reference_records):
    """``optimize`` reproduces an all-cold search: winner, LP rates, every
    status and the evaluated rates of the winner's policy, which the search
    takes from the screen and the reference from the LP (two optimal
    policies may differ where their rates do not); screened objectives agree
    with the cold ones.  The winner carries the screen's claimed rates, so
    they agree with the cold LP's within 1e-10 (the cold LP is itself off by
    up to 2e-11)."""
    assert (solution.tau, solution.threshold) == (reference.tau, reference.threshold)
    for name in ("lp_objective", "lp_mu_p"):
        assert abs(getattr(solution, name) - getattr(reference, name)) <= 1e-10, name
    for name in ("mu_s", "mu_p"):
        assert abs(getattr(solution.report, name)
                   - getattr(reference.report, name)) <= 1e-12
    assert [r.status for r in records] == [r.status for r in reference_records]
    for record, cold in zip(records, reference_records):
        if record.status == "optimal":
            assert record.objective == pytest.approx(cold.objective, abs=1e-9)


def harvest_mode(params, mode):
    """The harvest modes of the CLI sweep: one source zeroed, or both on."""
    return with_overrides(params, **{"mixed": {}, "nature": {"eta": 0.0},
                                     "rf": {"lambda_e": 0.0}}[mode])


class TestScreenSolves:
    """One solve per distinct non-sensing system of a search, and each
    column's unconstrained pass started from its neighbour's optimum."""

    @given(rho=st.floats(0.05, 0.95), mu_th=st.floats(0.6, 0.75),
           mode=st.sampled_from(["mixed", "nature", "rf"]),
           scheme=st.sampled_from(optimizer.SCHEMES),
           n_max=st.integers(2, 60))
    def test_shared_solves_equal_per_point_solves(self, testbench_params, rho,
                                                  mu_th, mode, scheme, n_max):
        # every column of a search, warm-started as optimize starts it,
        # gives the same gains and policies bit for bit when each point's
        # policy iteration runs alone on its (3, n, n) kernels, sharing no
        # solve and valuing sensing by its stacked kernel
        params = harvest_mode(with_overrides(testbench_params, rho=rho,
                                             mu_th=mu_th, N_max=n_max), mode)
        start = None
        for tau in FAST_GRID.tau_values(params):
            column = column_at(params, tau, FAST_GRID)
            if optimizer._unsupported(column.quantities, scheme):
                continue
            screen = _screen(params, column, scheme, start)
            with mock.patch.object(optimizer, "_policy_iteration",
                                   reference_policy_iteration):
                reference = _screen(params, column, scheme, start)
            assert (screen is None) == (reference is None)
            if screen is None:
                continue
            for got, want in zip(screen, reference, strict=True):
                assert np.array_equal(got, want, equal_nan=True)
            start = screen[-1]

    @given(rho=st.floats(0.05, 0.95), mu_th=st.floats(0.6, 0.75),
           mode=st.sampled_from(["mixed", "nature", "rf"]),
           scheme=st.sampled_from(optimizer.SCHEMES),
           n_max=st.integers(2, 60))
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_never_sensing_solves_are_shared_across_columns(
            self, testbench_params, rho, mu_th, mode, scheme, n_max):
        # what lets a search solve each never-sensing system once: every
        # column has byte-identical idle and blind kernels and idle and
        # blind reward rows, at every threshold; and so the search equals,
        # bit for bit, the one whose every column is screened on its own
        # idle/blind kernels with no solution shared across columns
        params = harvest_mode(with_overrides(testbench_params, rho=rho,
                                             mu_th=mu_th, N_max=n_max), mode)
        kernels, rewards = set(), set()
        for tau in FAST_GRID.tau_values(params):
            column = column_at(params, tau, FAST_GRID)
            idle_blind = idle_blind_kernels(params,
                                            optimizer._blocks(params, column))
            kernels.add(idle_blind.tobytes())
            rewards.update(rows.tobytes() for rows in column.rewards[:, :2])
        assert len(kernels) == len(rewards) == 1
        got = search(params, FAST_GRID, scheme)
        screen = optimizer._screen

        def alone(params, column, scheme, start, kernels, never_sensing):
            return screen(params, column, scheme, start)

        with mock.patch.object(optimizer, "_screen", alone):
            want = search(params, FAST_GRID, scheme)
        assert_identical_searches(got, want)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    def test_sense_in_place_equals_sense_kernels(self, testbench_params, rho):
        # the in-place sensing expression gives sense_kernels' bits on both
        # forms the screen feeds it: block rows with (m, 1) detector terms,
        # and block products with K biases as columns and (K,) terms
        params = with_overrides(testbench_params, rho=rho)
        column = column_at(params, 2e-3, FAST_GRID)
        blocks = optimizer._blocks(params, column)[:, 2:]
        count = len(column.thresholds)
        levels = np.arange(count) * 3 % params.n_states
        rows = np.take(blocks, levels, axis=2)
        detector = column.p_d[:, None], column.p_f[:, None]
        want = sense_kernels(params, rows, *detector)
        got = optimizer._sense_in_place(params, rows.copy(), *detector)
        assert got.tobytes() == want.tobytes()
        products = blocks @ np.random.default_rng(3).standard_normal(
            (params.n_states, count))
        want = sense_kernels(params, products, column.p_d, column.p_f)
        got = optimizer._sense_in_place(params, products.copy(), column.p_d,
                                        column.p_f)
        assert got.tobytes() == want.tobytes()

    def test_failed_warm_start_reruns_from_idle(self, testbench_params,
                                                monkeypatch):
        # a warm start that fails is rerun from all-idle's first
        # improvement, so the search is the one whose every column starts
        # there
        params = with_overrides(testbench_params, rho=0.5, mu_th=0.72)
        iterate = optimizer._policy_iteration
        warm = []

        def idle_start(*args, policy=None, **kwargs):
            return iterate(*args, **kwargs)

        def failing_warm_start(*args, policy=None, **kwargs):
            if policy is not None:
                warm.append(policy)
                return None
            return iterate(*args, **kwargs)

        monkeypatch.setattr(optimizer, "_policy_iteration", idle_start)
        reference = optimize(params, FAST_GRID, "probabilistic")
        monkeypatch.setattr(optimizer, "_policy_iteration", failing_warm_start)
        got = optimize(params, FAST_GRID, "probabilistic")
        # the columns at 4 and 6 ms start warm; the one at 8 ms, which
        # cannot fund sensing either, takes the screen of 6 ms
        assert len(warm) == 2
        assert_identical_searches(got, reference)

    @given(rho=st.floats(0.05, 0.95), mu_th=st.floats(0.6, 0.75),
           lambda_e=st.floats(20.0, 400.0),
           mode=st.sampled_from(["mixed", "nature", "rf"]),
           scheme=st.sampled_from(optimizer.SCHEMES))
    @settings(max_examples=25, deadline=None)
    def test_non_sensing_columns_share_one_screen(self, testbench_params, rho,
                                                  mu_th, lambda_e, mode,
                                                  scheme):
        # each column that cannot fund sensing, built and screened on its
        # own and warm-started as optimize starts it, gives the first such
        # column's screen bit for bit, so optimize may reuse that screen
        params = harvest_mode(with_overrides(testbench_params, rho=rho,
                                             mu_th=mu_th, lambda_e=lambda_e),
                              mode)
        start, screens = None, []
        for tau in BLIND_GRID.tau_values(params):
            column = column_at(params, tau, BLIND_GRID)
            screen = _screen(params, column, scheme, start)
            if screen is None:
                break  # the all-idle chain has several closed classes
            if not column.quantities.beta_range:
                screens.append(screen)
            start = screen[-1]
        else:
            assert len(screens) == 4  # 6 to 9 ms
        for screen in screens[1:]:
            for got, want in zip(screen, screens[0], strict=True):
                assert np.array_equal(got, want, equal_nan=True)

    @given(rho=st.floats(0.05, 0.95), mu_th=st.floats(0.6, 0.75),
           lambda_e=st.floats(20.0, 400.0),
           mode=st.sampled_from(["mixed", "nature", "rf"]),
           scheme=st.sampled_from(optimizer.SCHEMES))
    @settings(max_examples=10, deadline=None)
    def test_shared_screen_equals_own_screens(self, testbench_params, rho,
                                              mu_th, lambda_e, mode, scheme):
        # a search whose every column is screened and solved cold on its own
        # (each sensing time its own model key) gives the same records,
        # winner, LP rates and policy bit for bit
        params = harvest_mode(with_overrides(testbench_params, rho=rho,
                                             mu_th=mu_th, lambda_e=lambda_e),
                              mode)
        got = search(params, BLIND_GRID, scheme)
        with mock.patch.object(optimizer, "_model_key", lambda q: q.tau):
            want = search(params, BLIND_GRID, scheme)
        assert_identical_searches(got, want)


class TestScan:
    """Each sensing time of a scenario's grid is derived, and its outages
    and detector terms evaluated, once for every rho and floor."""

    @given(rho=st.floats(0.05, 0.95), other_rho=st.floats(0.05, 0.95),
           mu_th=st.floats(0.6, 0.75), other_mu_th=st.floats(0.6, 0.75),
           lambda_e=st.floats(20.0, 400.0), eta=st.floats(0.1, 1.0),
           mode=st.sampled_from(["mixed", "nature", "rf"]),
           scheme=st.sampled_from(optimizer.SCHEMES),
           grid=st.sampled_from([FAST_GRID, BLIND_GRID]))
    @settings(max_examples=15, deadline=None)
    def test_warm_scan_equals_cold(self, testbench_params, rho, other_rho,
                                   mu_th, other_mu_th, lambda_e, eta, mode,
                                   scheme, grid):
        # a search whose scan a search at another rho and floor warmed gives
        # the cold search's records, winner, LP rates, policy and report
        params = harvest_mode(with_overrides(testbench_params, rho=rho,
                                             mu_th=mu_th, lambda_e=lambda_e,
                                             eta=eta), mode)
        harvesting._laws.cache_clear()
        optimizer._scan.cache_clear()
        cold = search(params, grid, scheme)
        harvesting._laws.cache_clear()
        optimizer._scan.cache_clear()
        search(with_overrides(params, rho=other_rho, mu_th=other_mu_th), grid,
               scheme)
        warm = search(params, grid, scheme)
        info = optimizer._scan.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert_identical_searches(warm, cold)
        assert pickle.dumps(warm) == pickle.dumps(cold)

    def test_concurrent_searches_fill_one_scan(self, testbench_params):
        # searches at several rho values, on more threads than cores and
        # with a thread switch every microsecond, fill one cold scan between
        # them, and each gives its serial result bit for bit
        cells = [with_overrides(testbench_params, rho=rho)
                 for rho in (0.3, 0.5, 0.7, 0.9)]
        serial = [search(params, FAST_GRID, "probabilistic") for params in cells]
        optimizer._scan.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(cells)) as pool:
                futures = [pool.submit(search, params, FAST_GRID, "probabilistic")
                           for params in cells]
                threaded = [future.result(timeout=120.0) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert optimizer._scan.cache_info().currsize == 1
        assert [pickle.dumps(got) for got in threaded] == [
            pickle.dumps(want) for want in serial]

    def test_scanned_detector_terms_are_read_only(self, testbench_params):
        # every search of the scenario reads the same detector arrays, and
        # per sensing time the scan holds only those (K,) arrays
        optimize(testbench_params, FAST_GRID, "probabilistic")
        scan = optimizer._scan(replace(testbench_params, rho=0.0, mu_th=0.0),
                               FAST_GRID)
        assert optimizer._scan.cache_info().hits == 1
        screened = [scanned for scanned in scan if "terms" in vars(scanned)]
        assert len(screened) == 3  # 2 to 6 ms; 8 ms takes the column of 6
        for scanned in screened:
            _, *detector = scanned.terms
            for terms in detector:
                assert terms.shape == (len(scanned.thresholds),)
                with pytest.raises(ValueError, match="read-only"):
                    terms[0] = 0.5


def assert_same_report(got, want):
    """Two reports agree field for field, the stationary law's bytes
    included."""
    for field in dataclasses.fields(want):
        if field.name == "stationary":
            assert got.stationary.pi.tobytes() == want.stationary.pi.tobytes()
        else:
            assert getattr(got, field.name) == getattr(want, field.name), field.name


class TestWinnerReport:
    """The winner is reported from the column it was screened on, exactly
    as ``evaluate`` reports its policy from scratch."""

    @given(rho=st.floats(0.05, 0.95), mu_th=st.floats(0.6, 0.75),
           lambda_e=st.floats(20.0, 400.0),
           mode=st.sampled_from(["mixed", "nature", "rf"]),
           scheme=st.sampled_from(optimizer.SCHEMES),
           grid=st.sampled_from([FAST_GRID, BLIND_GRID]))
    @settings(max_examples=20, deadline=None)
    def test_report_equals_evaluate(self, testbench_params, rho, mu_th,
                                    lambda_e, mode, scheme, grid):
        # slack and binding floors, winners that sense and that do not
        params = harvest_mode(with_overrides(testbench_params, rho=rho,
                                             mu_th=mu_th, lambda_e=lambda_e),
                              mode)
        solution, _ = search(params, grid, scheme)
        if solution is not None:
            assert_same_report(solution.report, evaluate(params, solution.policy))

    def test_winner_at_a_later_shared_sensing_time(self, testbench_params,
                                                   monkeypatch):
        # all 54 points tie at rho 0.1; taking the last candidate makes the
        # winner the last point, at the fourth sensing time that cannot fund
        # sensing, whose column is the first such one's (6 ms): its own tau
        # and threshold must reach the solution, its policy and its report
        params = with_overrides(testbench_params, rho=0.1)
        monkeypatch.setattr(optimizer, "_select_winner",
                            lambda candidates: candidates[-1][3])
        solution, records = optimize(params, BLIND_GRID, "probabilistic")
        tau = BLIND_GRID.tau_values(params)[-1]
        threshold = BLIND_GRID.lambda_grid(derive(params, tau).m)[-1]
        assert tau == pytest.approx(9e-3)
        assert threshold == pytest.approx(448.65, abs=0.01)
        assert not derive(params, tau).beta_range
        assert (solution.tau, solution.threshold) == (tau, threshold)
        assert (solution.policy.tau, solution.policy.threshold) == (tau, threshold)
        assert records[-1] == GridPointStatus(tau, threshold, "optimal",
                                              solution.lp_objective)
        assert_same_report(solution.report, evaluate(params, solution.policy))


class TestConstrainedRegime:
    """The licensed-user floor slack, binding and out of reach."""

    @pytest.mark.parametrize("rho, mu_th", [(0.5, 0.65), (0.5, 0.72)])
    def test_matches_all_cold_search(self, testbench_params, rho, mu_th):
        params = with_overrides(testbench_params, rho=rho, mu_th=mu_th)
        solution, records = optimize(params, TIE_GRID, "probabilistic")
        reference, reference_records = reference_search(params, TIE_GRID,
                                                        "probabilistic")
        assert_same_search(solution, records, reference, reference_records)

    def test_binding_winner_sits_on_the_floor(self, testbench_params):
        params = with_overrides(testbench_params, rho=0.5, mu_th=0.72)
        solution, _ = optimize(params, TIE_GRID, "probabilistic")
        assert abs(solution.lp_mu_p - params.mu_th) <= FEASIBILITY_TOL
        assert abs(solution.report.mu_p - params.mu_th) <= FEASIBILITY_TOL
        # slack at mu_th 0.65: the unconstrained optimum clears the floor
        slack, _ = optimize(with_overrides(params, mu_th=0.65), TIE_GRID,
                            "probabilistic")
        assert slack.lp_mu_p > 0.65 + 0.01
        assert slack.lp_objective > solution.lp_objective

    def test_binding_winner_dominates_random_feasible_policies(
            self, testbench_params):
        # criterion 5's check, where the floor binds
        params = with_overrides(testbench_params, rho=0.5, mu_th=0.72)
        solution, _ = optimize(params, TIE_GRID, "probabilistic")
        feasible, best = best_random_feasible(
            params, solution.tau, solution.threshold,
            np.random.default_rng(271828))
        assert feasible == 1000
        assert solution.report.mu_s >= best - 1e-6

    def test_randomized_binding_winner_matches_simulation(self, testbench_params):
        # criterion 4's slot count and first seed, on the one-level mixture
        params = with_overrides(testbench_params, rho=0.5, mu_th=0.72)
        solution, _ = optimize(params, TIE_GRID, "probabilistic")
        probabilities = np.concatenate([solution.policy.alpha,
                                        solution.policy.beta1,
                                        solution.policy.beta2])
        assert np.any((probabilities > 1e-9) & (probabilities < 1.0 - 1e-9))
        comparison = compare(params, solution.policy,
                             SimConfig(slots=100_000, seed=100))
        flagged = [(row.metric, row.zscore) for row in comparison.rows
                   if row.flagged]
        assert not flagged

    def test_infeasible_floor_matches_all_cold_search(self, testbench_params):
        params = with_overrides(testbench_params, rho=0.5, mu_th=0.99)
        with pytest.raises(InfeasibleGridError) as screened:
            optimize(params, TIE_GRID, "probabilistic")
        with pytest.raises(InfeasibleGridError) as cold:
            reference_search(params, TIE_GRID, "probabilistic")
        assert ([r.status for r in screened.value.records]
                == [r.status for r in cold.value.records])

    @given(rho=st.floats(0.05, 0.95), mu_th=st.floats(0.6, 0.75),
           scheme=st.sampled_from(optimizer.SCHEMES))
    def test_screen_equals_cold_lp(self, testbench_params, rho, mu_th, scheme):
        params = with_overrides(testbench_params, rho=rho, mu_th=mu_th)
        for tau in FAST_GRID.tau_values(params):
            column = column_at(params, tau, FAST_GRID)
            if optimizer._unsupported(column.quantities, scheme):
                continue
            screen = _screen(params, column, scheme)
            assert screen is not None
            objectives = screen[0]
            for k, objective in enumerate(objectives):
                lp = point_lp(params, column, k, scheme)
                x = solve_lp(*lp)
                if x is None:
                    assert math.isnan(objective)
                else:
                    assert objective == pytest.approx(lp[0] @ x, abs=1e-9)

    @pytest.mark.parametrize("scheme", optimizer.SCHEMES)
    @pytest.mark.parametrize("mode", [{}, {"eta": 0.0}, {"lambda_e": 0.0}],
                             ids=["mixed", "nature", "rf"])
    def test_column_mdp_equals_threshold_loop(self, testbench_params, scheme,
                                              mode):
        params = with_overrides(testbench_params, **mode)
        for tau in FAST_GRID.tau_values(params):
            column = column_at(params, tau, FAST_GRID)
            if optimizer._unsupported(column.quantities, scheme):
                continue
            blocks = optimizer._blocks(params, column)
            idle_blind = idle_blind_kernels(params, blocks)
            sense = sense_kernels(params, blocks, column.p_d[:, None, None],
                                  column.p_f[:, None, None])
            kernels, rewards, allowed = reference_column_mdp(params, column,
                                                             scheme)
            assert all(np.array_equal(idle_blind, point[:2]) for point in kernels)
            assert np.array_equal(sense, kernels[:, 2])
            assert np.array_equal(action_rewards(params, column.outages,
                                                 column.p_d, column.p_f), rewards)
            assert np.array_equal(_admitted(params, column.quantities, scheme),
                                  allowed)

    @given(rho=st.floats(0.05, 0.95), share=st.floats(0.05, 0.95),
           scheme=st.sampled_from(optimizer.SCHEMES))
    def test_winner_randomizes_only_on_the_floor(self, testbench_params, rho,
                                                 share, scheme):
        # one constraint: an optimal stationary policy randomizes at no
        # more than one state, and needs to only when the constraint binds
        # (Beutler & Ross 1985).  The floor is drawn between the
        # unconstrained winner's licensed-user rate and the highest one
        # reachable, the silent value of idling, where it mostly binds.
        free, _ = optimize(with_overrides(testbench_params, rho=rho, mu_th=0.0),
                           TIE_GRID, scheme)
        silent = outages_at(testbench_params, 5e-4).pu_no_outage_silent
        mu_th = free.lp_mu_p + share * (silent - free.lp_mu_p)
        params = with_overrides(testbench_params, rho=rho, mu_th=mu_th)
        solution, _ = optimize(params, TIE_GRID, scheme)
        policy = solution.policy
        actions = ([(a, 1.0 - a) for a in policy.alpha]
                   + [(b1, b2, 1.0 - b1 - b2)
                      for b1, b2 in zip(policy.beta1, policy.beta2)])
        randomized = sum(max(level) < 1.0 - 1e-7 for level in actions)
        binding = solution.lp_mu_p - mu_th < 1e-7
        assert randomized == (1 if binding else 0)

    @pytest.mark.parametrize("scheme, rho, mu_th", [
        ("probabilistic", 0.5, 0.72), ("probabilistic", 0.3, 0.72),
        ("probabilistic", 0.7, 0.715), ("sensing_only", 0.5, 0.724)])
    def test_lagrangian_mix_matches_cold_lp(self, testbench_params, scheme,
                                            rho, mu_th):
        # strong duality of the one-constraint MDP (Altman 1999, ch. 3):
        # bisect on the multiplier nu of mu_s + nu * mu_p until the
        # deterministic optima on either side of the floor bracket it, then
        # mix the two onto the floor
        params = with_overrides(testbench_params, rho=rho, mu_th=mu_th)
        solution, _ = optimize(params, TIE_GRID, scheme)
        assert abs(solution.lp_mu_p - mu_th) <= FEASIBILITY_TOL  # binding
        column = column_at(params, solution.tau, TIE_GRID)
        k = column.thresholds.index(solution.threshold)
        p_d, p_f = column.p_d[k], column.p_f[k]
        blocks = optimizer._blocks(params, column)
        kernels = optimizer._stacked(idle_blind_kernels(params, blocks), blocks)
        rewards = action_rewards(params, column.outages, p_d, p_f)[None]
        allowed = _admitted(params, column.quantities, scheme)

        def gains(nu):
            solved, _ = _policy_iteration(
                params, kernels, column.p_d[k:k + 1], column.p_f[k:k + 1],
                rewards, allowed, (1.0, nu))
            return solved[0]

        low, high = 0.0, 1.0
        while gains(high)[1] < mu_th:
            high *= 2.0
        for _ in range(60):
            nu = 0.5 * (low + high)
            low, high = (nu, high) if gains(nu)[1] < mu_th else (low, nu)
        (low_s, low_p), (high_s, high_p) = gains(low), gains(high)
        assert low_p < mu_th <= high_p
        share = (mu_th - low_p) / (high_p - low_p)
        assert low_s + share * (high_s - low_s) == pytest.approx(
            solution.lp_objective, abs=1e-9)

    def test_zero_harvest_grid_raises_without_an_lp(self, testbench_params,
                                                    monkeypatch):
        # no licensed activity and no ambient source: nothing is ever
        # harvested, every level is absorbing and value determination is
        # singular; the all-idle chain then has a closed class per level
        params = with_overrides(testbench_params, rho=0.0, lambda_e=0.0)
        column = column_at(params, 2e-3, FAST_GRID)
        assert _screen(params, column, "probabilistic") is None
        calls = []
        solve_rung = numerics._solve_rung

        def counted(*args):
            calls.append(1)
            return solve_rung(*args)

        monkeypatch.setattr(numerics, "_solve_rung", counted)
        with pytest.raises(AmbiguousChainError) as err:
            optimize(params, FAST_GRID, "probabilistic")
        assert len(err.value.classes) == params.n_states == 21
        assert calls == []

    def test_too_rare_a_harvest_raises_before_any_screen(
            self, testbench_params, monkeypatch):
        # an RF harvest at rho 1e-14 moves the battery up with a probability
        # below the chain's edge tolerance: the all-idle chain splits into a
        # class per level, which the search finds before it screens, where
        # it used to screen a policy whose report then raised
        params = with_overrides(testbench_params, rho=1e-14, lambda_e=0.0,
                                mu_th=0.3)
        screens = []
        monkeypatch.setattr(optimizer, "_screen",
                            lambda *args: screens.append(1))
        with pytest.raises(AmbiguousChainError) as err:
            optimize(params, TIE_GRID, "probabilistic")
        assert len(err.value.classes) == params.n_states == 21
        assert screens == []

    def test_unscreenable_column_is_logged_and_search_continues(
            self, testbench_params, monkeypatch):
        # a column whose policy iteration fails on a chain with one closed
        # class is logged point by point, and the other columns compete
        screen = optimizer._screen
        taus = FAST_GRID.tau_values(testbench_params)

        def failing_first_column(params, column, scheme, *rest):
            if column.quantities.tau == taus[0]:
                return None
            return screen(params, column, scheme, *rest)

        monkeypatch.setattr(optimizer, "_screen", failing_first_column)
        solution, records = optimize(testbench_params, FAST_GRID, "probabilistic")
        assert [r.status for r in records[:6]] == ["solver_failure"] * 6
        assert all(r.status == "optimal" for r in records[6:])
        assert solution.tau != taus[0]


@pytest.mark.parametrize("lambda_e, grid", [
    (5.0, GridSpec(tau_min=5e-4)),   # the preset grid: mu_s 0 for 6.4e-4
    (20.0, GridSpec(tau_min=5e-4)),  # the preset grid: mu_s 0 for 2.5e-3
    (1.0, GridSpec(tau_min=2e-3, lambda_count=4)),  # two closed classes
])
def test_low_harvest_winner_achieves_its_lp_objective(testbench_params,
                                                      lambda_e, grid):
    # ambient harvest only, and little of it: the top battery level is
    # reached with a vanishing probability, as a Poisson tail; a policy
    # recovered from the LP that idles there loses the LP's closed class
    params = with_overrides(testbench_params, eta=0.0, lambda_e=lambda_e)
    solution, _ = optimize(params, grid, "probabilistic")
    assert abs(solution.report.mu_s - solution.lp_objective) <= 1e-6


@given(lambda_e=st.floats(0.5, 50.0), more=st.floats(0.0, 50.0))
@settings(max_examples=8, deadline=None)
def test_low_harvest_optimum_grows_with_the_harvest(testbench_params, lambda_e,
                                                    more):
    # coupling: a battery fed by more ambient energy can take every action
    # the less fed one takes, so the best success rate cannot fall
    grid = GridSpec(tau_min=2e-3, lambda_count=4)
    less, fuller = (
        optimize(with_overrides(testbench_params, eta=0.0, lambda_e=rate), grid,
                 "probabilistic")[0].report.mu_s
        for rate in (lambda_e, lambda_e + more))
    assert fuller >= less * (1.0 - 1e-9)


#: sensing times of 0.5 to 9.5 ms, at three thresholds each; a battery of at
#: most 5 packets of ``ORACLE_PACKET`` J admits at most 162 deterministic
#: policies per grid point
ORACLE_GRID = GridSpec(5e-4, lambda_count=3)
ORACLE_PACKET = 5e-4


def log_uniform(low: float, high: float):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@given(P_p=log_uniform(0.1, 100.0), sigma_n2=log_uniform(1e-3, 1.0),
       b_p=log_uniform(20.0, 2000.0), b_s=log_uniform(20.0, 2000.0),
       e_proc=log_uniform(1e-6, 1e-3),
       lambda_e=st.one_of(st.just(0.0), log_uniform(10.0, 1000.0)),
       eta=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
       rho=st.floats(0.0, 1.0), mu_th=st.floats(0.3, 0.95),
       packets=st.integers(1, 3), n_max=st.integers(2, 5),
       scheme=st.sampled_from(optimizer.SCHEMES),
       picks=st.lists(st.integers(0, 2**16), min_size=3, max_size=3))
# a near tie in an RF-only cell whose cold LP read 3.9e-10 for 1.4e-10
@example(P_p=math.exp(0.5), sigma_n2=math.exp(-1.0), b_p=math.exp(3.0),
         b_s=math.exp(3.0), e_proc=math.exp(-10.0), lambda_e=0.0, eta=0.125,
         rho=1.19e-7, mu_th=0.5, packets=2, n_max=3, scheme="sensing_only",
         picks=[0, 1, 2])
# an RF harvest too rare to count as an edge: the all-idle chain splits
@example(P_p=4.0, sigma_n2=0.02, b_p=320.0, b_s=160.0, e_proc=1e-5,
         lambda_e=0.0, eta=0.5, rho=1e-14, mu_th=0.3, packets=2, n_max=5,
         scheme="probabilistic", picks=[0, 1, 2])
# deterministic policies whose chains have two closed classes
@example(P_p=math.exp(-2.25), sigma_n2=1.0, b_p=math.exp(3.0),
         b_s=math.exp(3.0), e_proc=math.exp(-7.0), lambda_e=0.0, eta=0.5,
         rho=1.0, mu_th=0.5, packets=2, n_max=4, scheme="probabilistic",
         picks=[0, 1, 2])
@settings(max_examples=200, derandomize=True, deadline=None)
def test_screen_matches_enumerated_policies(testbench_params, P_p, sigma_n2,
                                            b_p, b_s, e_proc, lambda_e, eta,
                                            rho, mu_th, packets, n_max, scheme,
                                            picks):
    # an oracle that rests on neither the screen nor the LP, over the domain
    # validate admits: sampled records and the winner, whose rates are the
    # screen's whether or not cold LPs ranked it
    params = with_overrides(testbench_params, P_p=P_p, sigma_n2=sigma_n2,
                            b_p=b_p, b_s=b_s, e_proc=e_proc, lambda_e=lambda_e,
                            eta=eta, rho=rho, mu_th=mu_th, E_u=ORACLE_PACKET,
                            E_t=packets * ORACLE_PACKET, N_max=n_max)
    assume(not validate(params))
    solution = None
    try:
        solution, records = optimize(params, ORACLE_GRID, scheme)
    except InfeasibleGridError as exc:
        records = exc.records
    except AmbiguousChainError as exc:
        # only an all-idle chain with several closed classes: the licensed
        # user's RF is the only source and absent, idle, too weak to fill a
        # packet or too rare to count as an edge
        column = column_at(params, ORACLE_GRID.tau_values(params)[0], ORACLE_GRID)
        idle = idle_blind_kernels(params, optimizer._blocks(params, column))[0]
        assert exc.classes == reference_closed_classes(idle)
        assert lambda_e == 0.0 and len(exc.classes) > 1
        return
    for pick in picks:
        record = records[pick % len(records)]
        if record.status == "sensing_unreachable":
            continue
        optimum = enumerated_optimum(params, record.tau, record.threshold,
                                     scheme)
        if optimum is None:
            assert record.status == "infeasible", record
        else:
            assert record.status == "optimal", record
            assert abs(record.objective - optimum) <= 1e-12, record
    if solution is not None:
        optimum = enumerated_optimum(params, solution.tau, solution.threshold,
                                     scheme)
        assert abs(solution.lp_objective - optimum) <= 1e-12
