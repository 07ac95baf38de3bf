"""Acceptance suite: every exit criterion as one test with a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The shared occupancy sweep over the behavioral
preset is computed once and reused across the optimizer criteria.
"""
import collections
import contextlib
import copy
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from ehcr import harvesting, sensing
from ehcr.chain import Policy, action_ranges, stationary_distribution
from ehcr.cli import main
from ehcr.numerics import regularized_upper_gamma_int
from ehcr.optimizer import GridSpec, InfeasibleGridError, optimize
from ehcr.performance import evaluate
from ehcr.presets import load_preset
from ehcr.simulator import SimConfig, compare, run
from ehcr.system_model import derive, params_from_dict, with_overrides

from helpers import best_random_feasible, build_transition_matrix, outages_at
from test_chain import enumerate_kernel, toy_setup
from test_sensing import detection_avg_quadrature

RHO_GRID = tuple(np.round(np.linspace(0.1, 0.9, 9), 10))
TESTBENCH_GRID = GridSpec(tau_min=5e-4, lambda_count=40)

#: the benchmark's recorded outputs; its sweep workload runs the same cells
BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


@contextlib.contextmanager
def criterion(label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label} ({time.perf_counter() - started:.1f} s)")


@pytest.fixture(scope="module")
def sweep(testbench_params):
    """Optimizations for every (rho, scheme/harvest-mode) cell, timed: the
    winners, and the grid records of each cell."""
    cells, records = {}, {}
    started = time.perf_counter()
    for rho in RHO_GRID:
        base = with_overrides(testbench_params, rho=float(rho))
        for scheme, mode, params in (
                ("probabilistic", "mixed", base),
                ("sensing_only", "mixed", base),
                ("probabilistic", "nature", with_overrides(base, eta=0.0)),
                ("probabilistic", "rf", with_overrides(base, lambda_e=0.0))):
            cells[(rho, scheme, mode)], records[(rho, scheme, mode)] = optimize(
                params, TESTBENCH_GRID, scheme)
    return cells, records, time.perf_counter() - started


def test_criterion_1_special_function_oracles():
    with criterion("criterion 1: special-function quadrature oracles"):
        started = time.perf_counter()
        for m in range(1, 11):
            for x in np.linspace(0.1, 20.0, 20):
                closed = regularized_upper_gamma_int(m, float(x))
                numeric, _ = integrate.quad(
                    lambda t: t ** (m - 1) * math.exp(-t), float(x), np.inf,
                    limit=200)
                assert abs(closed - numeric / math.gamma(m)) <= 1e-8
        gamma_bar_grid = (0.5, 5.0, 4.0 * (0.8 / 9.0) / 0.02)
        for m in (2, 3, 5, 10):
            for threshold in (0.5, 2.0, 8.0, 30.0):
                cfg = sensing.SensingConfig(threshold=threshold, m=m)
                for gamma_bar in gamma_bar_grid:
                    closed = sensing.detection_avg(cfg, gamma_bar)
                    oracle = detection_avg_quadrature(m, threshold, gamma_bar)
                    assert abs(closed - oracle) <= 1e-6, (m, threshold, gamma_bar)
        assert time.perf_counter() - started < 10.0


def test_criterion_2_outage_oracles(table1_params, testbench_params):
    with criterion("criterion 2: outage closed forms vs Monte Carlo"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        n = 1_000_000
        for params, tau in ((table1_params, 1e-4), (testbench_params, 2e-3)):
            b = outages_at(params, tau)
            power_blind = params.E_t / params.T
            power_sense = params.E_t / (params.T - tau)
            q = derive(params, tau)
            scenarios = [
                (b.pu_no_outage_silent, q.r_p, params.P_p, params.sigma_p,
                 0.0, 1.0),
                (b.pu_no_outage_ws, q.r_p, params.P_p, params.sigma_p,
                 power_blind, params.sigma_sp),
                (b.pu_no_outage_md, q.r_p, params.P_p, params.sigma_p,
                 power_sense, params.sigma_sp),
                (b.su_no_outage_ws, q.r_s_blind, power_blind, params.sigma_s,
                 0.0, 1.0),
                (b.su_no_outage_wsp, q.r_s_blind, power_blind, params.sigma_s,
                 params.P_p, params.sigma_ps),
                (b.su_no_outage_s, q.r_s_sense, power_sense, params.sigma_s,
                 0.0, 1.0),
                (b.su_no_outage_sp, q.r_s_sense, power_sense, params.sigma_s,
                 params.P_p, params.sigma_ps),
            ]
            for closed, rate, power, gain, ipower, igain in scenarios:
                desired = power * rng.exponential(gain, n)
                noise = params.sigma_n2 + ipower * rng.exponential(igain, n)
                estimate = float(np.mean(desired / noise > 2.0**rate - 1.0))
                se = math.sqrt(max(closed * (1.0 - closed), 1e-12) / n)
                assert abs(estimate - closed) <= 3.0 * se, (closed, estimate)
        assert time.perf_counter() - started < 30.0


def test_criterion_3_chain_correctness(make_params):
    with criterion("criterion 3: chain stochasticity, enumeration, residual"):
        rng = np.random.default_rng(314)
        for _ in range(200):
            n_max = int(rng.integers(3, 21))
            params = make_params(
                N_max=n_max,
                E_t=float(rng.uniform(1.0, max(1.5, n_max / 2.0))) * 1e-4,
                lambda_e=float(rng.uniform(5.0, 400.0)),
                rho=float(rng.uniform(0.0, 1.0)),
                eta=float(rng.uniform(0.05, 1.0)),
            )
            tau = float(rng.integers(1, 20)) / params.W
            alpha_range, beta_range = action_ranges(params, tau)
            b1 = rng.random(len(beta_range))
            b2 = rng.random(len(beta_range))
            over = b1 + b2 > 1.0
            b1[over], b2[over] = 1.0 - b1[over], 1.0 - b2[over]
            policy = Policy(alpha=rng.random(len(alpha_range)), beta1=b1,
                            beta2=b2, tau=tau, threshold=2.0)
            tm = build_transition_matrix(
                params, policy,
                harvesting.nature_distribution(params),
                harvesting.combined_distribution(params),
                p_d=float(rng.uniform(0.3, 1.0)),
                p_f=float(rng.uniform(0.0, 0.7)))
            assert np.max(np.abs(tm.sum(axis=1) - 1.0)) <= 1e-9
            pi = stationary_distribution(tm).pi
            assert np.max(np.abs(pi @ tm - pi)) <= 1e-9

        params, idle, active = toy_setup(make_params)
        policy = Policy(alpha=[0.5], beta1=[0.5], beta2=[0.5],
                        tau=0.5, threshold=2.0)
        tm = build_transition_matrix(params, policy, idle, active, 0.9, 0.1)
        oracle = enumerate_kernel(2, 1, 1, 0.5, idle.masses, active.masses,
                                  [0.5], [0.5], [0.5], 0.9, 0.1)
        assert np.allclose(tm, oracle, atol=1e-14)


def test_criterion_4_analytics_vs_simulation(testbench_params):
    with criterion("criterion 4: analytics vs decorrelated simulation"):
        started = time.perf_counter()
        params = testbench_params
        tau, threshold = 5e-4, 30.0
        policies = {
            "idle": (Policy.idle(params, tau, threshold), params.N_max),
            "blind": (Policy.constant(params, tau, threshold, 1.0, 1.0, 0.0), 0),
            "sense": (Policy.constant(params, tau, threshold, 0.0, 0.0, 1.0), 0),
            "mixed": (Policy.constant(params, tau, threshold, 0.5, 0.3, 0.5), 0),
            "ramp": (None, 0),
        }
        alpha_range, beta_range = action_ranges(params, tau)
        policies["ramp"] = (Policy(
            alpha=np.linspace(0.2, 0.6, len(alpha_range)),
            beta1=np.linspace(0.1, 0.4, len(beta_range)),
            beta2=np.linspace(0.5, 0.2, len(beta_range)),
            tau=tau, threshold=threshold), 0)
        for seed, (name, (policy, start)) in enumerate(policies.items(), 100):
            comparison = compare(
                params, policy,
                SimConfig(slots=100_000, seed=seed, initial_battery=start))
            bad = [row for row in comparison.rows if row.flagged]
            assert not bad, (name, [(r.metric, r.zscore) for r in bad])
        assert time.perf_counter() - started < 120.0


def test_criterion_5_optimizer_soundness(testbench_params, sweep):
    with criterion("criterion 5: optimizer soundness across the occupancy sweep"):
        cells, _, _ = sweep
        rng = np.random.default_rng(271828)
        for rho in RHO_GRID:
            params = with_overrides(testbench_params, rho=float(rho))
            solution = cells[(rho, "probabilistic", "mixed")]
            # (a) licensed-user floor holds at the optimum
            assert solution.report.mu_p >= params.mu_th - 1e-6
            # (c) LP round trip through the chain and rate formulas
            assert abs(solution.lp_objective - solution.report.mu_s) <= 1e-6
            assert abs(solution.lp_mu_p - solution.report.mu_p) <= 1e-6
            # (b) no batch of random feasible policies beats the optimum
            feasible_seen, best = best_random_feasible(
                params, solution.tau, solution.threshold, rng)
            assert feasible_seen == 1000, feasible_seen
            assert solution.report.mu_s >= best - 1e-6, (rho, best)


def test_criterion_6_trend_reproduction(sweep):
    with criterion("criterion 6: qualitative trends across the occupancy sweep"):
        cells, _, elapsed = sweep
        p_sense_curve = []
        for rho in RHO_GRID:
            prob = cells[(rho, "probabilistic", "mixed")]
            sens = cells[(rho, "sensing_only", "mixed")]
            nature = cells[(rho, "probabilistic", "nature")]
            rf = cells[(rho, "probabilistic", "rf")]
            # (a) the probabilistic scheme dominates sensing-only
            assert prob.report.mu_s >= sens.report.mu_s - 1e-9, rho
            # (b) mixed harvesting dominates either source alone
            assert prob.report.mu_s >= nature.report.mu_s - 1e-9, rho
            assert prob.report.mu_s >= rf.report.mu_s - 1e-9, rho
            # (d) the licensed-user floor holds everywhere
            assert prob.report.mu_p >= 0.65 - 1e-9, rho
            assert sens.report.mu_p >= 0.65 - 1e-9, rho
            p_sense_curve.append(prob.report.p_sense)
        # (c) sensing effort peaks strictly inside the occupancy range
        peak = int(np.argmax(p_sense_curve))
        assert 0 < peak < len(RHO_GRID) - 1, p_sense_curve
        assert p_sense_curve[peak] > p_sense_curve[0]
        assert p_sense_curve[peak] > p_sense_curve[-1]
        assert elapsed < 600.0


def test_criterion_7_degenerate_gates(testbench_params, make_params, tmp_path):
    with criterion("criterion 7: degenerate gates"):
        # a floor above the solitary success value is reported infeasible
        strict = with_overrides(testbench_params, mu_th=0.99)
        silent = outages_at(strict, 5e-4).pu_no_outage_silent
        assert strict.mu_th > silent
        with pytest.raises(InfeasibleGridError):
            optimize(strict, GridSpec(tau_min=2e-3, lambda_count=4),
                     "probabilistic")

        # zero harvest: the secondary never transmits, exactly
        dead = make_params(lambda_e=0.0, eta=0.0)
        policy = Policy.constant(dead, 5e-4, 30.0, 1.0, 1.0, 0.0)
        report = run(dead, policy, SimConfig(slots=20_000, seed=7))
        assert report.mu_s == 0.0
        assert report.su_tx_slots == 0

        # identical seeds produce byte-identical CSV
        doc = copy.deepcopy(load_preset("testbench"))
        doc["grid"] = {"tau_min": 2e-3, "lambda_count": 5}
        doc["sim"] = {"slots": 10_000, "seed": 33}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        alpha_range, beta_range = action_ranges(testbench_params, 5e-4)
        policy_doc = {
            "alpha": [0.5] * len(alpha_range),
            "beta1": [0.3] * len(beta_range),
            "beta2": [0.5] * len(beta_range),
            "tau": 5e-4,
            "lambda": 30.0,
        }
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps(policy_doc), encoding="utf-8")
        for command in (
            ["optimize", "--config", str(config), "--rho", "0.5"],
            ["sweep", "--config", str(config), "--from", "0.3", "--to", "0.7",
             "--steps", "2"],
            ["simulate", "--config", str(config), "--policy", str(policy_path),
             "--seed", "33"],
        ):
            first = tmp_path / "first.csv"
            second = tmp_path / "second.csv"
            assert main(command + ["--out", str(first)]) == 0
            assert main(command + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()


def test_sweep_matches_benchmark_reference(sweep):
    # a winner decided by last-ulp noise (whole grids tie) flips on any
    # change to the LP coefficients, so the acceptance cells are held to the
    # winners and status counts recorded for the benchmark's sweep workload
    reference = json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))["sweep"]
    cells, records, _ = sweep
    assert len(reference) == len(cells)
    for (rho, scheme, mode), solution in cells.items():
        want = reference[f"{float(rho)!r}/{scheme}/{mode}"]
        cell = (rho, scheme, mode)
        counts = collections.Counter(r.status for r in records[cell])
        assert counts == want["points"], cell
        assert math.isclose(solution.tau, want["tau_star"], rel_tol=1e-9), cell
        assert math.isclose(solution.threshold, want["lambda_star"],
                            rel_tol=1e-9), cell
        assert abs(solution.report.mu_s - want["mu_s"]) <= 1e-6, cell
        assert abs(solution.report.mu_p - want["mu_p"]) <= 1e-6, cell
