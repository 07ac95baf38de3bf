"""Each sensing time is derived once and its per-tau model built once.

Counts the calls of the per-tau builders made by ``optimize``, ``evaluate``,
``run`` and ``compare`` and pins them: one ``derive`` per grid sensing
time, one outage bundle and one set of kernel blocks per screened column;
the winner is reported from the column it was screened on, with no call of
its own.  The sensing times that cannot fund sensing share the first one's
column and screen.  The harvest laws depend on neither rho, the sensing
time, the detector nor the policy, so a scenario builds its ambient law
once: its searches share it, and so do evaluations of any policies at any
rho.  Nor do the sensing times, or the outages and detector terms of the
screened ones, read rho or the floor, so the searches of a rho sweep derive
each sensing time and evaluate each screened column's terms once, while
each search builds its own kernel blocks (the memos are cleared before each
test).  The detector is evaluated once per screened column, over all its
thresholds, and once per simulation and per evaluation of a policy that
senses; no policy iteration runs on an empty batch.  The LP solves of
``optimize`` are pinned too: its screen needs none, so only the points
within ``LP_FEASIBILITY_TOL`` of the best are solved, each distinct LP
once: all points of the sensing times that cannot fund sensing share one
LP.  The simulator draws its faithful detections from the noncentral
chi-square law, so neither a run nor a comparison, in either correlation
mode, evaluates Marcum Q; a faithful run takes that tail at about two SNRs
per square root of its licensed-busy slots, not at each of them.  An
evaluation solves its chain with one LU solve and no least squares.  Cold
solves run on worker threads, so the counts are kept under a lock; a cell
that solves one distinct LP starts no thread, and each LP is built once, by
the worker that solves it.
"""
import collections
import contextlib
import sys
import threading

import numpy as np
import pytest

from ehcr import (chain, harvesting, numerics, optimizer, outage, sensing,
                  simulator, system_model)
from ehcr.chain import AmbiguousChainError, Policy
from ehcr.optimizer import InfeasibleGridError, optimize
from ehcr.performance import evaluate
from ehcr.simulator import SimConfig, compare, run
from ehcr.system_model import with_overrides
from helpers import column_at
from test_optimizer import FAST_GRID, TIE_GRID

COUNTED = {
    "derive": system_model.derive,
    "bundle": outage.bundle,
    "harvest_blocks": chain.harvest_blocks,
    "nature_distribution": harvesting.nature_distribution,
    "solve_lp": numerics.solve_lp,
    "detection_avg": sensing.detection_avg,
    "false_alarm": sensing.false_alarm,
    "marcum_q": numerics.marcum_q,
    "detection_instant": sensing.detection_instant,
}


@pytest.fixture
def setting(testbench_params):
    params = with_overrides(testbench_params, rho=0.5)
    return params, Policy.constant(params, 5e-4, 30.0, 0.5, 0.3, 0.5)


@pytest.fixture
def calls(monkeypatch, setting):
    """Call counts of the COUNTED functions, wherever ``ehcr`` binds them,
    from after the setting is built (the memos start cold)."""
    counts = collections.Counter()
    lock = threading.Lock()

    def counting(name, original):
        def counted(*args, **kwargs):
            with lock:
                counts[name] += 1
            return original(*args, **kwargs)
        return counted

    modules = [module for key, module in list(sys.modules.items())
               if key == "ehcr" or key.startswith("ehcr.")]
    for name, original in COUNTED.items():
        wrapper = counting(name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return counts


def test_optimize_builds_each_column_once(calls, setting):
    params, _ = setting
    taus = FAST_GRID.tau_values(params)  # 4 sensing times, all usable
    # at rho 0.5 every FAST_GRID point ties, so each distinct LP is solved
    # cold: each point of a column that can fund sensing, and one LP for
    # the two columns that cannot (6 and 8 ms), which share the column of
    # 6 ms; the cold solves and the winner's report read their column
    sensing = sum(bool(system_model.derive(params, tau).beta_range)
                  for tau in taus)
    assert sensing == 2
    calls.clear()
    solution, _ = optimize(params, FAST_GRID, "probabilistic")
    built = sensing + 1  # and the shared column
    # the winner's report reads its screened column, so it derives no
    # sensing time and evaluates no detector term of its own (its policy
    # never senses here; the rho sweep below has winners that do)
    assert not np.any(solution.policy.beta2 > 0)
    assert calls == {"derive": len(taus), "bundle": built,
                     "harvest_blocks": built, "nature_distribution": 1,
                     "solve_lp": 6 * sensing + 1, "detection_avg": built,
                     "false_alarm": built}


def test_preset_grid_screens_eleven_columns(calls, monkeypatch, setting):
    # the preset grid has 19 sensing times, and the battery cannot fund
    # sensing at the last nine (m 110 to 190): the ten others and the
    # first of those nine are screened, each with its own detector call,
    # outage bundle and kernel blocks, and the winner adds none
    params, _ = setting
    grid = optimizer.GridSpec(tau_min=5e-4)
    taus = grid.tau_values(params)
    assert sum(not system_model.derive(params, tau).beta_range
               for tau in taus) == 9
    screen, screened = optimizer._screen, []

    def counted(params, column, scheme, start):
        screened.append(column.quantities.m)
        return screen(params, column, scheme, start)

    monkeypatch.setattr(optimizer, "_screen", counted)
    calls.clear()
    optimize(params, grid, "probabilistic")
    assert screened == list(range(10, 120, 10))
    assert calls["derive"] == len(taus)
    for name in ("detection_avg", "bundle", "harvest_blocks"):
        assert calls[name] == len(screened)


def test_rho_sweep_scans_each_sensing_time_once(calls, testbench_params):
    # neither the sensing times, nor their outages and detector terms read
    # rho or the floor, so a sweep over nine rho values at two floors
    # derives each sensing time and evaluates each screened column once; the
    # kernel blocks are built by each search, and no winner adds a call,
    # whether its policy senses (half of them do) or not
    taus = FAST_GRID.tau_values(testbench_params)
    screened = 3  # 2 and 4 ms, and 6 ms, whose column 8 ms takes
    solutions = [optimize(with_overrides(testbench_params, rho=rho, mu_th=mu_th),
                          FAST_GRID, "probabilistic")[0]
                 for rho in np.linspace(0.1, 0.9, 9) for mu_th in (0.65, 0.72)]
    winners = len(solutions)
    sensing = sum(bool(np.any(solution.policy.beta2 > 0))
                  for solution in solutions)
    assert sensing == winners // 2
    assert calls["derive"] == len(taus)
    assert calls["bundle"] == calls["false_alarm"] == screened
    assert calls["detection_avg"] == screened
    assert calls["harvest_blocks"] == winners * screened
    assert calls["nature_distribution"] == 1


@pytest.mark.parametrize("rho, mu_th", [(0.5, 0.65), (0.5, 0.72), (0.1, 0.65),
                                        (0.5, 0.99)])
def test_no_policy_iteration_gets_an_empty_batch(monkeypatch, testbench_params,
                                                 rho, mu_th):
    # slack, binding, tied and unreachable floors
    params = with_overrides(testbench_params, rho=rho, mu_th=mu_th)
    iterate, batches = optimizer._policy_iteration, []

    def counted(idle_blind, sense, *rest, **kwargs):
        batches.append(len(sense))
        return iterate(idle_blind, sense, *rest, **kwargs)

    monkeypatch.setattr(optimizer, "_policy_iteration", counted)
    with contextlib.suppress(InfeasibleGridError):
        optimize(params, FAST_GRID, "probabilistic")
    assert batches and min(batches) >= 1


@pytest.mark.parametrize("grid, rho, mu_th, solves", [
    (TIE_GRID, 0.5, 0.65, 1),   # slack floor, one point wins outright
    (TIE_GRID, 0.5, 0.72, 1),   # the floor binds at the winner
    (TIE_GRID, 0.5, 0.99, 0),   # no point is feasible
    (FAST_GRID, 0.1, 0.65, 13),  # all points tie: one solve per distinct LP
])
def test_optimize_solves_only_near_best_points(calls, testbench_params, grid,
                                               rho, mu_th, solves):
    params = with_overrides(testbench_params, rho=rho, mu_th=mu_th)
    with contextlib.suppress(InfeasibleGridError):
        optimize(params, grid, "probabilistic")
    assert calls["solve_lp"] == solves


@pytest.fixture
def pools(monkeypatch):
    """Thread pools the optimizer constructs, with two cold-solve workers
    whatever the CPU count."""
    made = []

    class CountedPool(optimizer.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_WORKERS", 2)
    monkeypatch.setattr(optimizer, "ThreadPoolExecutor", CountedPool)
    return made


def test_untied_cell_starts_no_thread(calls, pools, testbench_params):
    params = with_overrides(testbench_params, rho=0.5)
    optimize(params, TIE_GRID, "probabilistic")
    assert calls["solve_lp"] == 1
    assert pools == []


def test_tied_cell_solves_each_distinct_lp_once_on_threads(calls, pools,
                                                           testbench_params):
    # 12 points at the two sensing times that can fund sensing, and one LP
    # for the 12 points of the two that cannot
    params = with_overrides(testbench_params, rho=0.1)
    _, records = optimize(params, FAST_GRID, "probabilistic")
    assert len(records) == 24
    assert calls["solve_lp"] == 13
    assert pools == [(2,)]


def test_tied_cell_builds_one_lp_per_solve(calls, pools, monkeypatch,
                                           testbench_params):
    built = []  # list.append is atomic, so the workers need no lock
    build = optimizer._build_lp

    def counted(*args):
        built.append(1)
        return build(*args)

    monkeypatch.setattr(optimizer, "_build_lp", counted)
    optimize(with_overrides(testbench_params, rho=0.1), FAST_GRID,
             "probabilistic")
    assert len(built) == calls["solve_lp"] == 13
    assert pools == [(2,)]


def test_tied_cell_solves_one_non_sensing_system_per_step(monkeypatch,
                                                          testbench_params):
    # a policy that never senses selects only the threshold-free idle and
    # blind rows, so each policy-iteration step of a column solves at most
    # one such system for all its thresholds
    params = with_overrides(testbench_params, rho=0.1)
    free_rows = set()  # (level, row) of the columns' idle and blind systems
    for tau in FAST_GRID.tau_values(params):
        column = column_at(params, tau, FAST_GRID)
        kernels, _ = optimizer._point_model(params, column, 0)
        for system in chain._bordered(kernels[:2]):
            free_rows.update(enumerate(row.tobytes() for row in system))
    batches = []
    solve = np.linalg.solve

    def recording(a, b):
        if a.ndim == 3:  # the screen's batches, not the winner's report
            batches.append(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    optimize(params, FAST_GRID, "probabilistic")
    non_sensing = [sum(all((level, row.tobytes()) in free_rows
                           for level, row in enumerate(system))
                       for system in batch)
                   for batch in batches]
    assert max(non_sensing) == 1


def test_zero_harvest_grid_solves_no_lp(calls, pools, testbench_params):
    # nothing is ever harvested, so the screen fails on the first column and
    # the all-idle chain's closed classes end the search before any LP
    params = with_overrides(testbench_params, rho=0.0, lambda_e=0.0)
    with pytest.raises(AmbiguousChainError, match="21 closed classes"):
        optimize(params, FAST_GRID, "probabilistic")
    assert calls["solve_lp"] == 0
    assert pools == []


def test_optimize_builds_blocks_once_per_screened_column(calls,
                                                        testbench_params):
    _, records = optimize(testbench_params, FAST_GRID, "sensing_only")
    # the battery cannot fund sensing at 6 and 8 ms, so only two columns
    # are screened; the winner's report reads its column's blocks
    screened = {r.tau for r in records if r.status != "sensing_unreachable"}
    assert len(screened) == 2
    assert calls["harvest_blocks"] == len(screened)


@pytest.fixture
def linalg_calls(monkeypatch, setting):
    """Call counts of ``np.linalg.solve`` and ``np.linalg.lstsq``, from
    after the setting is built."""
    counts = collections.Counter()
    for name in ("solve", "lstsq"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name),
                    **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_evaluate_solves_the_chain_once(linalg_calls, setting):
    evaluate(*setting)
    assert linalg_calls == {"solve": 1}


def test_evaluate_derives_once(calls, setting):
    evaluate(*setting)
    assert calls == {"derive": 1, "bundle": 1, "harvest_blocks": 1,
                     "nature_distribution": 1, "detection_avg": 1,
                     "false_alarm": 1}


def test_evaluating_a_policy_that_never_senses_skips_the_detector(calls,
                                                                   setting):
    params, _ = setting
    evaluate(params, Policy.constant(params, 5e-4, 30.0, 0.5, 0.3, 0.0))
    assert calls["detection_avg"] == 0 and calls["false_alarm"] == 1


def test_evaluations_of_one_scenario_build_its_laws_once(calls, setting):
    # rho, the sensing time, the threshold and the policy leave the harvest
    # laws as they are
    params, _ = setting
    for rho in (0.1, 0.5, 0.9):
        at_rho = with_overrides(params, rho=rho)
        for tau in (5e-4, 1e-3, 2e-3):
            for policy in (Policy.idle(at_rho, tau, 20.0),
                           Policy.constant(at_rho, tau, 30.0, 0.5, 0.3, 0.5),
                           Policy.constant(at_rho, tau, 40.0, 1.0, 0.0, 1.0)):
                evaluate(at_rho, policy)
    assert calls["nature_distribution"] == 1
    assert calls["harvest_blocks"] == 27


def test_run_derives_once(calls, setting):
    run(*setting, SimConfig(slots=500, seed=3))
    assert calls == {"derive": 1, "detection_avg": 1, "false_alarm": 1}


def test_compare_derives_once_per_model(calls, setting):
    compare(*setting, SimConfig(slots=500, seed=3))
    assert calls == {"derive": 2, "bundle": 1, "harvest_blocks": 1,
                     "nature_distribution": 1, "detection_avg": 2,
                     "false_alarm": 2}


@pytest.mark.parametrize("mode", ["decorrelated", "faithful"])
def test_simulation_never_evaluates_marcum_q(calls, setting, mode):
    sim = SimConfig(slots=500, seed=3, correlation_mode=mode)
    run(*setting, sim)
    compare(*setting, sim)
    assert calls["marcum_q"] == calls["detection_instant"] == 0


def test_faithful_run_takes_few_detection_tails(monkeypatch, setting):
    # the verdicts of the licensed-busy slots come from the tails at every
    # isqrt(k)-th of their k sorted SNRs, plus the few slots whose draws
    # fall between two such knots' tails
    params, _ = setting
    policy = Policy.constant(params, 5e-4, 30.0, 0.0, 0.0, 1.0)
    detect, snrs = simulator._faithful_detection, []

    def counted(cfg, snr):
        snrs.append(snr.size)
        return detect(cfg, snr)

    monkeypatch.setattr(simulator, "_faithful_detection", counted)
    report = run(params, policy,
                 SimConfig(slots=5_000, seed=3, correlation_mode="faithful"))
    assert report.pu_active_slots == 2_457
    assert snrs == [52, 47]  # the knots, then the undecided slots
    assert sum(snrs) < 0.1 * report.pu_active_slots
