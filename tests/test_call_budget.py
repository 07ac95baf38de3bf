"""Each sensing time is derived once and its per-tau model built once.

Counts the calls of the per-tau builders made by ``optimize``, ``evaluate``,
``run`` and ``compare`` and pins them: one ``derive`` per grid sensing
time, one outage bundle per screened column; the winner is reported from
the column it was screened on, with no derive, bundle or detector call of
its own.  No column holds its kernel blocks, so they are gathered where
read: once per screened column for its screen, once per LP skeleton and
once for the winner's report, and a search at ``N_max`` 200 peaks under
32 MB.  The sensing times that cannot fund sensing share the first one's
column and screen.  The harvest laws depend on neither rho, the sensing
time, the detector nor the policy, so a scenario builds its ambient law
once: its searches share it, and so do evaluations of any policies at any
rho, and each law builds one level matrix, whose row gathers are the kernel
blocks, so a warm block build allocates little beyond its output.  Nor
do the sensing times, or the outages and detector terms of the screened
ones, read rho or the floor, so the searches of a rho sweep derive
each sensing time and evaluate each screened column's terms once, while
each search builds its own kernel blocks (the memos are cleared before each
test).  The detector is evaluated once per screened column, over all its
thresholds, and once per simulation and per evaluation of a policy that
senses; no policy iteration runs on an empty batch, a search solves each
distinct never-sensing system once, and a screen builds no (K, n, n)
sensing stack, so at ``N_max`` 200 it peaks under 40 MB, and solves a
step's systems in bounded chunks, under 12 MB.  The LP solves of
``optimize``, counted as the calls of ``numerics._solve_rung``, once per LP
per rung, are pinned too: its screen needs none, and a lone point within
``LP_FEASIBILITY_TOL`` of the best is taken as screened, so only two or
more such points are solved, each distinct LP once: all points of the
sensing times that cannot fund sensing share one LP.  A faithful run
draws each licensed-busy slot's detector statistic from its noncentral
chi-square law and evaluates no tail, so neither a run nor a comparison,
in either correlation mode, evaluates Marcum Q.  The battery of a
20k-slot run settles within the simulator's round cap, so the slot loop
that would finish it never runs; a battery with no harvest would never
settle, so the loop steps it from the first slot, with no window round.  The battery's memory grows linearly in
the battery size: a 5,000-slot run at ``N_max`` 2,000 peaks under 32 MB.
An evaluation solves its chain with one LU solve and no least squares.
Cold solves run on worker threads, so the counts are kept under a lock;
those threads run the rung solve alone, while the sensing kernels, the
compression and the audit of the LPs run in the caller's thread.  A cell
that solves no LP or one distinct LP starts no thread, and each certify
tier that solves builds one LP skeleton per column among its points,
which its LPs share, or one per stack of them where a column's dense LPs
pass the stacks' float budget, as every LP does at ``N_max`` 200.
"""
import collections
import contextlib
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ehcr import (chain, harvesting, numerics, optimizer, outage, sensing,
                  simulator, system_model)
from ehcr.chain import AmbiguousChainError, Policy
from ehcr.optimizer import GridSpec, InfeasibleGridError, optimize
from ehcr.performance import evaluate
from ehcr.simulator import SimConfig, compare, run
from ehcr.system_model import with_overrides
from helpers import column_at, random_policy, reference_run
from test_optimizer import FAST_GRID, TIE_GRID, TWIN_GRID, fail_lps

COUNTED = {
    "derive": system_model.derive,
    "bundle": outage.bundle,
    "harvest_blocks": chain.harvest_blocks,
    "nature_distribution": harvesting.nature_distribution,
    "_solve_rung": numerics._solve_rung,
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
    # 6 ms; the cold solves and the winner's report read their column.  No
    # column holds its kernel blocks: the screen, the LP skeleton and the
    # winner's report each gather those of the column they read
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
                     "harvest_blocks": 2 * built + 1, "nature_distribution": 1,
                     "_solve_rung": 6 * sensing + 1, "detection_avg": built,
                     "false_alarm": built}


def test_preset_grid_screens_eleven_columns(calls, monkeypatch, setting):
    # the preset grid has 19 sensing times, and the battery cannot fund
    # sensing at the last nine (m 110 to 190): the ten others and the
    # first of those nine are screened, each with its own detector call,
    # outage bundle and kernel blocks; the winner, taken as screened, adds
    # only the gather of its column's blocks for its report
    params, _ = setting
    grid = optimizer.GridSpec(tau_min=5e-4)
    taus = grid.tau_values(params)
    assert sum(not system_model.derive(params, tau).beta_range
               for tau in taus) == 9
    screen, screened = optimizer._screen, []

    def counted(params, column, scheme, *rest):
        screened.append(column.quantities.m)
        return screen(params, column, scheme, *rest)

    monkeypatch.setattr(optimizer, "_screen", counted)
    calls.clear()
    optimize(params, grid, "probabilistic")
    assert screened == list(range(10, 120, 10))
    assert calls["derive"] == len(taus)
    assert calls["_solve_rung"] == 0
    for name in ("detection_avg", "bundle"):
        assert calls[name] == len(screened)
    assert calls["harvest_blocks"] == len(screened) + 1


def test_rho_sweep_scans_each_sensing_time_once(calls, skeletons,
                                                testbench_params):
    # neither the sensing times, nor their outages and detector terms read
    # rho or the floor, so a sweep over nine rho values at two floors
    # derives each sensing time and evaluates each screened column once, and
    # no winner adds a call, whether its policy senses (half of them do) or
    # not.  The kernel blocks are gathered where read: once per screened
    # column, once for the winner's report and once per LP skeleton
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
    assert calls["harvest_blocks"] == winners * (screened + 1) + len(skeletons)
    assert calls["nature_distribution"] == 1


@pytest.mark.parametrize("rho, mu_th", [(0.5, 0.65), (0.5, 0.72), (0.1, 0.65),
                                        (0.5, 0.99)])
def test_no_policy_iteration_gets_an_empty_batch(monkeypatch, testbench_params,
                                                 rho, mu_th):
    # slack, binding, tied and unreachable floors
    params = with_overrides(testbench_params, rho=rho, mu_th=mu_th)
    iterate, batches = optimizer._policy_iteration, []

    def counted(params, kernels, p_d, *rest, **kwargs):
        batches.append(len(p_d))  # one detection probability per point
        return iterate(params, kernels, p_d, *rest, **kwargs)

    monkeypatch.setattr(optimizer, "_policy_iteration", counted)
    with contextlib.suppress(InfeasibleGridError):
        optimize(params, FAST_GRID, "probabilistic")
    assert batches and min(batches) >= 1


def test_screen_builds_no_sensing_stack(make_params, monkeypatch):
    # a sensing-only screen at N_max 200 over 40 thresholds, every one of
    # which senses, holds a step's (K, n, n) systems and their bordered
    # copy, 12.9 MB each, and a few MB of gathered sensing rows: its traced
    # peak measured 29.4 MB, where a (K, n, n) sensing stack and its copies
    # in every step took 66.2 MB.  Its rows, gathered in 12 chunks, give
    # the screen of one gather bit for bit.
    params = make_params(N_max=200)
    grid = GridSpec(tau_min=5e-4, lambda_count=40)
    column = column_at(params, grid.tau_values(params)[0], grid)
    tracemalloc.start()
    try:
        screen = optimizer._screen(params, column, "sensing_only")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert screen is not None
    assert peak < 40e6
    monkeypatch.setattr(optimizer, "_GATHER_FLOATS", 40 * params.n_states**2)
    for chunked, whole in zip(screen, optimizer._screen(params, column,
                                                        "sensing_only"),
                              strict=True):
        assert np.array_equal(chunked, whole)


def test_search_holds_no_column_blocks(testbench_params):
    # a search at N_max 200 over the preset grid screens 19 columns and
    # holds none of their (2, 4, n, n) kernel blocks, 2.6 MB each, past its
    # screen: its traced peak measured 16.5 MB, where holding every screened
    # column's blocks until the certify step ended took 56.0 MB
    params = with_overrides(testbench_params, rho=0.5, N_max=200)
    tracemalloc.start()
    try:
        solution, _ = optimize(params, GridSpec(tau_min=5e-4), "probabilistic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solution.tau == 5e-4
    assert peak < 32e6


@pytest.mark.parametrize("grid, rho, mu_th, solves", [
    (TIE_GRID, 0.5, 0.65, 0),   # slack floor, one point wins outright
    (TIE_GRID, 0.5, 0.72, 0),   # the floor binds at the winner
    (TIE_GRID, 0.5, 0.99, 0),   # no point is feasible
    (FAST_GRID, 0.1, 0.65, 13),  # all points tie: one solve per distinct LP
])
def test_optimize_solves_only_near_best_points(calls, testbench_params, grid,
                                               rho, mu_th, solves):
    params = with_overrides(testbench_params, rho=rho, mu_th=mu_th)
    with contextlib.suppress(InfeasibleGridError):
        optimize(params, grid, "probabilistic")
    assert calls["_solve_rung"] == solves


@pytest.fixture
def pools(monkeypatch):
    """Thread pools the optimizer constructs, with two cold-solve workers
    whatever the CPU count."""
    made = []

    class CountedPool(numerics.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(numerics, "_WORKERS", 2)
    monkeypatch.setattr(numerics, "ThreadPoolExecutor", CountedPool)
    return made


def test_untied_cell_starts_no_thread(calls, pools, testbench_params):
    # one point wins outright: it is taken as screened, with no LP
    params = with_overrides(testbench_params, rho=0.5)
    optimize(params, TIE_GRID, "probabilistic")
    assert calls["_solve_rung"] == 0
    assert pools == []


def test_tied_cell_solves_each_distinct_lp_once_on_threads(calls, pools,
                                                           testbench_params):
    # 12 points at the two sensing times that can fund sensing, and one LP
    # for the 12 points of the two that cannot
    params = with_overrides(testbench_params, rho=0.1)
    _, records = optimize(params, FAST_GRID, "probabilistic")
    assert len(records) == 24
    assert calls["_solve_rung"] == 13
    assert pools == [(2,)]


def test_one_distinct_lp_is_solved_inline(calls, pools, testbench_params):
    # the thresholds of a sensing time that cannot fund sensing share one
    # LP: a tier of them solves it once, in the calling thread, and starts
    # no thread
    params = with_overrides(testbench_params, rho=0.1)
    column = column_at(params, 8e-3, FAST_GRID)
    assert not column.quantities.beta_range
    entries = [(column, k) for k in range(len(column.thresholds))]
    results = optimizer._cold_solve(params, "probabilistic", entries)
    assert len(results) == 6 and len(set(results)) == 1
    assert results[0][0] == "optimal"
    assert calls["_solve_rung"] == 1
    assert pools == []


@pytest.fixture
def skeletons(monkeypatch):
    """The tau of the column of each LP skeleton the optimizer builds, one
    per stack of LPs."""
    built = []
    build = optimizer._column_lps

    def counted(params, column, scheme, ks):
        built.append(column.quantities.tau)
        return build(params, column, scheme, ks)

    monkeypatch.setattr(optimizer, "_column_lps", counted)
    return built


@pytest.mark.parametrize("grid, solves, columns", [
    # two columns that fund sensing, and the first of the two that do not
    # for the LP all their points share
    (FAST_GRID, 13, [2e-3, 4e-3, 6e-3]),
    # one sensing time: its six thresholds tie, in one column
    (GridSpec(tau_min=4e-3, lambda_count=6), 6, [4e-3]),
])
def test_tied_cell_builds_one_skeleton_per_column(calls, pools, skeletons,
                                                  testbench_params, grid,
                                                  solves, columns):
    optimize(with_overrides(testbench_params, rho=0.1), grid, "probabilistic")
    assert calls["_solve_rung"] == solves
    assert sorted(skeletons) == pytest.approx(columns, abs=1e-15)
    assert pools == [(2,)]


def test_each_certify_tier_builds_its_own_skeletons(skeletons, monkeypatch,
                                                    testbench_params):
    # at rho 0.5 the best point of TWIN_GRID ties with its twin threshold;
    # both cold solves fail, so the near-best of the rest, again a pair of
    # twins, are solved: each tier builds one skeleton per column among its
    # points
    params = with_overrides(testbench_params, rho=0.5)
    cold_solve = optimizer._cold_solve
    tiers = []  # per tier: (points, columns among them, skeletons)

    def recording(params, scheme, entries):
        before = len(skeletons)
        solved = cold_solve(params, scheme, entries)
        tiers.append((len(entries), len({id(column) for column, _ in entries}),
                      len(skeletons) - before))
        return solved

    monkeypatch.setattr(numerics, "_WORKERS", 1)
    fail_lps(monkeypatch, lambda i: i < 2)
    monkeypatch.setattr(optimizer, "_cold_solve", recording)
    optimize(params, TWIN_GRID, "probabilistic")
    assert tiers == [(2, 1, 1), (2, 1, 1)]


def test_lp_threads_run_only_the_rung_solve(monkeypatch, testbench_params):
    # the LP threads of a tied cell enter the package only through
    # numerics._solve_rung; the sensing kernels, the compression and the
    # audit of every stack run in the calling thread
    params = with_overrides(testbench_params, rho=0.1)
    caller, threads = threading.get_ident(), collections.defaultdict(set)
    for module, name in ((optimizer, "sense_kernels"),
                         (numerics, "_columnwise"), (numerics, "_audit")):
        def spy(*args, _name=name, _original=getattr(module, name)):
            threads[_name].add(threading.get_ident())
            return _original(*args)
        monkeypatch.setattr(module, name, spy)
    package = str(Path(optimizer.__file__).parent)
    entered = collections.defaultdict(set)  # on the other threads

    def profile(frame, event, arg):
        caller_file = frame.f_back.f_code.co_filename if frame.f_back else ""
        if (event == "call" and frame.f_code.co_filename.startswith(package)
                and not caller_file.startswith(package)):
            entered[threading.get_ident()].add(frame.f_code.co_name)

    monkeypatch.setattr(numerics, "_WORKERS", 2)
    threading.setprofile(profile)
    try:
        optimize(params, FAST_GRID, "probabilistic")
    finally:
        threading.setprofile(None)
    assert dict(threads) == {name: {caller} for name in
                             ("sense_kernels", "_columnwise", "_audit")}
    assert 0 < len(entered) <= 2 and caller not in entered
    assert all(names == {"_solve_rung"} for names in entered.values())


def test_lp_stacks_stay_within_their_float_budget(monkeypatch,
                                                  testbench_params):
    # a column's LPs are built in stacks of at most _STACK_FLOATS dense
    # floats, or one LP where one is more: a budget of two and a half LPs
    # splits the six thresholds of a column into three stacks and changes
    # no result, and at N_max 200 every LP is a stack of its own
    sizes, build = [], optimizer._column_lps

    def counted(params, column, scheme, ks):
        lp = build(params, column, scheme, ks)
        sizes.append((len(ks), lp[1][0].size + lp[3][0].size))
        return lp

    monkeypatch.setattr(optimizer, "_column_lps", counted)
    params = with_overrides(testbench_params, rho=0.1)
    column = column_at(params, 2e-3, FAST_GRID)
    entries = [(column, k) for k in range(len(column.thresholds))]
    whole = optimizer._cold_solve(params, "probabilistic", entries)
    floats = math.prod(optimizer._lp_shape(params, column))
    assert sizes == [(6, floats)]
    sizes.clear()
    monkeypatch.setattr(optimizer, "_STACK_FLOATS", 5 * floats // 2)
    assert optimizer._cold_solve(params, "probabilistic", entries) == whole
    assert sizes == [(2, floats)] * 3
    monkeypatch.undo()
    monkeypatch.setattr(optimizer, "_column_lps", counted)
    params = with_overrides(params, N_max=200)
    column = column_at(params, 2e-3, FAST_GRID)
    sizes.clear()
    optimizer._cold_solve(params, "probabilistic", [(column, 0), (column, 1)])
    floats = math.prod(optimizer._lp_shape(params, column))
    assert floats > optimizer._STACK_FLOATS
    assert sizes == [(1, floats)] * 2


def test_value_determination_solves_in_bounded_chunks(make_params):
    # a sensing-only screen at N_max 200 over 40 thresholds, every one of
    # which senses: a step's systems are gathered, bordered and solved
    # _GATHER_FLOATS at a time, three of 40 at once, so its traced peak
    # measured 7.9 MB, where the step's whole (K, n, n) systems, their
    # bordered copy and the solve's copy took 29.4 MB
    params = make_params(N_max=200)
    grid = GridSpec(tau_min=5e-4, lambda_count=40)
    column = column_at(params, grid.tau_values(params)[0], grid)
    tracemalloc.start()
    try:
        screen = optimizer._screen(params, column, "sensing_only")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert screen is not None
    assert peak < 12e6


def test_tied_cell_solves_one_non_sensing_system_per_step(monkeypatch,
                                                          testbench_params):
    # a policy that never senses selects only the idle and blind rows, the
    # same at every threshold and sensing time, so a search solves each
    # distinct such system once, whatever the column, pass or step that
    # meets it, and so at most one per step
    params = with_overrides(testbench_params, rho=0.1)
    free_rows = set()  # (level, row) of the columns' idle and blind systems
    for tau in FAST_GRID.tau_values(params):
        column = column_at(params, tau, FAST_GRID)
        idle_blind = chain.idle_blind_kernels(params,
                                              optimizer._blocks(params, column))
        for system in chain._bordered(idle_blind):
            free_rows.update(enumerate(row.tobytes() for row in system))
    batches = []
    solve = np.linalg.solve

    def recording(a, b):
        if a.ndim == 3:  # the screen's batches, not the winner's report
            batches.append(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    optimize(params, FAST_GRID, "probabilistic")
    non_sensing = [system.tobytes() for batch in batches for system in batch
                   if all((level, row.tobytes()) in free_rows
                          for level, row in enumerate(system))]
    assert non_sensing
    assert len(non_sensing) == len(set(non_sensing))


def test_zero_harvest_grid_solves_no_lp(calls, pools, testbench_params):
    # nothing is ever harvested, so the screen fails on the first column and
    # the all-idle chain's closed classes end the search before any LP
    params = with_overrides(testbench_params, rho=0.0, lambda_e=0.0)
    with pytest.raises(AmbiguousChainError, match="21 closed classes"):
        optimize(params, FAST_GRID, "probabilistic")
    assert calls["_solve_rung"] == 0
    assert pools == []


def test_optimize_builds_blocks_once_per_screened_column(calls, skeletons,
                                                        testbench_params):
    _, records = optimize(testbench_params, FAST_GRID, "sensing_only")
    # the battery cannot fund sensing at 6 and 8 ms, so only two columns
    # are screened, each on blocks gathered for its screen alone; the
    # winner's report and each LP skeleton gather their column's again
    screened = {r.tau for r in records if r.status != "sensing_unreachable"}
    assert len(screened) == 2
    assert calls["harvest_blocks"] == len(screened) + 1 + len(skeletons)


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


@pytest.fixture
def level_matrices(monkeypatch):
    """Every level matrix the harvest laws return, in call order."""
    returned = []
    original = harvesting.HarvestPmf.level_matrix

    def spy(law, *args):
        returned.append(original(law, *args))
        return returned[-1]

    monkeypatch.setattr(harvesting.HarvestPmf, "level_matrix", spy)
    return returned


def test_evaluations_of_one_scenario_build_its_laws_once(calls, setting,
                                                         level_matrices):
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
    # nor do they change either law's level matrix, of which the blocks
    # are row gathers: one matrix per law, read by all 27
    assert len(level_matrices) == 54
    assert len({id(levels) for levels in level_matrices}) == 2


def test_warm_harvest_blocks_allocate_little_beyond_their_output(make_params):
    # the blocks are gathered from the memoized level matrices straight
    # into the output: no (4, n, n) index array or gathered temporary
    params = make_params(N_max=300)
    q = system_model.derive(params, 5e-4)
    laws = harvesting.harvest_laws(params)
    chain.harvest_blocks(params, q, *laws)
    tracemalloc.start()
    try:
        blocks = chain.harvest_blocks(params, q, *laws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks.nbytes == 8 * params.n_states**2 * 8
    assert peak - blocks.nbytes < 2**18


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



@pytest.fixture
def completions(monkeypatch):
    """The calls of the slot loop that finishes a run whose windows the
    round cap left unsettled."""
    calls = []
    original = simulator._slot_loop

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(simulator, "_slot_loop", spy)
    return calls


@pytest.mark.parametrize("mode", ["decorrelated", "faithful"])
def test_merging_run_settles_within_the_round_cap(completions, setting, mode):
    run(*setting, SimConfig(slots=20_000, seed=3, correlation_mode=mode))
    assert completions == []


def test_never_merging_run_finishes_in_the_slot_loop(completions, monkeypatch,
                                                     make_params):
    # with no harvest an empty battery stays empty while a full one drains
    # to the level below a transmission, so no window would settle but the
    # first: the slot loop steps the run from its first slot, and no window
    # round runs
    rounds = []
    step = simulator._step_windows
    monkeypatch.setattr(simulator, "_step_windows",
                        lambda *args: rounds.append(1) or step(*args))
    params = make_params(lambda_e=0.0, eta=0.0)
    policy = Policy.constant(params, 5e-4, 30.0, 0.5, 0.3, 0.5)
    report = run(params, policy, SimConfig(slots=50_000, seed=3))
    assert [(args[0].size, args[-1]) for args in completions] == [(50_000, 0)]
    assert report.battery_histogram[0] == 50_000
    # from a full battery the levels drain, as the slot loop steps them:
    # blind access costs 2 from level 2, sensing 1 or 3 from level 3
    rng = np.random.default_rng(5)
    blind_at = np.where(np.arange(params.n_states) >= 2, 0.3, 0.0)
    sense_at = np.where(np.arange(params.n_states) >= 3, 0.8, blind_at)
    steps = (rng.random(20_000), rng.choice([1, 3], 20_000),
             np.zeros(20_000, dtype=np.int64), blind_at, sense_at, 2,
             params.N_max, params.N_max)
    levels = simulator._battery_levels(*steps)
    assert levels.tolist() == simulator._slot_loop(*steps)
    assert levels[0] == params.N_max > levels[-1]
    assert rounds == []


def test_battery_memory_is_linear_in_n_max(make_params):
    # a random per-level policy at a large battery: the stepping holds a few
    # arrays per slot and a few per level, none per pair of levels
    params = make_params(N_max=2_000)
    policy = random_policy(np.random.default_rng(5), params, 5e-4, 30.0)
    sim = SimConfig(slots=5_000, seed=3)
    tracemalloc.start()
    try:
        report = run(params, policy, sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert report.battery_histogram.tolist() == \
        reference_run(params, policy, sim).battery_histogram.tolist()
