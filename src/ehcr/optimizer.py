"""Grid search for the best access policy, screened without an LP.

At each battery level the secondary idles, accesses blindly or senses; the
model of that choice is the per-action kernels of
:func:`~ehcr.chain.action_kernels` and the (mu_s, mu_p) rewards of
:func:`~ehcr.performance.action_rewards`.  Only the sensing kernel and
reward read the detector, so each sensing time is derived and turned into
outage probabilities, kernel blocks and the detector terms of all its
thresholds once, as a column they share.  An exhaustive search over the
sensing times and a threshold grid picks the best point whose policy meets
the licensed-user floor.

Of a column, only the kernels and rewards read rho, and only the screen
and the LPs the floor, so the rest is scanned once per scenario and grid: a
memo keyed with both set aside holds each sensing time's quantities and
thresholds, and, from the first search that screens it on, its outages and
read-only detector terms, so a rho sweep derives each sensing time once.
The kernel blocks are rho-free too, but hold 8 n^2 floats per column, too
many to memoize for several scenarios at a large battery, so each search
rebuilds them from the memoized harvest laws at the sensing times it
screens.

The screen values all thresholds of a column at once as constrained MDPs
(Puterman 1994, ch. 8-9; Altman 1999, ch. 3).  Batched average-reward
policy iteration finds the unconstrained optimum, the point's value and
policy when it clears the floor; the highest licensed-user rate decides
infeasibility; any other point gets the LP value from a cutting-plane
search on the Lagrangian dual of ``mu_s + nu * (mu_p - mu_th)``, and as
policy the mix of the occupation measures of the two deterministic policies
bracketing the floor, which randomizes at most one reachable level (Beutler
& Ross 1985).  Each column's unconstrained pass starts from the previous
column's optimum, all-idle should that fail (it can end elsewhere only
where policies tie), and no pass runs on an empty set of points.  Policies
that never sense read one idle/blind kernel pair and the same rewards at
every threshold, so each step solves each distinct such system once.  A
sensing time that cannot fund sensing admits no sensing, and nothing else
of its model depends on the sensing time, so the later ones reuse the
first one's column and screen: their passes would start from its optimum
of the same model and return it.  None of this changes a bit.  A column the
screen cannot value is an error when the all-idle chain has several closed
classes (no harvest at all), and is logged as failed otherwise.

The LP of a point is the same model in the occupation vector (pi,
pi*alpha, pi*beta1, pi*beta2), in which the balance equations, the floor
and the objective are linear.  It only certifies: the points within
``LP_FEASIBILITY_TOL`` of the best are solved cold, once per distinct LP
(all points of the sensing times that cannot fund sensing share one), into
their screened records, and the best of them wins, ties broken toward the
smaller sensing time, then the smaller threshold, in any evaluation order.
Whole grids can tie to within solver noise, so the winner is reproducible
bit for bit only because the near-ties are decided on cold solves.  It is
reported from the kernels and rewards of the column it was screened on,
and its LP rates cross-check that report.  Each cold LP is built from its
own point by the worker that solves it: more than one on one thread per
CPU in the process's affinity mask (HiGHS's core releases the GIL), a
single one inline, each solved alone, so the results do not depend on the
thread count.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Any

import numpy as np
from scipy.special import gammainccinv

from . import harvesting, sensing
from .chain import (
    AmbiguousChainError,
    Policy,
    _bordered,
    _closed_classes,
    action_kernels,
    harvest_blocks,
    stationary_distribution,
    transition_components,
)
from .numerics import LP_FEASIBILITY_TOL, solve_lp
from .outage import OutageBundle, bundle
from .performance import PerformanceReport, action_rewards, report
from .system_model import (
    DerivedQuantities,
    SystemParams,
    derive,
    snap_to_int,
)

SCHEMES = ("probabilistic", "sensing_only")

#: improvement, relative to the reward scale, a policy-iteration step must
#: make to change an action; also the gap that ends the cutting-plane search
_PI_TOL = 1e-12
#: steps of either iteration after which the screen gives up on a column
_PI_MAX_STEPS = 100

#: false-alarm extremes the default threshold grid spans at each m
_PFA_SPAN = (0.999, 0.001)

#: most sensing times a grid may hold
_MAX_SENSING_TIMES = 10_000

#: threads that solve cold LPs: one per CPU the process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@dataclass(frozen=True)
class GridSpec:
    """Search grid: sensing times in multiples of tau_min, threshold rule.

    Thresholds are either the explicit ``lambda_values`` or, by default,
    ``lambda_count`` log-spaced points covering false-alarm probabilities
    from 0.999 down to 0.001 at each time-bandwidth product.
    """

    tau_min: float
    lambda_values: tuple[float, ...] | None = None
    lambda_count: int = 40

    def __post_init__(self):
        if not 0 < self.tau_min < math.inf:
            raise ValueError(f"tau_min must be positive and finite, got {self.tau_min}")
        if self.lambda_values is not None:
            values = tuple(float(v) for v in self.lambda_values)
            if not values:
                raise ValueError("explicit lambda_values is empty")
            if any(not 0 < v < math.inf for v in values):
                raise ValueError("explicit lambda_values must be positive and finite")
            object.__setattr__(self, "lambda_values", values)
        elif (isinstance(self.lambda_count, bool)
              or not (isinstance(self.lambda_count, int) and self.lambda_count >= 1)):
            raise ValueError(f"lambda_count must be an integer >= 1, got {self.lambda_count!r}")

    def tau_values(self, params: SystemParams) -> tuple[float, ...]:
        """Multiples of tau_min up to T - tau_min, each with a positive
        integral tau*W, and at most ``_MAX_SENSING_TIMES`` of them."""
        if self.tau_min >= params.T:
            raise ValueError(f"tau_min {self.tau_min} leaves no admissible "
                             f"sensing time in a slot of {params.T}")
        last = params.T - self.tau_min + 1e-15 * params.T
        count = last / self.tau_min  # inf past the float range
        if count >= _MAX_SENSING_TIMES + 1:
            raise ValueError(f"tau_min {self.tau_min} gives {count:.3g} sensing times "
                             f"in a slot of {params.T}, more than {_MAX_SENSING_TIMES}")
        # int(count) multiples, give or take one for rounding
        values = tuple(tau for tau in (k * self.tau_min
                                       for k in range(1, int(count) + 2))
                       if tau <= last)
        for tau in values:
            m = snap_to_int(tau * params.W)
            if m is None or m < 1:
                raise ValueError(f"grid sensing time {tau} gives tau*W = "
                                 f"{tau * params.W!r}, not a positive integer")
        if not values:
            raise ValueError("empty sensing-time grid")
        return values

    def lambda_grid(self, m: int) -> tuple[float, ...]:
        """Thresholds searched at time-bandwidth product ``m``."""
        if self.lambda_values is not None:
            return self.lambda_values
        hi_pf, lo_pf = _PFA_SPAN
        lo = 2.0 * float(gammainccinv(m, hi_pf))
        hi = 2.0 * float(gammainccinv(m, lo_pf))
        return tuple(np.geomspace(lo, hi, self.lambda_count))


@dataclass(frozen=True)
class OptimalSolution:
    """Best feasible policy found, with its analytical evaluation.

    ``policy`` is the screen's and ``report`` its evaluation;
    ``lp_objective`` and ``lp_mu_p`` are the secondary and licensed-user
    rates of the point's cold LP solution, which certified the winner, so
    they cross-check ``report.mu_s`` and ``report.mu_p``.
    """

    policy: Policy
    report: PerformanceReport
    lp_objective: float
    lp_mu_p: float

    @property
    def tau(self) -> float:
        return self.policy.tau

    @property
    def threshold(self) -> float:
        return self.policy.threshold


@dataclass(frozen=True)
class GridPointStatus:
    """Outcome of one (tau, lambda) grid point."""

    tau: float
    threshold: float
    #: "optimal" | "infeasible" | "unsupported_m" | "sensing_unreachable"
    #: | "solver_failure" (the screen could not value the point's column, or
    #: every rung of the LP ladder failed on it)
    status: str
    #: optimum; the screen's value unless the point was solved by the LP
    objective: float | None = None


class InfeasibleGridError(RuntimeError):
    """No grid point admitted a policy satisfying the licensed-user floor."""

    def __init__(self, records: tuple[GridPointStatus, ...]):
        self.records = records
        counts = sorted(Counter(rec.status for rec in records).items())
        summary = ", ".join(f"{k}: {v}" for k, v in counts)
        super().__init__(f"no feasible grid point ({summary})")


def _build_lp(params: SystemParams, quantities: DerivedQuantities,
              kernels: np.ndarray, rewards: np.ndarray, scheme: str
              ) -> tuple[np.ndarray, ...]:
    """The policy LP at one grid point from its (3, n, n) kernels and (3, 2)
    rewards of idling, blind access and sensing, as the arrays
    ``(objective, eq_matrix, eq_rhs, ub_matrix, ub_rhs, bounds)`` of
    :func:`~ehcr.numerics.solve_lp`.

    The variables are the occupation vector (pi, pi*alpha, pi*beta1,
    pi*beta2), in which the kernel and both rates are affine: the masses
    carry the idle reward, each product its action's change from idling.
    The secondary rate is the objective and the licensed-user floor enters
    as the first inequality; each level's products may not exceed its mass.
    The sensing-only scheme pins the blind product variables to zero
    through their bounds.
    """
    n = params.n_states
    alpha_range, beta_range = quantities.alpha_range, quantities.beta_range
    ka, kb = len(alpha_range), len(beta_range)
    nvars = n + ka + 2 * kb
    alpha_rows = slice(alpha_range.start, alpha_range.stop)
    beta_rows = slice(beta_range.start, beta_range.stop)

    idle, blind, sense = kernels
    blind_delta, sense_delta = blind - idle, sense - idle
    balance = np.hstack([idle.T - np.eye(n), blind_delta[alpha_rows].T,
                         blind_delta[beta_rows].T, sense_delta[beta_rows].T])
    normalization = np.concatenate([np.ones(n), np.zeros(ka + 2 * kb)])
    eq_matrix = np.vstack([balance, normalization])
    eq_rhs = np.concatenate([np.zeros(n), [1.0]])
    per_block = np.vstack([rewards[0], rewards[1:] - rewards[0]]).T
    mu_s_row, mu_p_row = np.repeat(per_block, [n, ka + kb, kb], axis=1)

    # row 0 is the floor; row 1 + k caps the products of the k-th acting
    # level (the beta levels follow the alpha levels) by that level's mass
    ub_matrix = np.zeros((1 + ka + kb, nvars))
    ub_matrix[0] = -mu_p_row
    level_rows = np.arange(1, 1 + ka + kb)
    ub_matrix[level_rows, alpha_range.start + np.arange(ka + kb)] = -1.0
    ub_matrix[level_rows, n + np.arange(ka + kb)] = 1.0
    ub_matrix[level_rows[ka:], n + ka + kb + np.arange(kb)] = 1.0
    ub_rhs = np.zeros(1 + ka + kb)
    ub_rhs[0] = -params.mu_th

    bounds = np.tile([0.0, 1.0], (nvars, 1))
    if scheme == "sensing_only":
        bounds[n:n + ka + kb, 1] = 0.0
    return mu_s_row, eq_matrix, eq_rhs, ub_matrix, ub_rhs, bounds


@dataclass(frozen=True)
class _Scanned:
    """What one sensing time of a grid fixes that neither rho nor the floor
    reads: its quantities, and, from the first search that asks, its
    thresholds, outages and detector terms."""

    quantities: DerivedQuantities
    params: SystemParams
    grid: GridSpec

    @cached_property
    def thresholds(self) -> tuple[float, ...]:
        return self.grid.lambda_grid(self.quantities.m)

    @cached_property
    def terms(self) -> tuple[OutageBundle, np.ndarray, np.ndarray]:
        """The outages, and one detector evaluation over all thresholds: the
        (K,) averaged detection and false-alarm probabilities, read-only, as
        every search of the scenario shares them."""
        q = self.quantities
        cfg = sensing.SensingConfig(np.asarray(self.thresholds, dtype=float), q.m)
        p_d, p_f = sensing.detection_avg(cfg, q.gamma_bar), sensing.false_alarm(cfg)
        p_d.flags.writeable = p_f.flags.writeable = False
        return bundle(self.params, q), p_d, p_f


@lru_cache(maxsize=16)
def _scan(params: SystemParams, grid: GridSpec) -> tuple[_Scanned, ...]:
    """Each sensing time of ``grid``, derived for ``params`` with rho and the
    floor set aside (:func:`optimize` zeroes them), so every search of a
    scenario at any rho and floor shares the scan."""
    return tuple(_Scanned(derive(params, tau), params, grid)
                 for tau in grid.tau_values(params))


@dataclass(frozen=True)
class _Column:
    """What one sensing time fixes for its K threshold LPs, and their detector.
    The sensing times of a search that cannot fund sensing share the first
    one's object, as none reads its detector or sensing blocks (:func:`_model_key`)."""

    quantities: DerivedQuantities
    blocks: np.ndarray  # (2, 4, n, n) harvest blocks
    thresholds: tuple[float, ...]
    outages: OutageBundle
    p_d: np.ndarray  # (K,) averaged detection probabilities
    p_f: np.ndarray  # (K,) false-alarm probabilities


def _column(params: SystemParams, scanned: _Scanned, harvest: tuple) -> _Column:
    """The column of a scanned sensing time: its scanned outages and detector
    terms, and the kernel blocks of this search's harvest laws."""
    q = scanned.quantities
    return _Column(q, harvest_blocks(params, q, *harvest), scanned.thresholds,
                   *scanned.terms)


def _point_model(params: SystemParams, column: _Column,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (3, n, n) kernels and (3, 2) rewards of the column's k-th
    threshold, the bits of the screen's batch there."""
    p_d, p_f = column.p_d[k], column.p_f[k]
    return (transition_components(params, column.blocks, p_d, p_f),
            action_rewards(params, column.outages, p_d, p_f))


def _model_key(quantities: DerivedQuantities) -> float | None:
    """What a column's screen and LPs read beyond the parameters, scheme and
    threshold count: its sensing time, or None where the battery cannot fund
    sensing (the longest sensing times of a grid).  No such sensing time
    admits sensing, and their idle and blind kernels and rewards are equal."""
    return quantities.tau if quantities.beta_range else None


def _unsupported(quantities: DerivedQuantities, scheme: str) -> str | None:
    """The grid status of every threshold at this sensing time when none can
    host the scheme: a time-bandwidth product below 2 leaves averaged
    detection undefined, and the sensing-only scheme needs a battery that
    can fund sensing.  None when the sensing time is usable."""
    if quantities.m < 2:
        return "unsupported_m"
    if scheme == "sensing_only" and not quantities.beta_range:
        return "sensing_unreachable"
    return None


def _admitted(params: SystemParams, quantities: DerivedQuantities,
              scheme: str) -> np.ndarray:
    """(3, n) mask of the actions each level admits: each from its first
    affordable level up, and no blind access under the sensing-only scheme."""
    n = params.n_states
    blind_from = n if scheme == "sensing_only" else quantities.alpha_range.start
    firsts = [[0], [blind_from], [quantities.beta_range.start]]
    return np.arange(n) >= np.array(firsts)


def _policy_iteration(idle_blind: np.ndarray, sense: np.ndarray,
                      rewards: np.ndarray, allowed: np.ndarray, weights,
                      policy: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray] | None:
    """Gains (K, 2) of (mu_s, mu_p) and action indices (K, n) of a
    deterministic policy maximizing the average of ``rewards @ weights`` in
    each MDP of the batch: the (2, n, n) idle and blind kernels that every
    point shares, the (K, n, n) sensing kernels and the (K, 3, 2) rewards of
    the three actions, which ``allowed`` admits per level.  ``weights`` is
    one (2,) pair or a (K, 2) stack.

    Average-reward policy iteration from the admitted (K, n) actions
    ``policy``, all idle when None; it converges from any start.  Value
    determination solves ``g + h = r + P h`` with ``h`` pinned to zero at
    level 0 and ``g`` in its place, one ``np.linalg.solve`` of the batch's
    :func:`~ehcr.chain._bordered` systems; a level changes action only for a
    gain above the tolerance.  Within a batch of one column, equal policies
    that never sense read the same rows and rewards (``action_rewards``
    broadcasts them over the thresholds), so each distinct one is solved
    once; a sensing point is solved as its own.  None when a solve is
    singular or not finite (a policy with several closed classes) or the
    iteration does not settle.
    """
    count, n = sense.shape[:2]
    weights = np.broadcast_to(weights, (count, 2))
    batch, levels = np.arange(count)[:, None], np.arange(n)
    weighted = rewards @ weights[:, :, None]  # (K, 3, 1): the same at every level
    tol = _PI_TOL * (1.0 + np.abs(weights).sum(axis=1))[:, None]
    if policy is None:
        policy = np.zeros((count, n), dtype=int)
    for _ in range(_PI_MAX_STEPS):
        # each point's system is solved at its owner: itself if it senses,
        # else the first point that never senses with the same policy
        firsts: dict[bytes, int] = {}
        senses = (policy == 2).any(axis=1).tolist()
        owner = np.array([k if senses[k] else firsts.setdefault(row.tobytes(), k)
                          for k, row in enumerate(policy)], dtype=int)
        owners = np.flatnonzero(owner == batch[:, 0])
        chosen = policy[owners]
        rows = np.where((chosen == 2)[..., None], sense[owners],
                        idle_blind[np.minimum(chosen, 1), levels])
        try:
            solved = np.linalg.solve(
                _bordered(rows),
                rewards[owners[:, None], chosen])[np.searchsorted(owners, owner)]
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(solved)):
            return None
        bias = solved @ weights[:, :, None]
        bias[:, 0] = 0.0
        values = weighted + np.concatenate(
            [idle_blind @ bias[:, None], (sense @ bias)[:, None]], axis=1)[..., 0]
        values[:, ~allowed] = -np.inf
        better = values.max(axis=1) > values[batch, policy, levels] + tol
        if not better.any():
            return solved[:, 0], policy
        policy = np.where(better, values.argmax(axis=1), policy)
    return None


def _screen(params: SystemParams, column: _Column, scheme: str,
            start: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                       np.ndarray] | None:
    """Optimal LP objective at each threshold of a column, NaN where the
    floor is out of reach, found without an LP, and the policies that attain
    it; see the module docstring.

    The unconstrained pass starts from ``start``, the (K, n) unconstrained
    optima of the previous column, projected onto the actions this column
    admits (idle where one is not), and is rerun from all-idle when that
    fails, so a failed warm start never fails a column; None starts it
    all-idle, as every later pass starts.  A point whose unconstrained
    optimum misses the floor gets the minimum over nu >= 0 of the dual
    ``max mu_s + nu * (mu_p - mu_th)`` by cutting planes: the lines of a
    policy below and one on or above the floor meet at the next nu, and the
    search stops once no policy rises above them there.  The value is then
    that of the mix of the two policies meeting the floor.  Returns the
    objectives, the (K, n) actions of the low and high policy at each point,
    the (K,) share ``s`` of the high one in their mix (0, with both the
    unconstrained optimum, where the floor is slack) and the unconstrained
    optima, the next column's start.  None when a policy iteration fails.
    """
    idle_blind, sense = action_kernels(params, column.blocks, column.p_d,
                                       column.p_f)
    rewards = action_rewards(params, column.outages, column.p_d, column.p_f)
    allowed = _admitted(params, column.quantities, scheme)
    mu_th = params.mu_th

    def solve(points: np.ndarray, weights, policy=None):
        return _policy_iteration(idle_blind, sense[points], rewards[points],
                                 allowed, weights, policy)

    count = len(column.thresholds)
    solved = None
    if start is not None:
        warm = np.where(allowed[start, np.arange(params.n_states)], start, 0)
        solved = solve(np.arange(count), (1.0, 0.0), warm)
    if solved is None:
        solved = solve(np.arange(count), (1.0, 0.0))
    if solved is None:
        return None
    low, unconstrained = solved
    low_policy, high_policy = unconstrained.copy(), unconstrained.copy()
    high = low.copy()
    objective, share = low[:, 0].copy(), np.zeros(count)
    points = np.nonzero(low[:, 1] < mu_th)[0]
    if points.size:
        solved = solve(points, (0.0, 1.0))  # the highest licensed-user rate
        if solved is None:
            return None
        high[points], high_policy[points] = solved
    reachable = high[points, 1] >= mu_th
    objective[points[~reachable]] = np.nan
    points = points[reachable]
    for _ in range(_PI_MAX_STEPS):
        if not points.size:
            return objective, low_policy, high_policy, share, unconstrained
        lo, hi = low[points], high[points]
        # low's line falls and high's rises in nu; they meet at nu
        nu = np.maximum((lo[:, 0] - hi[:, 0]) / (hi[:, 1] - lo[:, 1]), 0.0)
        solved = solve(points, np.stack([np.ones_like(nu), nu], axis=1))
        if solved is None:
            return None
        cut, cut_policy = solved
        gap = (cut[:, 0] - lo[:, 0]) + nu * (cut[:, 1] - lo[:, 1])
        done = gap <= _PI_TOL * (1.0 + nu)
        at = points[done]
        share[at] = (mu_th - lo[done, 1]) / (hi[done, 1] - lo[done, 1])
        objective[at] = lo[done, 0] + share[at] * (hi[done, 0] - lo[done, 0])
        # the cut replaces the end of the bracket on its side of the floor
        below = cut[:, 1] < mu_th
        for gains, policies, moved in ((low, low_policy, ~done & below),
                                       (high, high_policy, ~done & ~below)):
            gains[points[moved]], policies[points[moved]] = cut[moved], cut_policy[moved]
        points = points[~done]
    return None


def _cold_solve(params: SystemParams, scheme: str,
                entries: list[tuple[_Column, int]]
                ) -> list[tuple[str, float | None, float | None]]:
    """Status of the cold LP at each (column, threshold index) entry of one
    search, in input order, with the secondary and licensed-user rates of
    its solution when optimal (the objective, minus the floor row).

    Each distinct LP is solved once: all entries at the sensing times that
    cannot fund sensing (empty ``beta_range``) share one, as the detector
    and the sensing cost enter only the sense kernel and reward, which
    :func:`_build_lp` reads only through the empty ``beta_range`` rows and
    ``kb``-long block, and HiGHS solves equal arrays under equal options to
    equal bits.  Each entry gets its LP's result.

    A single distinct LP is solved inline, more on ``_WORKERS`` threads
    (HiGHS, called without scipy's Python wrapper, releases the GIL for
    nearly all of each solve), each built by the worker that takes it up,
    so at most ``_WORKERS`` are held at once, and solved alone, as in a
    serial loop, so the results do not depend on the thread count.
    """
    def solve(entry: tuple[_Column, int]) -> tuple[str, float | None, float | None]:
        column, k = entry
        lp = _build_lp(params, column.quantities,
                       *_point_model(params, column, k), scheme)
        try:
            x = solve_lp(*lp)
        except RuntimeError:
            return "solver_failure", None, None
        if x is None:
            return "infeasible", None, None
        objective, _, _, ub_matrix = lp[:4]
        return "optimal", float(objective @ x), float(-ub_matrix[0] @ x)

    # the LP's key: its model alone where that cannot fund sensing
    keys = [(_model_key(column.quantities),
             k if column.quantities.beta_range else None)
            for column, k in entries]
    distinct = dict(zip(keys, entries))
    if len(distinct) <= 1 or _WORKERS == 1:
        solved = [solve(entry) for entry in distinct.values()]
    else:
        with ThreadPoolExecutor(_WORKERS) as pool:
            solved = list(pool.map(solve, distinct.values()))
    results = dict(zip(distinct, solved))
    return [results[key] for key in keys]


def _optimal_solution(params: SystemParams, record: GridPointStatus,
                      column: _Column, k: int, lp_mu_p: float,
                      low: np.ndarray, high: np.ndarray, share: float
                      ) -> OptimalSolution:
    """The winner at the k-th threshold of a column, as its cold-solved
    ``record`` logs it: the screen's policy, its report and its LP rates.

    The policy is the high one where the floor is slack (``share`` 0), else
    the mix of the occupation measures of the low and high policies,
    normalized per level; a level neither reaches takes the high action.
    """
    q = column.quantities
    kernels, rewards = _point_model(params, column, k)
    levels = np.arange(params.n_states)
    actions = np.zeros((2, 3, params.n_states))
    actions[0, low, levels] = actions[1, high, levels] = 1.0
    mixed = actions[1]
    if share > 0.0:  # the floor binds
        masses = np.array([weight * stationary_distribution(
            kernels[chosen, levels]).pi
            for weight, chosen in ((1.0 - share, low), (share, high))])
        mass = masses.sum(axis=0)
        mixed = np.divide((masses[:, None] * actions).sum(axis=0), mass,
                          out=actions[1], where=mass > 0.0)
    policy = Policy(alpha=mixed[1, q.alpha_range], beta1=mixed[1, q.beta_range],
                    beta2=mixed[2, q.beta_range], tau=record.tau,
                    threshold=record.threshold)
    return OptimalSolution(policy, report(params, policy, q, kernels, rewards),
                           record.objective, lp_mu_p)


def _select_winner(candidates: list[tuple[float, float, float, Any]]) -> Any:
    """Deterministic reduction: max objective, ties to smaller tau then
    lambda; None when there is no candidate."""
    best = max(candidates, key=lambda c: (c[0], -c[1], -c[2]), default=None)
    return None if best is None else best[3]


def optimize(params: SystemParams, grid: GridSpec, scheme: str
             ) -> tuple[OptimalSolution, tuple[GridPointStatus, ...]]:
    """Exhaustive search over the grid; returns the winner and per-point log.

    Screens every column without an LP, each from the previous screened
    column's unconstrained optima, then solves cold the points within
    ``LP_FEASIBILITY_TOL`` of the best and picks the winner among those; the
    winner's policy is the screen's.  See the module docstring.  A point
    that the screen cannot value or whose LP ladder fails is logged as
    ``solver_failure`` and the search goes on.  Raises
    :class:`InfeasibleGridError` carrying the per-point statuses when no
    point is feasible, and :class:`~ehcr.chain.AmbiguousChainError` when
    the all-idle chain has several closed classes.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    harvest = harvesting.harvest_laws(params)
    records: list[GridPointStatus] = []
    # (record index, column, threshold index, objective, screened policies)
    # of every point the screen found optimal
    screened: list[tuple[int, _Column, int, float, tuple]] = []
    screens: dict[float | None, tuple] = {}  # (column, screen) per model key
    start = None  # the last screened column's unconstrained optima
    for scanned in _scan(replace(params, rho=0.0, mu_th=0.0), grid):
        quantities = scanned.quantities
        tau = quantities.tau
        unsupported = _unsupported(quantities, scheme)
        if unsupported == "unsupported_m":
            records.append(GridPointStatus(tau, math.nan, unsupported))
            continue
        thresholds = scanned.thresholds
        if unsupported is not None:
            records.extend(GridPointStatus(tau, threshold, unsupported)
                           for threshold in thresholds)
            continue
        key = _model_key(quantities)
        if key in screens:  # policy iteration from its optimum returns it
            column, screen = screens[key]
        else:
            column = _column(params, scanned, harvest)
            screen = _screen(params, column, scheme, start)
            screens[key] = column, screen
        if screen is None:
            classes = _closed_classes(_point_model(params, column, 0)[0][0])
            if len(classes) > 1:
                raise AmbiguousChainError(classes)
            records.extend(GridPointStatus(tau, threshold, "solver_failure")
                           for threshold in thresholds)
            continue
        objectives, low, high, share, start = screen
        for k, (threshold, objective) in enumerate(zip(thresholds, objectives)):
            if math.isnan(objective):
                records.append(GridPointStatus(tau, threshold, "infeasible"))
                continue
            screened.append((len(records), column, k, float(objective),
                             (low[k], high[k], share[k])))
            records.append(GridPointStatus(tau, threshold, "optimal",
                                           float(objective)))

    # Certify: solve the near-best screened points cold (their records follow
    # the cold solve).  Should all of them fail cold, the next tier competes.
    candidates: list[tuple[float, float, float, tuple]] = []
    while screened and not candidates:
        cutoff = max(entry[3] for entry in screened) - LP_FEASIBILITY_TOL
        near = [entry for entry in screened if entry[3] >= cutoff]
        screened = [entry for entry in screened if entry[3] < cutoff]
        solved = _cold_solve(params, scheme,
                             [(column, k) for _, column, k, _, _ in near])
        for entry, (status, objective, mu_p) in zip(near, solved):
            index, column, k, _, policies = entry
            record = records[index] = replace(records[index], status=status,
                                              objective=objective)
            if mu_p is not None:
                candidates.append((objective, record.tau, record.threshold,
                                   (record, column, k, mu_p, *policies)))
    winner = _select_winner(candidates)
    if winner is None:
        raise InfeasibleGridError(tuple(records))
    return _optimal_solution(params, *winner), tuple(records)
