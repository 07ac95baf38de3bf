"""Grid search for the best access policy, screened without an LP.

For a fixed sensing time and detection threshold the stationary balance
equations become linear once the per-level action probabilities are replaced
by their products with the stationary masses: the occupation vector of
:func:`~ehcr.performance.occupation`.  The secondary success rate and the
licensed-user floor are the rows of :func:`~ehcr.performance.rate_rows` over
the same vector, so each grid point is a small dense LP; an exhaustive search
over the admissible sensing times and a threshold grid then picks the best
feasible point.  Everything but the detector terms depends on the sensing
time alone, so each sensing time is derived, checked against the scheme and
turned into outage probabilities and kernel blocks once, as a column that
every threshold there shares; the column also holds the detection and
false-alarm probabilities of all its thresholds, from one detector call
each, which the screen reads as arrays and every LP indexes.

The search runs in two passes.  The screen values all thresholds of a
column at once as constrained MDPs over the battery levels, with idling,
blind access and sensing as the actions (Puterman 1994, ch. 8-9; Altman
1999, ch. 3).  Batched average-reward policy iteration finds the
unconstrained optimum, the point's value when it clears the floor; the
highest licensed-user rate decides infeasibility; any other point gets the
LP value, that of a mix of two deterministic policies, from a cutting-plane
search on the Lagrangian dual of ``mu_s + nu * (mu_p - mu_th)``.  A column
whose value determination is singular, as with no harvest at all, goes to
the LP point by point.  Every point within ``LP_FEASIBILITY_TOL`` of the
best is then solved cold by the LP, and only these certified candidates
compete: the maximum objective wins, ties broken toward the smaller sensing
time, then the smaller threshold, regardless of evaluation order.  Points
equal in value to within solver noise are common (whole grids can tie), so
the winner is reproducible bit for bit only because the near-ties are
decided on cold solves, and only the winner's policy is recovered from its
LP solution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.special import gammainccinv

from . import harvesting, sensing
from .chain import (
    Policy,
    TransitionComponents,
    harvest_blocks,
    transition_components,
)
from .numerics import LP_FEASIBILITY_TOL, LinearProgram, LpSolution, solve_lp
from .outage import OutageBundle, bundle
from .performance import PerformanceReport, evaluate, rate_rows
from .system_model import (
    ConfigurationError,
    DerivedQuantities,
    SystemParams,
    derive,
    snap_to_int,
)

SCHEMES = ("probabilistic", "sensing_only")

#: stationary mass below which a level counts as unreachable during recovery
RECOVERY_MASS_FLOOR = 1e-12

#: improvement, relative to the reward scale, a policy-iteration step must
#: make to change an action; also the gap that ends the cutting-plane search
_PI_TOL = 1e-12
#: steps of either iteration after which a column is left to the LP
_PI_MAX_STEPS = 100

#: false-alarm extremes the default threshold grid spans at each m
_PFA_SPAN = (0.999, 0.001)
_DEFAULT_LAMBDA_COUNT = 40


@dataclass(frozen=True)
class GridSpec:
    """Search grid: sensing times in multiples of tau_min, threshold rule.

    Thresholds are either the explicit ``lambda_values`` or, by default,
    ``lambda_count`` log-spaced points covering false-alarm probabilities
    from 0.999 down to 0.001 at each time-bandwidth product.
    """

    tau_min: float
    lambda_values: tuple[float, ...] | None = None
    lambda_count: int = _DEFAULT_LAMBDA_COUNT

    def __post_init__(self):
        if not 0 < self.tau_min < math.inf:
            raise ValueError(f"tau_min must be positive and finite, got {self.tau_min}")
        if self.lambda_values is not None:
            values = tuple(float(v) for v in self.lambda_values)
            if not values or any(not 0 < v < math.inf for v in values):
                raise ValueError("explicit lambda_values must be positive and finite")
            object.__setattr__(self, "lambda_values", values)
        elif not (isinstance(self.lambda_count, int) and self.lambda_count >= 1):
            raise ValueError(f"lambda_count must be an integer >= 1, got {self.lambda_count!r}")

    def tau_values(self, params: SystemParams) -> tuple[float, ...]:
        """Multiples of tau_min up to T - tau_min, each with integral tau*W."""
        if self.tau_min >= params.T:
            raise ValueError(
                f"tau_min {self.tau_min} leaves no admissible sensing time "
                f"in a slot of {params.T}"
            )
        values = []
        k = 1
        while True:
            tau = k * self.tau_min
            if tau > params.T - self.tau_min + 1e-15 * params.T:
                break
            if snap_to_int(tau * params.W) is None:
                raise ValueError(
                    f"grid sensing time {tau} gives non-integral tau*W = "
                    f"{tau * params.W!r}"
                )
            values.append(tau)
            k += 1
        if not values:
            raise ValueError("empty sensing-time grid")
        return tuple(values)

    def lambda_grid(self, m: int) -> tuple[float, ...]:
        """Thresholds searched at time-bandwidth product ``m``."""
        if self.lambda_values is not None:
            return self.lambda_values
        hi_pf, lo_pf = _PFA_SPAN
        lo = 2.0 * float(gammainccinv(m, hi_pf))
        hi = 2.0 * float(gammainccinv(m, lo_pf))
        return tuple(np.geomspace(lo, hi, self.lambda_count))


@dataclass(frozen=True)
class SubstitutedVariables:
    """LP solution in the product variables, alongside its stationary vector."""

    pi: np.ndarray
    alpha_tilde: np.ndarray
    beta1_tilde: np.ndarray
    beta2_tilde: np.ndarray


@dataclass(frozen=True)
class OptimalSolution:
    """Best feasible policy found, with its analytical evaluation."""

    policy: Policy
    report: PerformanceReport
    substituted: SubstitutedVariables
    scheme: str
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
    #: | "solver_failure" (every rung of the LP ladder failed)
    status: str
    #: optimum; the screen's value unless the point was solved by the LP
    objective: float | None = None


class InfeasibleGridError(RuntimeError):
    """No grid point admitted a policy satisfying the licensed-user floor."""

    def __init__(self, records: tuple[GridPointStatus, ...]):
        self.records = records
        counts: dict[str, int] = {}
        for rec in records:
            counts[rec.status] = counts.get(rec.status, 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        super().__init__(f"no feasible grid point ({summary})")


def _build_lp(params: SystemParams, components: TransitionComponents,
              mu_s_row: np.ndarray, mu_p_row: np.ndarray,
              scheme: str) -> LinearProgram:
    """Assemble the policy LP at one grid point.

    The variables are the occupation vector of
    :func:`~ehcr.performance.occupation`, and ``mu_s_row``/``mu_p_row`` are
    :func:`~ehcr.performance.rate_rows` over it: the objective and the
    licensed-user floor, which enters as one inequality.  Balance rows use the
    affine kernel decomposition, and each level's products may not exceed its
    mass.  The sensing-only scheme pins the blind product variables to zero
    through their bounds.
    """
    n = components.n_states
    alpha_range, beta_range = components.alpha_range, components.beta_range
    ka, kb = len(alpha_range), len(beta_range)
    nvars = n + ka + 2 * kb
    alpha_rows = slice(alpha_range.start, alpha_range.stop)
    beta_rows = slice(beta_range.start, beta_range.stop)

    balance = np.hstack([components.idle.T - np.eye(n),
                         components.blind_delta[alpha_rows].T,
                         components.blind_delta[beta_rows].T,
                         components.sense_delta[beta_rows].T])
    normalization = np.concatenate([np.ones(n), np.zeros(ka + 2 * kb)])
    eq_matrix = np.vstack([balance, normalization])
    eq_rhs = np.concatenate([np.zeros(n), [1.0]])

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

    unit = (0.0, 1.0)
    pinned = (0.0, 0.0)
    blind_bound = pinned if scheme == "sensing_only" else unit
    bounds = ([unit] * n + [blind_bound] * ka + [blind_bound] * kb + [unit] * kb)

    return LinearProgram(
        objective=mu_s_row,
        eq_matrix=eq_matrix,
        eq_rhs=eq_rhs,
        ub_matrix=ub_matrix,
        ub_rhs=ub_rhs,
        bounds=tuple(bounds),
    )


def _recover(masses: np.ndarray, products: np.ndarray, levels: range) -> np.ndarray:
    """Divide product variables by stationary mass, zeroing unreachable levels."""
    mass = masses[levels.start:levels.stop]
    reachable = mass > RECOVERY_MASS_FLOOR
    out = np.zeros(len(levels))
    out[reachable] = np.clip(products[reachable] / mass[reachable], 0.0, 1.0)
    return out


@dataclass(frozen=True)
class _Column:
    """What one sensing time fixes for its K threshold LPs, and their detector."""

    quantities: DerivedQuantities
    outages: OutageBundle
    blocks: np.ndarray  # (2, 4, n, n) harvest blocks
    thresholds: tuple[float, ...]
    p_d: np.ndarray  # (K,) averaged detection probabilities
    p_f: np.ndarray  # (K,) false-alarm probabilities


def _column(params: SystemParams, quantities: DerivedQuantities,
            harvest: tuple, thresholds: tuple[float, ...]) -> _Column:
    """The column of a sensing time: its outages and kernel blocks, and one
    detector evaluation over all its thresholds."""
    cfg = sensing.SensingConfig(quantities.tau, np.asarray(thresholds, dtype=float),
                                quantities.m)
    return _Column(quantities, bundle(params, quantities),
                   harvest_blocks(params, quantities, *harvest), thresholds,
                   sensing.detection_avg(cfg, quantities.gamma_bar),
                   sensing.false_alarm(cfg))


def _unsupported(params: SystemParams, quantities: DerivedQuantities,
                 scheme: str) -> tuple[str, str] | None:
    """(grid status, reason) when no threshold at this sensing time can host
    the scheme: a time-bandwidth product below 2 leaves averaged detection
    undefined, and the sensing-only scheme needs a battery that can fund
    sensing.  None when the sensing time is usable."""
    if quantities.m < 2:
        return "unsupported_m", (
            f"time-bandwidth product m={quantities.m} is below the minimum "
            f"of 2 required by the averaged detector")
    if scheme == "sensing_only" and not quantities.beta_range:
        return "sensing_unreachable", (
            f"sensing-only scheme impossible: n_t + n_s = "
            f"{quantities.n_t + quantities.n_s} exceeds N_max = {params.N_max}")
    return None


def _point_rows(params: SystemParams, column: _Column, points: int | slice
                ) -> tuple[TransitionComponents, np.ndarray, np.ndarray]:
    """Kernel components and (mu_s, mu_p) rate rows at the thresholds
    ``points`` of a column: an index for the policy LP, a slice for the screen."""
    q = column.quantities
    p_d, p_f = column.p_d[points], column.p_f[points]
    components = transition_components(params, q, column.blocks, p_d, p_f)
    return components, *rate_rows(params, column.outages, p_d, p_f,
                                  q.alpha_range, q.beta_range)


def _point_lp(params: SystemParams, column: _Column, k: int,
              scheme: str) -> tuple[LinearProgram, np.ndarray]:
    """The policy LP at the k-th threshold of a column, and its mu_p row."""
    components, mu_s_row, mu_p_row = _point_rows(params, column, k)
    return _build_lp(params, components, mu_s_row, mu_p_row, scheme), mu_p_row


def _column_mdp(params: SystemParams, column: _Column, scheme: str
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A column's thresholds as a batch of MDPs over the battery levels.

    Returns the (K, 3, n, n) kernels and (K, 3, n, 2) (mu_s, mu_p) rewards of
    idling, blind access and sensing at each level, read off the column's
    transition components and rate rows, and the (3, n) mask of the actions
    each level admits; the sensing-only scheme admits no blind access.
    """
    q = column.quantities
    n = params.n_states
    acting, sensing_from = q.alpha_range.start, q.beta_range.start
    components, mu_s_rows, mu_p_rows = _point_rows(params, column, slice(None))
    idle = components.idle
    kernels = np.stack(np.broadcast_arrays(
        idle, idle + components.blind_delta, idle + components.sense_delta), axis=1)
    rows = np.stack([mu_s_rows, mu_p_rows], axis=-1)
    rewards = np.repeat(rows[:, None, :n], 3, axis=1)
    rewards[:, 1, acting:] += rows[:, n:2 * n - acting]
    rewards[:, 2, sensing_from:] += rows[:, 2 * n - acting:]
    # each action is admitted from its first affordable level up
    blind_from = n if scheme == "sensing_only" else acting
    allowed = np.arange(n) >= np.array([[0], [blind_from], [sensing_from]])
    return kernels, rewards, allowed


def _policy_iteration(kernels: np.ndarray, rewards: np.ndarray,
                      allowed: np.ndarray, weights) -> np.ndarray | None:
    """Gains (K, 2) of (mu_s, mu_p) under a deterministic policy maximizing
    the average of ``rewards @ weights`` in each MDP of the batch; ``weights``
    is one (2,) pair or a (K, 2) stack.

    Average-reward policy iteration from the all-idle policy.  Value
    determination solves ``g + h = r + P h`` with ``h`` pinned to zero at
    level 0, one ``np.linalg.solve`` for the whole batch; a level changes
    action only for a gain above the tolerance.  None when a solve is
    singular or not finite (a policy with several closed classes) or the
    iteration does not settle.
    """
    count, _, n, _ = rewards.shape
    weights = np.broadcast_to(weights, (count, 2))
    batch, levels = np.arange(count)[:, None], np.arange(n)
    weighted = (rewards @ weights[:, None, :, None])[..., 0]
    tol = _PI_TOL * (1.0 + np.abs(weights).sum(axis=1))[:, None]
    policy = np.zeros((count, n), dtype=int)
    for _ in range(_PI_MAX_STEPS):
        system = np.eye(n) - kernels[batch, policy, levels]
        system[:, :, 0] = 1.0  # the gain takes the place of h at level 0
        try:
            solved = np.linalg.solve(system, rewards[batch, policy, levels])
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(solved)):
            return None
        bias = solved @ weights[:, :, None]
        bias[:, 0] = 0.0
        values = weighted + (kernels @ bias[:, None])[..., 0]
        values[:, ~allowed] = -np.inf
        better = values.max(axis=1) > values[batch, policy, levels] + tol
        if not better.any():
            return solved[:, 0]
        policy = np.where(better, values.argmax(axis=1), policy)
    return None


def _screen(params: SystemParams, column: _Column,
            scheme: str) -> np.ndarray | None:
    """Optimal LP objective at each threshold of a column, NaN where the
    floor is out of reach, found without an LP; see the module docstring.

    A point whose unconstrained optimum misses the floor gets the minimum
    over nu >= 0 of the dual ``max mu_s + nu * (mu_p - mu_th)`` by cutting
    planes: the lines of a policy below and one on or above the floor meet
    at the next nu, and the search stops once no policy rises above them
    there.  The value is then that of the mix of the two policies meeting
    the floor.  None when a policy iteration fails.
    """
    kernels, rewards, allowed = _column_mdp(params, column, scheme)
    mu_th = params.mu_th

    def solve(points: np.ndarray, weights) -> np.ndarray | None:
        return _policy_iteration(kernels[points], rewards[points], allowed, weights)

    free = solve(np.arange(len(column.thresholds)), (1.0, 0.0))
    if free is None:
        return None
    objective = free[:, 0].copy()
    points = np.nonzero(free[:, 1] < mu_th)[0]
    safe = solve(points, (0.0, 1.0))  # the highest licensed-user rate
    if safe is None:
        return None
    reachable = safe[:, 1] >= mu_th
    objective[points[~reachable]] = np.nan
    points, low, high = points[reachable], free[points[reachable]], safe[reachable]
    for _ in range(_PI_MAX_STEPS):
        if not points.size:
            return objective
        # low's line falls and high's rises in nu; they meet at nu
        nu = np.maximum((low[:, 0] - high[:, 0]) / (high[:, 1] - low[:, 1]), 0.0)
        cut = solve(points, np.stack([np.ones_like(nu), nu], axis=1))
        if cut is None:
            return None
        gap = (cut[:, 0] - low[:, 0]) + nu * (cut[:, 1] - low[:, 1])
        done = gap <= _PI_TOL * (1.0 + nu)
        share = (mu_th - low[done, 1]) / (high[done, 1] - low[done, 1])
        objective[points[done]] = low[done, 0] + share * (high[done, 0] - low[done, 0])
        below = (cut[:, 1] < mu_th)[:, None]
        low, high = np.where(below, cut, low), np.where(below, high, cut)
        points, low, high = points[~done], low[~done], high[~done]
    return None


def _solve_point(lp: LinearProgram, tau: float, threshold: float
                 ) -> tuple[GridPointStatus, LpSolution | None]:
    """Status record and cold solution (None unless optimal) of a point's LP."""
    try:
        solution = solve_lp(lp)
    except RuntimeError:
        return GridPointStatus(tau, threshold, "solver_failure"), None
    if solution.status != "optimal":
        return GridPointStatus(tau, threshold, "infeasible"), None
    return GridPointStatus(tau, threshold, "optimal", solution.objective_value), solution


def _optimal_solution(params: SystemParams, scheme: str, column: _Column,
                      k: int, solution: LpSolution,
                      mu_p_row: np.ndarray) -> OptimalSolution:
    """Recover the policy of an optimal LP answer at the k-th threshold of a
    column and evaluate it."""
    q = column.quantities
    x = solution.x
    n, ka, kb = params.n_states, len(q.alpha_range), len(q.beta_range)
    substituted = SubstitutedVariables(*np.split(x.copy(), [n, n + ka, n + ka + kb]))
    policy = Policy(
        alpha=_recover(substituted.pi, substituted.alpha_tilde, q.alpha_range),
        beta1=_recover(substituted.pi, substituted.beta1_tilde, q.beta_range),
        beta2=_recover(substituted.pi, substituted.beta2_tilde, q.beta_range),
        tau=q.tau,
        threshold=column.thresholds[k],
    )
    return OptimalSolution(
        policy=policy,
        report=evaluate(params, policy),
        substituted=substituted,
        scheme=scheme,
        lp_objective=float(solution.objective_value),
        lp_mu_p=float(mu_p_row @ x),
    )


def solve_fixed(params: SystemParams, tau: float, threshold: float, scheme: str
                ) -> OptimalSolution | None:
    """Best policy at one (tau, threshold) point, or None when infeasible.

    Raises :class:`ConfigurationError` when the point cannot host the scheme:
    a time-bandwidth product of 1 (averaged detection undefined) or, for the
    sensing-only scheme, a battery too small to ever fund sensing.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    quantities = derive(params, tau)
    unsupported = _unsupported(params, quantities, scheme)
    if unsupported is not None:
        raise ConfigurationError(unsupported[1])
    column = _column(params, quantities, harvesting.harvest_laws(params),
                     (threshold,))
    lp, mu_p_row = _point_lp(params, column, 0, scheme)
    solution = solve_lp(lp)
    if solution.status != "optimal":
        return None
    return _optimal_solution(params, scheme, column, 0, solution, mu_p_row)


def _select_winner(candidates: list[tuple[float, float, float, Any]]) -> Any:
    """Deterministic reduction: max objective, ties to smaller tau then lambda."""
    best = None
    best_key = None
    for objective, tau, threshold, solution in candidates:
        key = (objective, -tau, -threshold)
        if best_key is None or key > best_key:
            best = solution
            best_key = key
    return best


def optimize(params: SystemParams, grid: GridSpec, scheme: str
             ) -> tuple[OptimalSolution, tuple[GridPointStatus, ...]]:
    """Exhaustive search over the grid; returns the winner and per-point log.

    Screens every column without an LP (by LP where the screen fails), then
    solves cold the points within ``LP_FEASIBILITY_TOL`` of the best and
    picks the winner among those; see the module docstring.  A point whose
    LP ladder fails is logged as ``solver_failure`` and the search goes on.
    Raises :class:`InfeasibleGridError` carrying the per-point statuses when
    no point is feasible.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    harvest = harvesting.harvest_laws(params)
    records: list[GridPointStatus] = []
    # (record index, column, threshold index, objective, solution) of every
    # optimal point; a screened point has no LP solution until the certify pass
    screened: list[tuple[int, _Column, int, float, LpSolution | None]] = []
    for tau in grid.tau_values(params):
        quantities = derive(params, tau)
        unsupported = _unsupported(params, quantities, scheme)
        if unsupported is not None and unsupported[0] == "unsupported_m":
            records.append(GridPointStatus(tau, math.nan, "unsupported_m"))
            continue
        thresholds = grid.lambda_grid(quantities.m)
        if unsupported is not None:
            records.extend(GridPointStatus(tau, threshold, unsupported[0])
                           for threshold in thresholds)
            continue
        column = _column(params, quantities, harvest, thresholds)
        objectives = _screen(params, column, scheme)
        for k, threshold in enumerate(thresholds):
            solution = None
            if objectives is None:
                lp, _ = _point_lp(params, column, k, scheme)
                record, solution = _solve_point(lp, tau, threshold)
            elif math.isnan(objectives[k]):
                record = GridPointStatus(tau, threshold, "infeasible")
            else:
                record = GridPointStatus(tau, threshold, "optimal", float(objectives[k]))
            if record.status == "optimal":
                screened.append((len(records), column, k, record.objective,
                                 solution))
            records.append(record)

    # Certify: solve the near-best screened points cold (their records follow
    # the cold solve).  Should all of them fail cold, the next tier competes.
    candidates: list[tuple[float, float, float, tuple]] = []
    while screened and not candidates:
        cutoff = max(entry[3] for entry in screened) - LP_FEASIBILITY_TOL
        near = [entry for entry in screened if entry[3] >= cutoff]
        screened = [entry for entry in screened if entry[3] < cutoff]
        for index, column, k, _, solution in near:
            tau, threshold = column.quantities.tau, column.thresholds[k]
            lp, mu_p_row = _point_lp(params, column, k, scheme)
            if solution is None:
                records[index], solution = _solve_point(lp, tau, threshold)
            if solution is not None:
                candidates.append((solution.objective_value, tau, threshold,
                                   (column, k, solution, mu_p_row)))
    winner = _select_winner(candidates)
    if winner is None:
        raise InfeasibleGridError(tuple(records))
    return _optimal_solution(params, scheme, *winner), tuple(records)
