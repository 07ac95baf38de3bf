"""Grid search for the best access policy, screened without an LP.

At each battery level the secondary idles, accesses blindly or senses; the
model of that choice is the per-action kernels of
:func:`~ehcr.chain.idle_blind_kernels` and
:func:`~ehcr.chain.sense_kernels` and the (mu_s, mu_p) rewards of
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
many to keep for a whole search at a large battery, so no column holds
them: the screen, the LP skeleton and the winner's report each gather the
blocks they read, as rows of the level matrices memoized on the harvest
laws, and drop them.  The idle and blind kernels read the blocks at the
consumptions 0 and ``n_t`` alone, the same rows at every sensing time, so
a search builds them once, from its first screened column.

The screen values all thresholds of a column at once as constrained MDPs
(Puterman 1994, ch. 8-9; Altman 1999, ch. 3).  Batched average-reward
policy iteration finds the unconstrained optimum, the point's value and
policy when it clears the floor; the highest licensed-user rate decides
infeasibility; any other point gets the LP value from a cutting-plane
search on the Lagrangian dual of ``mu_s + nu * (mu_p - mu_th)``, and as
policy the mix of the occupation measures of the two deterministic policies
bracketing the floor, which randomizes at most one reachable level (Beutler
& Ross 1985).  No pass builds a sensing kernel per threshold: value
determination fills each chosen sensing row from the column's kernel
blocks by the kernel's own expression, and improvement applies that
expression to the blocks' products with the biases, so a screen holds a
step's (K, n, n) systems and no sensing stack.  Each column's
unconstrained pass starts from the previous column's optimum (it can end
elsewhere only where policies tie); every other pass, and one whose warm
start fails, starts from all-idle's first improvement, the greedy choice
of the weighted rewards, as all-idle's bias is zero; no pass runs on an
empty set of points.  Policies that never sense read the idle/blind kernel
pair and the idle and blind rewards alone, which are the same at every
threshold and sensing time, so a search solves each distinct such system
once, whatever the column, pass or step that meets it.  A sensing time
that cannot fund sensing admits no sensing, and nothing else of its model
depends on the sensing time, so the later ones reuse the first one's
column and screen: their passes would start from its optimum of the same
model and return it.  None of this sharing changes a bit.  The all-idle
chain is the same in every column, and a search raises before its first
screen when that chain has several closed classes: no harvest, or one too
rare for :func:`~ehcr.chain.stationary_distribution` to count as an edge.
A column the screen cannot value is logged as failed.

The LP of a point is the same model in the occupation vector (pi,
pi*alpha, pi*beta1, pi*beta2), in which the balance equations, the floor
and the objective are linear.  It only ranks near-ties, and runs only
when two or more points are near-best: a lone point within
``LP_FEASIBILITY_TOL`` of the best wins as screened.  Two or more are solved
cold, once per distinct LP (all points of the sensing times that cannot
fund sensing share one), and the best of them wins, ties broken toward the
smaller sensing time, then the smaller threshold, in any evaluation order.
Whole grids can tie to within solver noise, so the winner is reproducible
bit for bit only because the near-ties are ranked on cold solves.  The cold
LPs set only the statuses and the ranking: a cold value is good to the LP's
feasibility tolerance, which can dwarf a tiny rate, so every record keeps
its screened objective and the winner the screen's claimed rates.  It is
reported from the kernels and rewards of the column it was screened on, and
its claimed rates cross-check that report.  Only an LP's sensing columns
read its threshold, so a certify tier builds the LPs of each column it
touches as one stack of dense programs, the rest of the program filled once
and every threshold's sensing columns by one sensing-kernel expression, and
hands the stacks to :func:`~ehcr.numerics._solve_stacks`, which takes each
while the last one's solves run on the LP threads; each LP is solved alone,
so the results do not depend on the thread count.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Any, NamedTuple

import numpy as np
from scipy.special import gammainccinv

from . import harvesting, sensing
from .chain import (
    Policy,
    _bordered,
    _require_unichain,
    harvest_blocks,
    idle_blind_kernels,
    sense_kernels,
    stationary_distribution,
    transition_components,
)
from .numerics import LP_FEASIBILITY_TOL, _solve_stacks
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
#: most floats of the systems that value determination gathers, borders
#: and solves at a time, 1 MB: all of a step's at the preset battery, one
#: at a time from N_max 256; their sensing rows gather as many per block
_GATHER_FLOATS = 1 << 17

#: false-alarm extremes the default threshold grid spans at each m
_PFA_SPAN = (0.999, 0.001)

#: most sensing times a grid may hold
_MAX_SENSING_TIMES = 10_000

#: most dense floats of one stack of cold LPs, 256 kB: some 23 LPs at the
#: preset battery, one LP at a time at a large one
_STACK_FLOATS = 1 << 15


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
    rates of the point's LP optimum as the screen claims them, which
    cross-check ``report.mu_s`` and ``report.mu_p``.  A cold LP ranked the
    winner when two or more points were near-best, and none was solved
    otherwise.
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


class GridPointStatus(NamedTuple):
    """Outcome of one (tau, lambda) grid point."""

    tau: float
    threshold: float
    #: "optimal" | "infeasible" | "unsupported_m" | "sensing_unreachable"
    #: | "solver_failure" (the screen could not value the point's column, or
    #: every rung of the LP ladder failed on it)
    status: str
    #: optimum, the screen's value; the near-best points, when two or more of
    #: them tie, are also solved by the LP, which sets their status and rank
    objective: float | None = None


class InfeasibleGridError(RuntimeError):
    """No grid point admitted a policy satisfying the licensed-user floor."""

    def __init__(self, records: tuple[GridPointStatus, ...]):
        self.records = records
        counts = sorted(Counter(rec.status for rec in records).items())
        summary = ", ".join(f"{k}: {v}" for k, v in counts)
        super().__init__(f"no feasible grid point ({summary})")


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


@dataclass(frozen=True, eq=False)
class _Column:
    """What one sensing time fixes for its K threshold LPs, and their detector.
    The sensing times of a search that cannot fund sensing share the first one's
    object, equal only to itself, as none reads its detector or sensing blocks.
    Its kernel blocks are not held: :func:`_blocks` gathers them where read."""

    quantities: DerivedQuantities
    thresholds: tuple[float, ...]
    outages: OutageBundle
    p_d: np.ndarray  # (K,) averaged detection probabilities
    p_f: np.ndarray  # (K,) false-alarm probabilities
    rewards: np.ndarray  # (K, 3, 2) action rewards at each threshold


def _column(params: SystemParams, scanned: _Scanned) -> _Column:
    """The column of a scanned sensing time: its scanned outages and detector
    terms, and the rewards."""
    q, (outages, p_d, p_f) = scanned.quantities, scanned.terms
    return _Column(q, scanned.thresholds, outages, p_d, p_f,
                   action_rewards(params, outages, p_d, p_f))


def _blocks(params: SystemParams, column: _Column) -> np.ndarray:
    """The (2, 4, n, n) kernel blocks of a column, gathered afresh from the
    level matrices memoized on the harvest laws of ``params``."""
    return harvest_blocks(params, column.quantities,
                          *harvesting.harvest_laws(params))


def _stacked(idle_blind: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The (6, n, n) kernels a screen reads: the idle and blind kernels, then
    the four kernel blocks that :func:`~ehcr.chain.sense_kernels` reads
    (silent, then active; sensing, then sensing and transmission)."""
    return np.concatenate([idle_blind, blocks[0, 2:], blocks[1, 2:]])


def _lp_shape(params: SystemParams, column: _Column) -> tuple[int, int]:
    """The rows (the floor, a cap per acting level, the balance equations
    and the normalization) and the variables of a column's policy LPs."""
    q, n = column.quantities, params.n_states
    acting = len(q.alpha_range) + len(q.beta_range)
    return 2 + acting + n, n + acting + len(q.beta_range)


def _column_lps(params: SystemParams, column: _Column, scheme: str,
                ks) -> tuple[np.ndarray, ...]:
    """The policy LPs of the thresholds ``ks`` of a column, as one stack of
    the dense :func:`~ehcr.numerics.solve_lp` arrays: each with a leading
    axis over ``ks``.

    The variables are the occupation vector (pi, pi*alpha, pi*beta1,
    pi*beta2), in which the kernel and both rates are affine: the masses
    carry the idle reward, each product its action's change from idling.
    The objective is the secondary rate; the inequality rows are the
    licensed-user floor and a cap per acting level (beta levels after alpha
    levels) on its products by its mass, the equality rows the balance
    equations and the normalization.  The sensing-only scheme pins the
    blind products to zero by their bounds.  Only the floor row and the kb
    pi*beta2 columns read the detector, so the rest of the program is filled
    once, from the column's blocks gathered here, and the sensing kernels
    of all of ``ks`` are one :func:`~ehcr.chain.sense_kernels` on (K, 1, 1)
    detector arrays, the expression of each threshold's own, so its bits.
    The right-hand sides and bounds, the same in every program, are
    read-only broadcasts.
    """
    q = column.quantities
    n, first = params.n_states, q.alpha_range.start
    ka, kb = len(q.alpha_range), len(q.beta_range)
    acting, beta = ka + kb, slice(q.beta_range.start, n)
    blocks = _blocks(params, column)
    idle, blind = idle_blind_kernels(params, blocks)
    rewards = column.rewards
    # (K, 2, 3): (mu_s, mu_p) of idling, then each action's change from it;
    # only sensing's reads the threshold, so the skeleton takes the first's
    rates = np.concatenate([rewards[:, :1], rewards[:, 1:] - rewards[:, :1]],
                           axis=1).transpose(0, 2, 1)
    mu_s, mu_p = np.repeat(rates[0, :, :2], [n, acting], axis=1)
    ks = np.asarray(ks)
    levels, ineq, sensing = np.arange(acting), 1 + acting, slice(n + acting, None)
    matrix = np.zeros((len(ks), *_lp_shape(params, column)))
    matrix[:, 0, :n + acting] = -mu_p
    matrix[:, 0, sensing] = -rates[ks, 1, 2, None]
    matrix[:, 1 + levels, first + levels] = -1.0
    matrix[:, 1 + levels, n + levels] = 1.0
    matrix[:, 1 + levels[ka:], sensing] = np.eye(kb)
    matrix[:, ineq:-1, :n + acting] = np.hstack([idle.T - np.eye(n),
                                                 (blind - idle)[first:].T])
    sense = sense_kernels(params, blocks[:, 2:, beta],
                          column.p_d[ks, None, None], column.p_f[ks, None, None])
    matrix[:, ineq:-1, sensing] = (sense - idle[beta]).transpose(0, 2, 1)
    matrix[:, -1, :n] = 1.0
    objective = np.empty(matrix.shape[::2])
    objective[:, :n + acting] = mu_s
    objective[:, sensing] = rates[ks, 0, 2, None]
    rhs = np.concatenate([[-params.mu_th], np.zeros(acting + n), [1.0]])
    bounds = np.tile([0.0, 1.0], (n + acting + kb, 1))
    bounds[n:n + acting, 1] = scheme != "sensing_only"  # 0 pins blind access off
    rhs, bounds = (np.broadcast_to(a, (len(ks), *a.shape))
                   for a in (rhs, bounds))
    return (objective, matrix[:, ineq:], rhs[:, ineq:], matrix[:, :ineq],
            rhs[:, :ineq], bounds)


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


def _sense_in_place(params: SystemParams, blocks: np.ndarray, p_d, p_f
                    ) -> np.ndarray:
    """:func:`~ehcr.chain.sense_kernels` of the (2, 2, ...) ``blocks`` it
    reads, evaluated in its order in place, so to the same bits: the result
    overwrites ``blocks[0, 0]`` and is returned, and the other three blocks
    are spent."""
    (silent, silent_tx), (active, active_tx) = blocks
    silent *= p_f
    silent_tx *= 1.0 - p_f
    silent += silent_tx
    silent *= 1.0 - params.rho
    active *= p_d
    active_tx *= 1.0 - p_d
    active += active_tx
    active *= params.rho
    silent += active
    return silent


def _policy_iteration(params: SystemParams, kernels: np.ndarray,
                      p_d: np.ndarray, p_f: np.ndarray, rewards: np.ndarray,
                      allowed: np.ndarray, weights,
                      policy: np.ndarray | None = None,
                      never_sensing: dict[bytes, np.ndarray] | None = None
                      ) -> tuple[np.ndarray, np.ndarray] | None:
    """Gains (K, 2) of (mu_s, mu_p) and action indices (K, n) of a
    deterministic policy maximizing the average of ``rewards @ weights`` in
    each MDP of the batch: the (2, n, n) idle and blind kernels that every
    point shares, stacked in ``kernels`` above the four (n, n) blocks that
    :func:`~ehcr.chain.sense_kernels` reads (silent, then active; sensing,
    then sensing and transmission), from which it builds the sensing kernel
    of the averaged detection and false-alarm probabilities ``p_d`` and
    ``p_f`` at each of the K points, and the (K, 3, 2) rewards of the three
    actions, which ``allowed`` admits per level.  ``weights`` is one (2,)
    pair or a (K, 2) stack.

    Average-reward policy iteration from the admitted (K, n) actions
    ``policy``, or, when None, from all-idle's first improvement: all-idle's
    weighted reward is the same at every level, so its bias is zero and
    that improvement is the greedy choice; it converges from any start.
    Value determination solves ``g + h = r + P h`` with ``h`` pinned to zero
    at level 0 and ``g`` in its place, by ``np.linalg.solve`` of the
    batch's :func:`~ehcr.chain._bordered` systems, gathered, bordered and
    solved at most ``_GATHER_FLOATS`` floats at a time (a stack's matrices
    are factored one by one, so the chunks change no bit); a level changes
    action only for a gain above the tolerance.  No (K, n, n) sensing stack
    is built: a system's sensing rows are the kernel's expression, evaluated
    in its order in place on the blocks' rows, gathered with their chunk's
    systems, so they equal the stack's bit for bit, and the improvement
    applies the kernel to the blocks' products with the biases, taken with
    the idle and blind ones as one product, which round within an ulp or so
    of the stack's.  A point that senses is solved as its own.  A policy
    that never senses reads only the idle and blind rows and rewards, the
    same at every point and sensing time of a search (``action_rewards``
    broadcasts them over the thresholds, and reads no sensing time for
    them), so each distinct one is solved once and its (n, 2) solution kept
    in ``never_sensing`` under the bytes of its actions; the screens of a
    search share it.  None when a solve is singular or not finite (a policy
    with several closed classes) or the iteration does not settle.
    """
    count, n = len(p_d), kernels.shape[-1]
    blocks = kernels[2:].reshape(2, 2, n, n)
    weights = np.asarray(weights, dtype=float)
    batch, levels = np.arange(count), np.arange(n)
    # (3, 1, K): each action's weighted reward, the same at every level
    weighted = (rewards @ weights[..., None])[..., 0].T[:, None]
    tol = _PI_TOL * (1.0 + np.abs(weights).sum(axis=-1))
    chunk = max(1, _GATHER_FLOATS // n**2)  # systems solved at a time
    known = {} if never_sensing is None else never_sensing
    barred = ~allowed

    def improve(values: np.ndarray, policy: np.ndarray) -> np.ndarray | None:
        """The improved policy of the (3, n, K) action values, or None when
        no level gains above the tolerance."""
        values[barred] = -np.inf
        better = values.max(axis=0) > values[policy.T, levels[:, None], batch] + tol
        if not better.any():
            return None
        improved = policy.copy()
        improved.T[better] = values[:, better].argmax(axis=0)
        return improved

    steps = _PI_MAX_STEPS
    if policy is None:
        policy = np.zeros((count, n), dtype=int)
        greedy = improve(np.repeat(weighted, n, axis=1), policy)
        if greedy is not None:  # the step that would have solved all-idle
            policy, steps = greedy, steps - 1
    row_bytes = np.dtype((np.void, n * policy.itemsize))  # a policy's key
    for _ in range(steps):
        senses = (policy == 2).any(axis=1)
        own, free = batch, None
        if not senses.all():
            # the never-sensing points: the first of each policy not solved
            # before is solved, the rest read its solution
            free = np.flatnonzero(~senses)
            keys = policy[free].view(row_bytes).ravel().tolist()
            distinct = {key: i for i, key in enumerate(dict.fromkeys(keys))}
            fresh = {key: free[keys.index(key)] for key in distinct
                     if key not in known}
            own = np.concatenate([np.flatnonzero(senses),
                                  np.fromiter(fresh.values(), int, len(fresh))])
        solved = np.empty((count, n, 2))
        for part in range(0, own.size, chunk):
            points = own[part:part + chunk]
            chosen = policy[points]
            rows = kernels[np.minimum(chosen, 1), levels]
            system, level = np.nonzero(chosen == 2)
            rows[system, level] = _sense_in_place(
                params, np.take(blocks, level, axis=2),
                p_d[points[system], None], p_f[points[system], None])
            try:
                ours = np.linalg.solve(_bordered(rows),
                                       rewards[points[:, None], chosen])
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(ours)):
                return None
            solved[points] = ours
        if free is not None:
            known.update((key, solved[k].copy()) for key, k in fresh.items())
            solved[free] = np.array([known[key] for key in distinct])[
                [distinct[key] for key in keys]]
        bias = solved @ weights[..., None]
        bias[:, 0] = 0.0
        # (6, n, K): each kernel and sensing block times each point's bias,
        # as a column; the sensing kernel's column takes the third's place
        products = kernels @ bias[:, :, 0].T
        _sense_in_place(params, products[2:].reshape(2, 2, n, count), p_d, p_f)
        values = products[:3]
        values += weighted
        improved = improve(values, policy)
        if improved is None:
            return solved[:, 0], policy
        policy = improved
    return None


def _screen(params: SystemParams, column: _Column, scheme: str,
            start: np.ndarray | None = None, kernels: np.ndarray | None = None,
            never_sensing: dict[bytes, np.ndarray] | None = None
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                       np.ndarray, np.ndarray] | None:
    """Optimal LP objective and its licensed-user rate at each threshold of a
    column, NaN where the floor is out of reach, found without an LP, and
    the policies that attain them; see the module docstring.

    The unconstrained pass starts from ``start``, the (K, n) unconstrained
    optima of the previous column, projected onto the actions this column
    admits (idle where one is not), and is rerun from all-idle's first
    improvement when that fails, so a failed warm start never fails a
    column; None starts it there, as every later pass starts.  A point whose
    unconstrained optimum misses the floor gets the minimum over nu >= 0 of
    the dual ``max mu_s + nu * (mu_p - mu_th)`` by cutting planes: the lines
    of a policy below and one on or above the floor meet at the next nu, and
    the search stops once no policy rises above them there.  The value is
    then that of the mix of the two policies meeting the floor.  Returns the
    objectives, their licensed-user rates (the unconstrained optimum's where
    the floor is slack, the mix's where it binds), the (K, n) actions of the
    low and high policy at each point, the (K,) share ``s`` of the high one
    in their mix (0, with both the unconstrained optimum, where the floor is
    slack) and the unconstrained optima, the next column's start.  None
    when a policy iteration fails.

    Every pass reads the column's :func:`_stacked` ``kernels``, built here
    from the column's own blocks when None, from which
    :func:`_policy_iteration` builds only the rows and products it needs,
    and shares ``never_sensing``, a search's never-sensing solutions, or
    the screen's own when None.
    """
    if kernels is None:
        blocks = _blocks(params, column)
        kernels = _stacked(idle_blind_kernels(params, blocks), blocks)
        del blocks
    if never_sensing is None:
        never_sensing = {}
    allowed = _admitted(params, column.quantities, scheme)
    mu_th = params.mu_th

    def solve(points: np.ndarray, weights, policy=None):
        return _policy_iteration(params, kernels, column.p_d[points],
                                 column.p_f[points], column.rewards[points],
                                 allowed, weights, policy=policy,
                                 never_sensing=never_sensing)

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
    objective, mu_p, share = low[:, 0].copy(), low[:, 1].copy(), np.zeros(count)
    points = np.nonzero(low[:, 1] < mu_th)[0]
    if points.size:
        solved = solve(points, (0.0, 1.0))  # the highest licensed-user rate
        if solved is None:
            return None
        high[points], high_policy[points] = solved
    reachable = high[points, 1] >= mu_th
    unreachable = points[~reachable]
    objective[unreachable] = mu_p[unreachable] = np.nan
    points = points[reachable]
    for _ in range(_PI_MAX_STEPS):
        if not points.size:
            return objective, mu_p, low_policy, high_policy, share, unconstrained
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
        mu_p[at] = lo[done, 1] + share[at] * (hi[done, 1] - lo[done, 1])
        # the cut replaces the end of the bracket on its side of the floor
        below = cut[:, 1] < mu_th
        for gains, policies, moved in ((low, low_policy, ~done & below),
                                       (high, high_policy, ~done & ~below)):
            gains[points[moved]], policies[points[moved]] = cut[moved], cut_policy[moved]
        points = points[~done]
    return None


def _cold_solve(params: SystemParams, scheme: str,
                entries: list[tuple[_Column, int]]
                ) -> list[tuple[str, float | None]]:
    """Status of the cold LP at each (column, threshold index) entry of one
    certify tier of two or more near-best points, in input order, with its
    optimal value, on which the search ranks the points, when optimal.

    Each distinct LP, keyed by its column object and threshold, is solved
    once: the sensing times that cannot fund sensing share one column object
    and all their thresholds one LP, as the detector and the sensing cost
    enter only the sense kernel and reward, which :func:`_column_lps` reads
    only through the ``kb`` sensing columns, none there, and HiGHS solves
    equal arrays under equal options to equal bits.  Each entry gets its
    LP's result.  The distinct LPs of a column are built as stacks of at
    most ``_STACK_FLOATS`` dense floats (or one LP), column after column,
    each while the last one's solves run
    (:func:`~ehcr.numerics._solve_stacks`).
    """
    keys = [(column, k if column.quantities.beta_range else None)
            for column, k in entries]
    distinct = dict(zip(keys, entries))
    thresholds: dict[_Column, list[int]] = {}
    for column, k in distinct.values():
        thresholds.setdefault(column, []).append(k)
    stacks = []
    for column, ks in thresholds.items():
        size = max(1, _STACK_FLOATS // math.prod(_lp_shape(params, column)))
        stacks.extend((column, ks[i:i + size]) for i in range(0, len(ks), size))
    solved = _solve_stacks((_column_lps(params, column, scheme, ks)
                            for column, ks in stacks), len(distinct))
    results = {}
    for (column, ks), (objectives, points) in zip(stacks, solved):
        for k, objective, x in zip(ks, objectives, points):
            if x is None:
                results[column, k] = "infeasible", None
            elif isinstance(x, RuntimeError):
                results[column, k] = "solver_failure", None
            else:
                results[column, k] = "optimal", float(objective @ x)
    return [results[distinct[key]] for key in keys]


def _optimal_solution(params: SystemParams, record: GridPointStatus,
                      column: _Column, k: int, lp_mu_p: float,
                      low: np.ndarray, high: np.ndarray, share: float
                      ) -> OptimalSolution:
    """The winner at the k-th threshold of a column, as its ``record`` logs
    it: the screen's policy, its report and its claimed LP rates (the
    record's objective and ``lp_mu_p``).

    The policy is the high one where the floor is slack (``share`` 0), else
    the mix of the occupation measures of the low and high policies,
    normalized per level; a level neither reaches takes the high action.
    """
    q = column.quantities
    kernels = transition_components(params, _blocks(params, column),
                                    column.p_d[k], column.p_f[k])
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
    return OptimalSolution(
        policy, report(params, policy, q, kernels, column.rewards[k]),
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
    column's unconstrained optima, then takes a lone point within
    ``LP_FEASIBILITY_TOL`` of the best as screened, or ranks two or more
    such points by their cold LPs and picks the winner among those; the
    winner's policy and claimed rates are the screen's.  See the module
    docstring.  A point that the screen cannot value or whose LP ladder
    fails is logged as ``solver_failure`` and the search goes on.  Raises
    :class:`InfeasibleGridError` carrying the per-point statuses when no
    point is feasible, and :class:`~ehcr.chain.AmbiguousChainError` before
    any screen when the all-idle chain has several closed classes.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    records: list[GridPointStatus] = []
    # (index of the first record, column, screen) of each screened sensing time
    screened: list[tuple[int, _Column, tuple]] = []
    screens: dict[float | None, tuple] = {}  # (column, screen) per model key
    start = None  # the last screened column's unconstrained optima
    idle_blind = None  # the search's, from its first screened column
    never_sensing: dict[bytes, np.ndarray] = {}  # what every screen shares

    def logged(tau: float, thresholds, statuses, objectives=None):
        """The records of one sensing time, each made by the tuple
        constructor that ``GridPointStatus._make`` calls, with no Python
        frame per point."""
        return map(tuple.__new__, repeat(GridPointStatus), zip(
            repeat(tau), thresholds, statuses,
            repeat(None) if objectives is None else objectives))

    for scanned in _scan(replace(params, rho=0.0, mu_th=0.0), grid):
        quantities = scanned.quantities
        tau = quantities.tau
        unsupported = _unsupported(quantities, scheme)
        if unsupported == "unsupported_m":
            records.append(GridPointStatus(tau, math.nan, unsupported))
            continue
        thresholds = scanned.thresholds
        if unsupported is not None:
            records.extend(logged(tau, thresholds, repeat(unsupported)))
            continue
        key = _model_key(quantities)
        if key in screens:  # policy iteration from its optimum returns it
            column, screen = screens[key]
        else:
            column = _column(params, scanned)
            blocks = _blocks(params, column)
            if idle_blind is None:  # the all-idle chain is the same in every column
                idle_blind = idle_blind_kernels(params, blocks)
                _require_unichain(idle_blind[0])
            kernels = _stacked(idle_blind, blocks)
            del blocks  # the screen reads only the stack
            screen = _screen(params, column, scheme, start, kernels,
                             never_sensing)
            screens[key] = column, screen
        if screen is None:
            records.extend(logged(tau, thresholds, repeat("solver_failure")))
            continue
        objectives, mu_p, low, high, share, start = screen
        screened.append((len(records), column, objectives, mu_p,
                         (low, high, share)))
        claims = objectives.tolist()
        records.extend(logged(
            tau, thresholds,
            ["infeasible" if math.isnan(claim) else "optimal" for claim in claims],
            [None if math.isnan(claim) else claim for claim in claims]))

    # Certify tier by tier the points within LP_FEASIBILITY_TOL of the best
    # screened objective left: a lone one wins as screened; two or more are
    # ranked by their cold LPs, which also set their statuses.  Should all
    # of a tier fail, the next one competes.
    objectives = np.full(len(records), np.nan)
    for first, _, claims, _, _ in screened:
        objectives[first:first + len(claims)] = claims
    candidates: list[tuple[float, float, float, tuple]] = []
    ceiling = math.inf
    while not candidates and (left := objectives < ceiling).any():
        ceiling = objectives[left].max() - LP_FEASIBILITY_TOL
        is_near = left & (objectives >= ceiling)
        # (record index, column, threshold index, claimed mu_p, policies)
        near = [(first + k, column, k, mu_p[k], policies)
                for first, column, claims, mu_p, policies in screened
                for k in np.flatnonzero(
                    is_near[first:first + len(claims)]).tolist()]
        if len(near) == 1:
            ranks = [("optimal", objectives[near[0][0]])]
        else:
            ranks = _cold_solve(params, scheme,
                                [(column, k) for _, column, k, _, _ in near])
        for (index, column, k, mu_p, policies), (status, rank) in zip(near,
                                                                      ranks):
            if status != "optimal":
                records[index] = records[index]._replace(status=status,
                                                         objective=None)
                continue
            record = records[index]  # the low and high policies, their share
            candidates.append((rank, record.tau, record.threshold,
                               (record, column, k, float(mu_p),
                                *(part[k] for part in policies))))
    winner = _select_winner(candidates)
    if winner is None:
        raise InfeasibleGridError(tuple(records))
    return _optimal_solution(params, *winner), tuple(records)
