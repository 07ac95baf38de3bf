"""Shared oracle utilities for the test suite."""
import contextlib
import itertools
import math
import os
import signal
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import ehcr
from ehcr import harvesting, optimizer, sensing, simulator
from ehcr.chain import (
    AmbiguousChainError,
    Policy,
    StationaryDistribution,
    action_ranges,
    harvest_blocks,
    sense_kernels,
    stationary_distribution,
    transition_components,
)
from ehcr.harvesting import HarvestPmf, _ambient_mean, _rf_packet_scale
from ehcr.numerics import (
    MARCUM_MAX_TERMS,
    MarcumConvergenceError,
    _check_order,
    regularized_upper_gamma_int,
    solve_lp,
)
from ehcr.optimizer import (
    GridPointStatus,
    InfeasibleGridError,
    OptimalSolution,
    _select_winner,
)
from ehcr.outage import OutageBundle, bundle
from ehcr.performance import action_rewards, evaluate
from ehcr.simulator import _N_BATCHES, _STREAMS, SimConfig, SimReport
from ehcr.system_model import CONFIG_KEYS, LINK_NAMES, SystemParams, derive


def params_to_dict(params: SystemParams) -> dict:
    """The configuration document of ``params``; round-trips through
    :func:`~ehcr.system_model.params_from_dict`."""
    doc = {k: getattr(params, k) for k in CONFIG_KEYS}
    doc["links"] = {
        name: {
            "fading_mean": getattr(params.links, name).fading_mean,
            "distance": getattr(params.links, name).distance,
        }
        for name in LINK_NAMES
    }
    return doc


def random_policy(rng, params, tau, threshold) -> Policy:
    """Uniform draw over the policy polytope at the given sensing settings."""
    alpha_range, beta_range = action_ranges(params, tau)
    b1 = rng.random(len(beta_range))
    b2 = rng.random(len(beta_range))
    over = b1 + b2 > 1.0
    b1[over], b2[over] = 1.0 - b1[over], 1.0 - b2[over]
    return Policy(alpha=rng.random(len(alpha_range)), beta1=b1, beta2=b2,
                  tau=tau, threshold=threshold)


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError inside the block once it has run ``seconds``, so a
    call that never returns fails its test instead of hanging the suite
    (SIGALRM: main thread, POSIX only)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict[str, str]:
    """Environment for a child Python process that imports the ``ehcr`` this
    suite imported, installed or taken from the source tree."""
    source = str(Path(ehcr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


# Per-sensing-time conveniences: ``ehcr`` derives a sensing time once and
# hands the quantities down; the tests often start from a bare tau.

def sensing_config(params: SystemParams, tau: float,
                   threshold: float) -> sensing.SensingConfig:
    """The :class:`~ehcr.sensing.SensingConfig` of ``tau`` and ``threshold``,
    its time-bandwidth product derived from ``params``."""
    m = derive(params, tau).m
    return sensing.SensingConfig(threshold=threshold, m=m)


def outages_at(params: SystemParams, tau: float) -> OutageBundle:
    """:func:`~ehcr.outage.bundle` at sensing time ``tau``."""
    return bundle(params, derive(params, tau))


def components_at(params: SystemParams, tau: float, idle_harvest: HarvestPmf,
                  active_harvest: HarvestPmf, p_d: float,
                  p_f: float) -> np.ndarray:
    """:func:`~ehcr.chain.transition_components` at sensing time ``tau``:
    the (3, n, n) kernels of idling, blind access and sensing."""
    q = derive(params, tau)
    blocks = harvest_blocks(params, q, idle_harvest, active_harvest)
    return transition_components(params, blocks, p_d, p_f)


def compose(params: SystemParams, kernels: np.ndarray,
            policy: Policy) -> np.ndarray:
    """The kernel of ``policy``: its level actions mixing the per-action
    ``kernels``, as :func:`~ehcr.performance.evaluate` composes it."""
    actions = policy.level_actions(derive(params, policy.tau))
    return np.einsum("an,anm->nm", actions, kernels)


def build_transition_matrix(params: SystemParams, policy: Policy,
                            idle_harvest: HarvestPmf, active_harvest: HarvestPmf,
                            p_d: float, p_f: float) -> np.ndarray:
    """(n, n) kernel of the battery chain under ``policy``."""
    policy.validate_against(params)
    kernels = components_at(params, policy.tau, idle_harvest, active_harvest,
                            p_d, p_f)
    return compose(params, kernels, policy)


def pmf(dist: HarvestPmf, count: int) -> float:
    """Mass at ``count``; zero outside the support (negatives included)."""
    if 0 <= count < dist.masses.size:
        return float(dist.masses[count])
    return 0.0


def empty_constraints(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A zero-row constraint block over n variables."""
    return np.zeros((0, n)), np.zeros(0)


def fast_policy_value(params, kernels, outages, p_d, p_f, policy):
    """(mu_p, mu_s) of a policy from precomputed per-action kernels.

    The rates come from the loop oracles below, not from the action rewards
    the policy LP shares with ``evaluate``.
    """
    pi = stationary_distribution(compose(params, kernels, policy))
    mu_p = primary_success_rate(params, pi, policy, outages, p_d)
    mu_s = secondary_success_rate(params, pi, policy, outages, p_d, p_f)
    return mu_p, mu_s


def best_random_feasible(params, tau, threshold, rng, count=1000,
                         max_attempts=20_000) -> tuple[int, float]:
    """(feasible draws, best mu_s among them) of uniform polytope policies at
    (tau, threshold), drawn until ``count`` clear the licensed-user floor or
    ``max_attempts`` are spent; the best is -1 when none clears it."""
    q = derive(params, tau)
    cfg = sensing_config(params, tau, threshold)
    p_d = sensing.detection_avg(cfg, q.gamma_bar)
    p_f = sensing.false_alarm(cfg)
    kernels = components_at(params, tau, harvesting.nature_distribution(params),
                            harvesting.combined_distribution(params), p_d, p_f)
    outages = outages_at(params, tau)
    feasible, best = 0, -1.0
    for _ in range(max_attempts):
        if feasible == count:
            break
        mu_p, mu_s = fast_policy_value(params, kernels, outages, p_d, p_f,
                                       random_policy(rng, params, tau, threshold))
        if mu_p >= params.mu_th - 1e-9:
            feasible += 1
            best = max(best, mu_s)
    return feasible, best


# Per-level loops the array expressions of ``ehcr`` replaced, kept as their
# oracles: the rates and access statistics of a solved chain, the kernel
# composition, the policy recovery of the LP and the kernel blocks.

def primary_success_rate(params: SystemParams, stationary: StationaryDistribution,
                         policy: Policy, outages: OutageBundle, p_d: float) -> float:
    """Licensed-user success rate under the secondary's access policy.

    Every branch weighs the silent, full-slot-interfered, or post-sensing-
    interfered success probability by the stationary probability of the
    battery level and the action chosen there; a sensing secondary stays
    silent on detection and interferes only on the mis-detected remainder.
    """
    pi = stationary.pi
    alpha_range, beta_range = action_ranges(params, policy.tau)
    silent = outages.pu_no_outage_silent
    total = float(pi[: alpha_range.start].sum()) * silent
    for k, i in enumerate(alpha_range):
        a = policy.alpha[k]
        total += pi[i] * (a * outages.pu_no_outage_ws + (1.0 - a) * silent)
    p_m = 1.0 - p_d
    for k, i in enumerate(beta_range):
        b1 = policy.beta1[k]
        b2 = policy.beta2[k]
        total += pi[i] * (
            b1 * outages.pu_no_outage_ws
            + b2 * (p_d * silent + p_m * outages.pu_no_outage_md)
            + (1.0 - b1 - b2) * silent
        )
    return total


def secondary_success_rate(params: SystemParams, stationary: StationaryDistribution,
                           policy: Policy, outages: OutageBundle,
                           p_d: float, p_f: float) -> float:
    """Secondary success rate: probability a slot carries a surviving burst.

    Blind access succeeds against the busy/idle mixture of the licensed
    user; the sensing branch transmits only on an idle verdict, so its busy
    side is discounted by the mis-detection probability and its idle side by
    the no-false-alarm probability.
    """
    pi = stationary.pi
    alpha_range, beta_range = action_ranges(params, policy.tau)
    rho = params.rho
    blind_value = (rho * outages.su_no_outage_wsp
                   + (1.0 - rho) * outages.su_no_outage_ws)
    sense_value = (rho * (1.0 - p_d) * outages.su_no_outage_sp
                   + (1.0 - rho) * (1.0 - p_f) * outages.su_no_outage_s)
    total = 0.0
    for k, i in enumerate(alpha_range):
        total += pi[i] * policy.alpha[k] * blind_value
    for k, i in enumerate(beta_range):
        total += pi[i] * (policy.beta1[k] * blind_value
                          + policy.beta2[k] * sense_value)
    return total


def access_stats(params: SystemParams, stationary: StationaryDistribution,
                 policy: Policy) -> tuple[float, float, float]:
    """(sensing probability, blind-access probability, expected sensing time).

    Sensing probability weighs ``beta2`` by the stationary mass of its range;
    blind access collects ``alpha`` and ``beta1`` likewise; the expected
    per-slot sensing time is the sensing probability times ``tau``.
    """
    policy.validate_against(params)
    pi = stationary.pi
    alpha_range, beta_range = action_ranges(params, policy.tau)
    alpha_mass = pi[alpha_range.start:alpha_range.stop]
    beta_mass = pi[beta_range.start:beta_range.stop]
    p_sense = float(beta_mass @ policy.beta2) if len(beta_range) else 0.0
    p_access = float(alpha_mass @ policy.alpha) if len(alpha_range) else 0.0
    if len(beta_range):
        p_access += float(beta_mass @ policy.beta1)
    return p_sense, p_access, p_sense * policy.tau


def reference_compose_transition(kernels: np.ndarray, alpha_range: range,
                                 beta_range: range, alpha: np.ndarray,
                                 beta1: np.ndarray,
                                 beta2: np.ndarray) -> np.ndarray:
    """Assemble the kernel for given probability vectors, level by level:
    the idle row plus each action's probability times its change from it."""
    idle, blind, sense = kernels
    p = idle.copy()
    for k, i in enumerate(alpha_range):
        p[i] += alpha[k] * (blind[i] - idle[i])
    for k, i in enumerate(beta_range):
        p[i] += beta1[k] * (blind[i] - idle[i]) + beta2[k] * (sense[i] - idle[i])
    return p


#: stationary mass at or below which the reference recovery idles a level
REFERENCE_MASS_FLOOR = 1e-12


def reference_recover(masses: np.ndarray, products: np.ndarray,
                      idx: range) -> np.ndarray:
    """Divide product variables by stationary mass, zeroing unreachable levels."""
    out = np.zeros(len(idx))
    for k, i in enumerate(idx):
        if masses[i] > REFERENCE_MASS_FLOOR:
            out[k] = min(max(products[k] / masses[i], 0.0), 1.0)
    return out


def reference_stationary(p: np.ndarray) -> np.ndarray:
    """Stationary law of a unichain kernel by least squares: the balance
    equations stacked with the normalization row, which absorbs the one
    redundant balance row."""
    n = p.shape[0]
    system = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return pi


def reference_shifted_rows(dist: HarvestPmf, consumption: int,
                           n_states: int) -> np.ndarray:
    """Kernel block for 'consume ``consumption`` packets, then harvest'.

    The top column reads the clipped complement of the partial mass sums, as
    the scalar tail of :class:`~ehcr.harvesting.HarvestPmf` did.
    """
    masses = dist.masses
    ccdf = np.clip(1.0 - np.concatenate(([0.0], np.cumsum(masses))), 0.0, 1.0)
    block = np.zeros((n_states, n_states))
    for i in range(n_states):
        need = np.arange(n_states - 1) - i + consumption
        valid = (need >= 0) & (need < masses.size)
        block[i, :-1][valid] = masses[need[valid]]
        count = n_states - 1 - i + consumption
        if count <= 0:
            block[i, -1] = 1.0
        elif count < ccdf.size:
            block[i, -1] = float(ccdf[count])
    return block


# Scalar harvest laws only the tests read: the exact (untruncated) ambient,
# RF and combined laws, whose masses the truncated arrays of
# ``ehcr.harvesting`` reproduce, and the tails of all three laws.

_KINDS = ("nature", "rf", "combined")


def nature_pmf(lambda_e: float, T: float, n: int) -> float:
    """Poisson(lambda_e * T) mass at n; zero for negative counts."""
    mean = _ambient_mean(lambda_e, T)
    if n < 0:
        return 0.0
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mean) - math.lgamma(n + 1) - mean)


def rf_pmf(params: SystemParams, r: int) -> float:
    """Mass of the quantized RF harvest at r packets."""
    if r < 0:
        return 0.0
    scale = _rf_packet_scale(params)
    if scale == 0.0:
        return 1.0 if r == 0 else 0.0
    return math.exp(-r / scale) - math.exp(-(r + 1) / scale)


def _rf_tail(params: SystemParams, r: int) -> float:
    if r <= 0:
        return 1.0
    scale = _rf_packet_scale(params)
    if scale == 0.0:
        return 0.0
    return math.exp(-r / scale)


def combined_pmf(params: SystemParams, include_rf: bool, q: int) -> float:
    """Mass of the summed arrivals at q packets.

    With ``include_rf`` false this is the ambient law alone; otherwise the
    finite convolution sum over all splits of q.
    """
    if q < 0:
        return 0.0
    if not include_rf:
        return nature_pmf(params.lambda_e, params.T, q)
    return sum(
        nature_pmf(params.lambda_e, params.T, n) * rf_pmf(params, q - n)
        for n in range(q + 1)
    )


def tail_at_least(kind: str, params: SystemParams, n: int) -> float:
    """Complementary CDF Pr{arrivals >= n} of one of the three laws."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if n < 0:
        raise ValueError(f"count must be nonnegative, got {n}")
    if n == 0:
        return 1.0
    if kind == "rf":
        return _rf_tail(params, n)
    if kind == "nature":
        below = sum(nature_pmf(params.lambda_e, params.T, k) for k in range(n))
    else:
        below = sum(combined_pmf(params, True, k) for k in range(n))
    return max(0.0, 1.0 - below)


# The slot-by-slot simulator the vectorized ``ehcr.simulator.run`` replaced,
# kept as its oracle: every report field must come out equal.

def reference_batch_se(series: np.ndarray) -> float:
    """Standard error of the mean via batch means, floored by a smoothed
    binomial estimate so that short or degenerate series never report zero."""
    n = series.size
    if n == 0:
        return math.inf
    smoothed = (series.sum() + 1.0) / (n + 2.0)
    floor = math.sqrt(smoothed * (1.0 - smoothed) / n)
    if n >= 2 * _N_BATCHES:
        batches = np.array_split(series, _N_BATCHES)
        means = np.array([b.mean() for b in batches])
        return max(float(means.std(ddof=1) / math.sqrt(len(means))), floor)
    return max(floor, 1e-300)


def reference_run(params: SystemParams, policy: Policy, sim: SimConfig) -> SimReport:
    """Simulate ``sim.slots`` slots and tally empirical statistics.

    Deterministic for a fixed seed.  The battery starts at
    ``sim.initial_battery``, is never driven negative (actions respect the
    level rules) and is capped at the battery size after each slot's
    harvest.
    """
    policy.validate_against(params)
    if sim.initial_battery > params.N_max:
        raise ValueError(
            f"initial battery {sim.initial_battery} exceeds N_max={params.N_max}")
    quantities = derive(params, policy.tau)
    alpha_range, beta_range = action_ranges(params, policy.tau)
    cfg = sensing_config(params, policy.tau, policy.threshold)
    p_f = sensing.false_alarm(cfg)
    uses_sensing = len(beta_range) > 0 and np.any(policy.beta2 > 0)
    decorrelated = sim.correlation_mode == "decorrelated"
    if uses_sensing and decorrelated:
        p_d_avg = sensing.detection_avg(cfg, quantities.gamma_bar)
    else:
        p_d_avg = math.nan

    n_slots = sim.slots
    streams = {
        name: np.random.default_rng(child)
        for name, child in zip(_STREAMS, np.random.SeedSequence(sim.seed).spawn(len(_STREAMS)))
    }
    pu_active = streams["pu"].random(n_slots) < params.rho
    gain_p = streams["h_p"].exponential(params.sigma_p, n_slots)
    gain_pst = streams["h_pst"].exponential(params.sigma_pst, n_slots)
    gain_ps = streams["h_ps"].exponential(params.sigma_ps, n_slots)
    gain_s = streams["h_s"].exponential(params.sigma_s, n_slots)
    gain_sp = streams["h_sp"].exponential(params.sigma_sp, n_slots)
    action_u = streams["action"].random(n_slots)
    sensing_u = streams["sensing"].random(n_slots)
    nature_q = streams["nature"].poisson(params.lambda_e * params.T, n_slots)
    rf_energy_gain = gain_pst if not decorrelated else \
        streams["rf"].exponential(params.sigma_pst, n_slots)
    rf_q = np.floor(
        params.eta * params.P_p * rf_energy_gain * params.T / params.E_u
    ).astype(np.int64)

    power_blind = params.E_t / params.T
    power_sense = params.E_t / (params.T - policy.tau)
    demand_pu = 2.0**quantities.r_p - 1.0
    demand_blind = 2.0**quantities.r_s_blind - 1.0
    demand_sense = 2.0**quantities.r_s_sense - 1.0

    n_t, n_s = quantities.n_t, quantities.n_s
    alpha_lo = alpha_range.start
    beta_lo = beta_range.start
    has_beta = len(beta_range) > 0
    alpha = policy.alpha
    beta1 = policy.beta1
    beta2 = policy.beta2

    level_series = np.empty(n_slots, dtype=np.int64)
    su_success = np.zeros(n_slots, dtype=np.int8)
    blind_series = np.zeros(n_slots, dtype=np.int8)
    sense_series = np.zeros(n_slots, dtype=np.int8)
    pu_success = np.zeros(n_slots, dtype=np.int8)

    battery = int(sim.initial_battery)
    idle_count = blind_count = sense_count = su_tx_count = 0
    for t in range(n_slots):
        level_series[t] = battery
        if pu_active[t] and uses_sensing and not decorrelated:
            # the detector statistic of every licensed-busy slot, sensed or not
            snr = params.P_p * gain_pst[t] / params.sigma_n2
            statistic = streams["detector"].noncentral_chisquare(2 * cfg.m,
                                                                 2.0 * snr)
        u = action_u[t]
        action = "idle"
        if has_beta and battery >= beta_lo:
            k = battery - beta_lo
            if u < beta1[k]:
                action = "blind"
            elif u < beta1[k] + beta2[k]:
                action = "sense"
        elif battery >= alpha_lo and battery - alpha_lo < alpha.size:
            if u < alpha[battery - alpha_lo]:
                action = "blind"

        consumed = 0
        su_tx = False
        su_power = 0.0
        su_demand = 0.0
        if action == "blind":
            blind_count += 1
            blind_series[t] = 1
            consumed = n_t
            su_tx = True
            su_power = power_blind
            su_demand = demand_blind
        elif action == "sense":
            sense_count += 1
            sense_series[t] = 1
            consumed = n_s
            if pu_active[t]:
                declared_busy = (sensing_u[t] < p_d_avg if decorrelated
                                 else statistic > cfg.threshold)
            else:
                declared_busy = sensing_u[t] < p_f
            if not declared_busy:
                consumed += n_t
                su_tx = True
                su_power = power_sense
                su_demand = demand_sense
        else:
            idle_count += 1

        if su_tx:
            su_tx_count += 1
            interference = params.P_p * gain_ps[t] if pu_active[t] else 0.0
            sinr = su_power * gain_s[t] / (params.sigma_n2 + interference)
            if sinr > su_demand:
                su_success[t] = 1
        if pu_active[t]:
            interference = su_power * gain_sp[t] if su_tx else 0.0
            sinr = params.P_p * gain_p[t] / (params.sigma_n2 + interference)
            if sinr > demand_pu:
                pu_success[t] = 1

        battery = min(
            battery - consumed + int(nature_q[t]) + (int(rf_q[t]) if pu_active[t] else 0),
            params.N_max,
        )

    histogram = np.bincount(level_series, minlength=params.n_states)
    occupancy = histogram / n_slots
    occupancy_se = np.array([
        reference_batch_se((level_series == level).astype(np.int8))
        for level in range(params.n_states)
    ])
    active = np.nonzero(pu_active)[0]
    if active.size:
        mu_p = float(pu_success[active].mean())
        mu_p_se = reference_batch_se(pu_success[active])
    else:
        mu_p, mu_p_se = math.nan, math.inf
    return SimReport(
        slots=n_slots,
        mu_p=mu_p,
        mu_p_se=mu_p_se,
        mu_s=float(su_success.mean()),
        mu_s_se=reference_batch_se(su_success),
        p_sense=float(sense_series.mean()),
        p_sense_se=reference_batch_se(sense_series),
        p_access=float(blind_series.mean()),
        p_access_se=reference_batch_se(blind_series),
        occupancy=occupancy,
        occupancy_se=occupancy_se,
        battery_histogram=histogram,
        action_counts={"idle": idle_count, "blind": blind_count,
                       "sense": sense_count},
        pu_active_slots=int(active.size),
        su_tx_slots=su_tx_count,
    )


def bias_detection(monkeypatch, bias: float) -> None:
    """Scale the detection probability a decorrelated simulation draws its
    sensing verdicts from by ``bias``, clipped to [0, 1].  The analytic
    detector that ``evaluate`` reads is left alone, so a sound comparison
    must flag the fault."""
    # the simulator's own view of the sensing module, with one detector biased
    detectors = types.ModuleType(sensing.__name__)
    detectors.__dict__.update(
        vars(sensing), detection_avg=lambda *args: np.clip(
            bias * sensing.detection_avg(*args), 0.0, 1.0))
    monkeypatch.setattr(simulator, "sensing", detectors)


def reference_closed_classes(p: np.ndarray, edge_tol: float = 1e-14) -> list[list[int]]:
    """Closed classes of a kernel by scipy's strongly connected components."""
    n_comp, labels = connected_components(csr_matrix(p > edge_tol),
                                          connection="strong")
    closed = []
    for label in range(n_comp):
        states = np.nonzero(labels == label)[0]
        outside = np.ones(p.shape[0], dtype=bool)
        outside[states] = False
        if p[np.ix_(states, np.nonzero(outside)[0])].max(initial=0.0) <= edge_tol:
            closed.append([int(s) for s in states])
    return sorted(closed)


def column_at(params: SystemParams, tau: float,
              grid: optimizer.GridSpec) -> optimizer._Column:
    """The optimizer's column at ``tau`` over the thresholds of ``grid``
    (quantities, outages, kernel blocks and the detector at each), scanned
    afresh rather than read from the scan memo."""
    scanned = optimizer._Scanned(derive(params, tau), params, grid)
    return optimizer._column(params, scanned, harvesting.harvest_laws(params))


def reference_column_mdp(params: SystemParams, column: optimizer._Column,
                         scheme: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (K, 3, n, n) kernels, (K, 3, 2) rewards and (3, n) admitted
    actions the screen reads off a column, one threshold at a time, each from
    scalar detector, kernel and reward calls."""
    q = column.quantities
    n = params.n_states
    kernels, rewards = [], []
    for threshold in column.thresholds:
        cfg = sensing.SensingConfig(threshold, q.m)
        p_d = sensing.detection_avg(cfg, q.gamma_bar)
        p_f = sensing.false_alarm(cfg)
        kernels.append(transition_components(params, column.blocks, p_d, p_f))
        rewards.append(action_rewards(params, column.outages, p_d, p_f))
    allowed = np.zeros((3, n), dtype=bool)
    allowed[0] = True
    if scheme != "sensing_only":
        allowed[1, q.alpha_range.start:] = True
    allowed[2, q.beta_range.start:] = True
    return np.array(kernels), np.array(rewards), allowed


def reference_policy_iteration(idle_blind: np.ndarray, sense_args: tuple,
                               rewards: np.ndarray, allowed: np.ndarray, weights,
                               policy: np.ndarray | None = None
                               ) -> tuple[np.ndarray, np.ndarray] | None:
    """``optimizer._policy_iteration`` one point at a time: each MDP of the
    batch, its (3, n, n) kernels stacked from the shared idle/blind pair and
    its own sensing kernel, iterated alone from its own start, its own
    system solved at every step, so no point shares a solve with another.
    The sensing kernels are the (K, n, n) stack that ``sense_kernels``
    builds from ``sense_args``, its arguments ``(params, blocks, p_d, p_f)``
    at the K points, and every action is valued by its full kernel.  None
    when any point fails, as the batch does."""
    params, blocks, p_d, p_f = sense_args
    sense = sense_kernels(params, blocks, np.asarray(p_d)[:, None, None],
                          np.asarray(p_f)[:, None, None])
    count, n = sense.shape[:2]
    kernels = [np.concatenate([idle_blind, own[None]]) for own in sense]
    weights = np.broadcast_to(weights, (count, 2))
    starts = np.zeros((count, n), dtype=int) if policy is None else policy
    levels = np.arange(n)
    gains, policies = [], []
    for kernel, reward, weight, actions in zip(kernels, rewards, weights, starts):
        weighted = reward @ weight[:, None]  # (3, 1)
        tol = optimizer._PI_TOL * (1.0 + np.abs(weight).sum())
        for _ in range(optimizer._PI_MAX_STEPS):
            system = np.eye(n) - kernel[actions, levels]
            system[:, 0] = 1.0
            try:
                solved = np.linalg.solve(system, reward[actions])
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(solved)):
                return None
            bias = solved @ weight[:, None]
            bias[0] = 0.0
            values = weighted + (kernel @ bias)[..., 0]
            values[~allowed] = -np.inf
            better = values.max(axis=0) > values[actions, levels] + tol
            if not better.any():
                break
            actions = np.where(better, values.argmax(axis=0), actions)
        else:
            return None
        gains.append(solved[0])
        policies.append(actions)
    return (np.array(gains).reshape(count, 2),
            np.array(policies, dtype=int).reshape(count, n))


def point_lp(params: SystemParams, column: optimizer._Column, k: int,
             scheme: str) -> tuple[np.ndarray, ...]:
    """The dense policy LP at the k-th threshold of a column, from scalar
    kernel and reward calls at that threshold alone."""
    p_d, p_f = column.p_d[k], column.p_f[k]
    return policy_lp(params, column.quantities,
                     transition_components(params, column.blocks, p_d, p_f),
                     action_rewards(params, column.outages, p_d, p_f), scheme)


def policy_lp(params: SystemParams, quantities, kernels: np.ndarray,
              rewards: np.ndarray, scheme: str) -> tuple[np.ndarray, ...]:
    """The policy LP of one point from its (3, n, n) kernels and (3, 2)
    rewards of idling, blind access and sensing, as the dense arrays
    ``(objective, eq_matrix, eq_rhs, ub_matrix, ub_rhs, bounds)`` that
    :func:`~ehcr.numerics.solve_lp` takes.

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
class PointGrid:
    """The search grid of the one point (tau, threshold), read by
    :func:`~ehcr.optimizer.optimize` as it reads a GridSpec."""

    tau: float
    threshold: float

    def tau_values(self, params: SystemParams) -> tuple[float, ...]:
        return (self.tau,)

    def lambda_grid(self, m: int) -> tuple[float, ...]:
        return (self.threshold,)


def reference_lp_solution(params: SystemParams, lp: tuple[np.ndarray, ...],
                          column: optimizer._Column, k: int,
                          x: np.ndarray) -> OptimalSolution:
    """An optimal answer ``x`` of the LP arrays ``lp`` at the k-th threshold
    of a column, as the optimizer reports a winner: the policy recovered
    from the occupation vector level by level, its evaluation, and the LP's
    secondary and licensed-user rates (the floor row is minus the latter)."""
    objective, _, _, ub_matrix, _, _ = lp
    q = column.quantities
    n, ka, kb = params.n_states, len(q.alpha_range), len(q.beta_range)
    pi, alpha, beta1, beta2 = np.split(x, [n, n + ka, n + ka + kb])
    policy = Policy(alpha=reference_recover(pi, alpha, q.alpha_range),
                    beta1=reference_recover(pi, beta1, q.beta_range),
                    beta2=reference_recover(pi, beta2, q.beta_range),
                    tau=q.tau, threshold=column.thresholds[k])
    return OptimalSolution(policy=policy, report=evaluate(params, policy),
                           lp_objective=float(objective @ x),
                           lp_mu_p=float(-ub_matrix[0] @ x))


def reference_search(params: SystemParams, grid: optimizer.GridSpec, scheme: str
                     ) -> tuple[OptimalSolution, tuple[GridPointStatus, ...]]:
    """``optimize`` with no screen: a cold LP at every grid point, the best
    of them all by the optimizer's own tie-break, and its policy recovered
    from the LP alone."""
    records, candidates = [], []
    harvest = harvesting.harvest_laws(params)
    for tau in grid.tau_values(params):
        q = derive(params, tau)
        unsupported = optimizer._unsupported(q, scheme)
        if unsupported == "unsupported_m":
            records.append(GridPointStatus(tau, math.nan, unsupported))
            continue
        thresholds = grid.lambda_grid(q.m)
        if unsupported is not None:
            records.extend(GridPointStatus(tau, threshold, unsupported)
                           for threshold in thresholds)
            continue
        column = optimizer._column(params, optimizer._Scanned(q, params, grid),
                                  harvest)
        for k, threshold in enumerate(thresholds):
            lp = point_lp(params, column, k, scheme)
            try:
                x = solve_lp(*lp)
            except RuntimeError:
                records.append(GridPointStatus(tau, threshold, "solver_failure"))
                continue
            if x is None:
                records.append(GridPointStatus(tau, threshold, "infeasible"))
                continue
            value = float(lp[0] @ x)
            records.append(GridPointStatus(tau, threshold, "optimal", value))
            candidates.append((value, tau, threshold, (lp, column, k, x)))
    winner = _select_winner(candidates)
    if winner is None:
        raise InfeasibleGridError(tuple(records))
    return reference_lp_solution(params, *winner), tuple(records)


def deterministic_policies(params: SystemParams, tau: float, threshold: float,
                           scheme: str):
    """Every deterministic policy ``scheme`` admits at (tau, threshold): one
    action per battery level among those the level can afford, with no blind
    access under the sensing-only scheme."""
    alpha_range, beta_range = action_ranges(params, tau)
    blind = (0.0,) if scheme == "sensing_only" else (0.0, 1.0)
    full = [(0.0, 0.0), (0.0, 1.0)] + [(1.0, 0.0)] * (len(blind) - 1)
    for alpha in itertools.product(blind, repeat=len(alpha_range)):
        for actions in itertools.product(full, repeat=len(beta_range)):
            beta1, beta2 = np.array(actions).reshape(-1, 2).T
            yield Policy(alpha=np.array(alpha), beta1=beta1, beta2=beta2,
                         tau=tau, threshold=threshold)


def class_rates(params: SystemParams, policy: Policy) -> list[tuple[float, float]]:
    """The (mu_s, mu_p) of ``policy`` under each stationary law of its
    chain: :func:`~ehcr.performance.evaluate`'s one when the chain has one
    closed class, else one per closed class, the chain started in it."""
    try:
        rates = evaluate(params, policy)
    except AmbiguousChainError as exc:
        classes = exc.classes
    else:
        return [(rates.mu_s, rates.mu_p)]
    q = derive(params, policy.tau)
    cfg = sensing.SensingConfig(policy.threshold, q.m)
    p_d, p_f = sensing.detection_avg(cfg, q.gamma_bar), sensing.false_alarm(cfg)
    kernel = compose(params, components_at(params, policy.tau,
                                           *harvesting.harvest_laws(params),
                                           p_d, p_f), policy)
    actions = policy.level_actions(q)
    rewards = action_rewards(params, bundle(params, q), p_d, p_f)
    found = []
    for states in classes:
        pi = np.zeros(params.n_states)
        pi[states] = stationary_distribution(kernel[np.ix_(states, states)]).pi
        found.append(tuple(((pi * actions).sum(axis=1) @ rewards).tolist()))
    return found


def enumerated_optimum(params: SystemParams, tau: float, threshold: float,
                       scheme: str) -> float | None:
    """The constrained optimum of a grid point from neither the LP nor the
    screen: the best mu_s over the convex hull of the (mu_s, mu_p) of every
    deterministic policy, under each stationary law of its chain
    (:func:`class_rates`), at mu_p >= mu_th.  The occupation measures of
    stationary randomized policies span exactly that hull (its vertices are
    those of deterministic policies on one closed class; Puterman 1994,
    ch. 8), so its best point lies on one such vertex or on the floor,
    between one above it and one below.  None when the hull misses the
    floor."""
    rates = np.array([rate for policy in deterministic_policies(
        params, tau, threshold, scheme) for rate in class_rates(params, policy)])
    above = rates[:, 1] >= params.mu_th
    if not above.any():
        return None
    (hi_s, hi_p), (lo_s, lo_p) = rates[above].T[:, :, None], rates[~above].T
    share = (params.mu_th - lo_p) / (hi_p - lo_p)  # of the policy above
    mixes = lo_s + share * (hi_s - lo_s)
    return float(max(hi_s.max(), mixes.max(initial=-math.inf)))


# The hand-written special functions that ``ehcr.numerics`` replaced by
# array expressions over scipy's gamma tails, kept as their oracles: the
# integer-order gamma tails (below x = 700; beyond it the lower tail's
# complement cancels for m > x) and the term recursion of Marcum Q.

# exp(-x) underflows below this; switch to log-space accumulation
_EXP_UNDERFLOW = 700.0

# an exponential whose logarithm is below this is taken as zero; nearer the
# subnormal range it would lose precision
_LOG_TINY = -700.0

# truncation tolerance of the Marcum term recursion
_MARCUM_TAIL_RTOL = 1e-12


def reference_upper_gamma_int(m: int, x: float) -> float:
    """Regularized upper incomplete gamma ratio for integer order m >= 1.

    For integer m the ratio collapses to the Erlang tail
    ``exp(-x) * sum_{k<m} x^k / k!``, which is evaluated term by term.  This
    equals the complementary CDF of a sum of m unit-rate exponentials, hence
    the value is in [0, 1], nonincreasing in x and nondecreasing in m.
    """
    m = _check_order(m)
    if not 0 <= x < math.inf:  # NaN fails every comparison
        raise ValueError(f"x must be finite and nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x <= _EXP_UNDERFLOW:
        term = math.exp(-x)
        total = term
        for k in range(1, m):
            term *= x / k
            total += term
        return min(total, 1.0)
    # x too large for exp(-x); accumulate in log space around the peak term
    logs = [k * math.log(x) - math.lgamma(k + 1) - x for k in range(m)]
    peak = max(logs)
    if peak < -745.0:
        return 0.0
    return min(math.exp(peak) * sum(math.exp(v - peak) for v in logs), 1.0)


def reference_lower_gamma_int(m: int, x: float) -> float:
    """Regularized lower incomplete gamma ratio for integer order m >= 1.

    Summed as the ascending tail ``exp(-x) * sum_{k>=m} x^k / k!`` so that
    small values are produced without cancellation against 1.
    """
    m = _check_order(m)
    if not 0 <= x < math.inf:  # NaN fails every comparison
        raise ValueError(f"x must be finite and nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x > _EXP_UNDERFLOW:
        # upper tail is negligible here for the orders in scope
        return 1.0 - reference_upper_gamma_int(m, x)
    log_term = m * math.log(x) - math.lgamma(m + 1) - x
    if log_term < -745.0:
        return 0.0
    term = math.exp(log_term)
    total = term
    k = m
    while True:
        k += 1
        term *= x / k
        total += term
        if term <= 1e-17 * total and k > x:
            return min(total, 1.0)


def reference_marcum_q(m: int, a: float, b: float) -> float:
    """Generalized Marcum Q function Q_m(a, b) by the term recursion.

    The Poisson(a^2/2) mixture of gamma tails, one term at a time: each
    weight follows from the last by the Poisson ratio and each gamma tail by
    adding the Poisson(b^2/2) mass at its order.  The truncation bound is the
    unspent Poisson mass before the mode and the geometric decay bound past
    it; iteration stops once the bound drops below ``_MARCUM_TAIL_RTOL`` of
    the accumulated value.
    """
    m = _check_order(m)
    if not (0 <= a < math.inf and 0 <= b < math.inf):  # NaN fails too
        raise ValueError(
            f"arguments must be finite and nonnegative, got a={a}, b={b}")
    if b == 0.0:
        return 1.0
    x = 0.5 * b * b
    if a == 0.0:
        return regularized_upper_gamma_int(m, x)
    s = 0.5 * a * a

    if s <= _EXP_UNDERFLOW:
        n_start = 0
        weight = math.exp(-s)
    else:
        # start 9 sigma into the Poisson left tail: the skipped mass is
        # ~1e-19 while the log-weight there is still representable
        n_start = max(0, int(s - 9.0 * math.sqrt(s)))
        weight = math.exp(n_start * math.log(s) - math.lgamma(n_start + 1) - s)

    gamma_tail = regularized_upper_gamma_int(m + n_start, x)
    # increment taking U(m+n, x) to U(m+n+1, x), i.e. the Poisson(x) mass at
    # m+n; it underflows once x exceeds ~745 and is then recomputed from its
    # logarithm each term until it is representable again
    log_inc = (m + n_start - 1) * math.log(x) - math.lgamma(m + n_start) - x
    increment = math.exp(log_inc) if log_inc > _LOG_TINY else 0.0

    total = 0.0
    weight_sum = 0.0
    for n in range(n_start, n_start + MARCUM_MAX_TERMS):
        total += weight * gamma_tail
        weight_sum += weight
        ratio = s / (n + 1)
        if ratio < 1.0:
            tail_bound = weight * ratio / (1.0 - ratio)
        else:
            tail_bound = 1.0 - weight_sum
        if tail_bound <= _MARCUM_TAIL_RTOL * max(total, 1e-300):
            return min(total, 1.0)
        weight *= ratio
        if increment > 0.0:
            increment *= x / (m + n)
        else:
            log_inc = (m + n) * math.log(x) - math.lgamma(m + n + 1) - x
            increment = math.exp(log_inc) if log_inc > _LOG_TINY else 0.0
        gamma_tail = min(gamma_tail + increment, 1.0)
    raise MarcumConvergenceError(
        f"Marcum Q_{m}({a}, {b}) did not converge in {MARCUM_MAX_TERMS} terms; "
        f"remaining mass bound {1.0 - weight_sum:.3e}"
    )
