"""Slot-level Monte Carlo simulation of the full access system.

The simulator shares nothing with the analytical chain beyond the primitive
sensing statistics: batteries, actions, sensing verdicts, fading draws and
SINR comparisons are all realized slot by slot, which makes it the ground
truth the closed forms are validated against.

The battery is the only sequential quantity, so :func:`run` has three parts,
all reading the one set of quantities derived by the policy's validation.
First every draw is made and turned into per-slot arrays: the harvest, the
sensing verdict (busy when a sensing draw falls below the detection or
false-alarm probability, or a faithful detector statistic exceeds the
threshold) and the action draw's rank among the per-level thresholds.  The
battery then steps in windows of slots side by side, the first from the
initial level and the others from a full battery, each again from its
predecessor's new end until they agree.  Trajectories merge within a few
windows, so a few rounds settle a run as the slot loop would; past a round
cap, that loop finishes from the first unsettled window, so a run that never
merges (no harvest) costs it plus the capped rounds.  Last, the actions are
recovered from the levels, and transmissions, SINR outcomes, counters and
batch-means standard errors are computed as array expressions.

Two correlation modes are provided.  ``faithful`` uses one licensed-link gain
per slot for both the sensing SNR and the RF harvest, which is physically
consistent; ``decorrelated`` draws them independently, matching the
independence assumptions of the analytical model exactly, and is the default
for cross-validation.  A faithful licensed-busy slot draws the detector's
statistic itself, noncentral chi-square with ``2m`` degrees of freedom and
noncentrality twice its realized SNR (Digham, Alouini & Simon 2007), and is
declared busy when that exceeds the threshold: the law of
:func:`sensing.detection_instant`, with no tail evaluated.

Randomness comes from one seed expanded into named substreams (one per slot
quantity), so instrumenting one quantity never shifts the draws of another.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import sensing
from .chain import Policy
from .outage import sinr_demand
from .performance import PerformanceReport, evaluate
from .system_model import SystemParams

#: substream names, in spawn order; append only, never reorder
_STREAMS = ("pu", "h_p", "h_pst", "h_ps", "h_s", "h_sp",
            "action", "sensing", "nature", "rf", "detector")

CORRELATION_MODES = ("faithful", "decorrelated")

#: batches used for autocorrelation-robust standard errors
_N_BATCHES = 100

#: default minimum sample count before disagreement may be flagged
DEFAULT_MIN_SAMPLES = 1000

#: ambient mean at which larger ones are drawn, inside numpy's Poisson domain
#: (about 9.2e18); a count below any battery size is then 0.0 in floats
_AMBIENT_MEAN_CAP = 1e18

#: slots per window of the battery's stepping
_WINDOW = 32

#: rounds of window stepping before the slot loop finishes a run
_ROUNDS = 12


@dataclass(frozen=True)
class SimConfig:
    """Simulation run settings."""

    slots: int
    seed: int
    initial_battery: int = 0
    correlation_mode: str = "decorrelated"

    def __post_init__(self):
        for name in ("slots", "seed", "initial_battery"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.initial_battery < 0:
            raise ValueError(
                f"initial_battery must be >= 0, got {self.initial_battery}")
        if self.correlation_mode not in CORRELATION_MODES:
            raise ValueError(
                f"correlation_mode must be one of {CORRELATION_MODES}, "
                f"got {self.correlation_mode!r}")


@dataclass(frozen=True)
class SimReport:
    """Empirical rates with standard errors, plus occupancy and counters."""

    slots: int
    mu_p: float
    mu_p_se: float
    mu_s: float
    mu_s_se: float
    p_sense: float
    p_sense_se: float
    p_access: float
    p_access_se: float
    occupancy: np.ndarray      # fraction of slots at each start-of-slot level
    occupancy_se: np.ndarray
    battery_histogram: np.ndarray  # counts; sums to slots
    action_counts: dict[str, int] = field(default_factory=dict)
    pu_active_slots: int = 0
    su_tx_slots: int = 0


def _batch_bounds(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start offset and length of each of ``np.array_split``'s
    ``_N_BATCHES`` consecutive batches of ``n`` items."""
    sizes = np.full(_N_BATCHES, n // _N_BATCHES, dtype=np.int64)
    sizes[:n % _N_BATCHES] += 1
    return np.cumsum(sizes) - sizes, sizes


def _batch_se(hits: int | np.ndarray, n: int,
              batch_hits: np.ndarray | None) -> np.ndarray:
    """Standard error of the mean of 0/1 series via batch means, floored by a
    smoothed binomial estimate so that short or degenerate series never
    report zero.

    ``hits`` counts the ones of each series over all ``n`` items and
    ``batch_hits`` (last axis: the ``_N_BATCHES`` batches of
    :func:`_batch_bounds`) within each batch; it is ignored, and may be None,
    below two items per batch, where only the floor applies.
    """
    smoothed = (np.asarray(hits) + 1.0) / (n + 2.0)
    floor = np.sqrt(smoothed * (1.0 - smoothed) / n)
    if n < 2 * _N_BATCHES:
        return np.maximum(floor, 1e-300)
    means = batch_hits / _batch_bounds(n)[1]
    return np.maximum(means.std(axis=-1, ddof=1) / math.sqrt(_N_BATCHES), floor)


def _series_se(series: np.ndarray) -> float:
    """:func:`_batch_se` of one 0/1 series."""
    n = series.size
    batch_hits = (np.add.reduceat(series, _batch_bounds(n)[0], dtype=np.int64)
                  if n >= 2 * _N_BATCHES else None)
    return float(_batch_se(np.count_nonzero(series), n, batch_hits))


def _occupancy_se(levels: np.ndarray, histogram: np.ndarray) -> np.ndarray:
    """:func:`_batch_se` of every level's indicator series at once."""
    n, n_states = levels.size, histogram.size
    if n < 2 * _N_BATCHES:
        return _batch_se(histogram, n, None)
    batch = np.repeat(np.arange(_N_BATCHES), _batch_bounds(n)[1])
    counts = np.bincount(batch * n_states + levels,
                         minlength=_N_BATCHES * n_states)
    # one contiguous row per level, so each row's std reduces exactly like
    # the standalone per-level array it replaces
    per_level = np.ascontiguousarray(counts.reshape(_N_BATCHES, n_states).T)
    return _batch_se(histogram, n, per_level)


def _harvest(params: SystemParams, streams: dict, pu_active: np.ndarray,
             rf_gain: np.ndarray) -> np.ndarray:
    """Energy units harvested in each slot: ambient arrivals always, RF energy
    from the licensed-link gain ``rf_gain`` while the licensed user is on.

    Either source saturates past the battery size, where the battery caps it
    anyway: the RF count at ``N_max`` before its integer cast, the ambient
    mean at ``_AMBIENT_MEAN_CAP`` before its draw.
    """
    rf_q = np.floor(np.minimum(
        params.eta * params.P_p * rf_gain * params.T / params.E_u, params.N_max
    )).astype(np.int64)
    ambient_mean = min(params.lambda_e * params.T, _AMBIENT_MEAN_CAP)
    return (streams["nature"].poisson(ambient_mean, rf_gain.size)
            + np.where(pu_active, rf_q, 0))


def _slot_loop(action_u: np.ndarray, sense_cost: np.ndarray,
               harvest: np.ndarray, blind_at: np.ndarray, sense_at: np.ndarray,
               n_t: int, n_max: int, battery: int) -> list[int]:
    """Each slot's start-of-slot level, from ``battery``, one slot at a time:
    the action's debit, then the harvest, capped at ``n_max``."""
    levels: list[int] = []
    record = levels.append
    blind_list, sense_list = blind_at.tolist(), sense_at.tolist()
    for u, cost, gain in zip(action_u.tolist(), sense_cost.tolist(),
                             harvest.tolist()):
        record(battery)
        if u < blind_list[battery]:
            battery -= n_t
        elif u < sense_list[battery]:
            battery -= cost
        battery += gain
        if battery > n_max:
            battery = n_max
    return levels


def _battery_levels(action_u: np.ndarray, declared_busy: np.ndarray,
                    harvest: np.ndarray, blind_at: np.ndarray,
                    sense_at: np.ndarray, n_t: int, n_s: int, n_max: int,
                    initial: int) -> np.ndarray:
    """The :func:`_slot_loop` levels from ``initial``, by windows of slots,
    each final once it starts at its final predecessor's end."""
    n, n_states = action_u.size, blind_at.size
    # ``u < x`` exactly when u's rank among the thresholds is at most x's;
    # the table holds the level after the action at (2 rank + busy, level)
    values = np.unique(np.concatenate([blind_at, sense_at]))
    ranks = np.arange(values.size + 1)[:, None, None]
    table = (np.arange(n_states) - np.where(
        ranks <= np.searchsorted(values, blind_at), n_t,
        np.where(ranks <= np.searchsorted(values, sense_at),
                 np.array([[n_s + n_t], [n_s]]), 0))).ravel()
    # one row per window, the last padded with idle (top-rank) slots
    windows = -(-n // _WINDOW)
    offsets = np.full((windows, _WINDOW), 2 * values.size * n_states)
    gains = np.zeros((windows, _WINDOW), np.int64)
    offsets.reshape(-1)[:n] = (2 * np.searchsorted(values, action_u, "right")
                               + declared_busy) * n_states
    gains.reshape(-1)[:n] = np.minimum(harvest, n_max)
    path = np.full((windows, _WINDOW + 1), n_max)
    path[0, 0] = initial
    stale = np.arange(windows)
    for _ in range(_ROUNDS):
        walk, offset, gain = path[stale], offsets[stale], gains[stale]
        for i in range(_WINDOW):
            level = walk[:, i + 1]
            table.take(offset[:, i] + walk[:, i], out=level)
            level += gain[:, i]
            np.minimum(level, n_max, out=level)
        path[stale] = walk
        stale = np.flatnonzero(path[1:, 0] != path[:-1, -1]) + 1
        if not stale.size:
            break
        path[stale, 0] = path[stale - 1, -1]
    levels = path[:, :-1].ravel()[:n]
    if stale.size:
        start = stale[0] * _WINDOW
        levels[start:] = _slot_loop(action_u[start:], np.where(
            declared_busy[start:], n_s, n_s + n_t), harvest[start:], blind_at,
            sense_at, n_t, n_max, int(path[stale[0], 0]))
    return levels


@np.errstate(over="ignore")
def run(params: SystemParams, policy: Policy, sim: SimConfig) -> SimReport:
    """Simulate ``sim.slots`` slots and tally empirical statistics.

    Deterministic for a fixed seed.  The battery starts at
    ``sim.initial_battery``, is never driven negative (actions respect the
    level rules) and is capped at the battery size after each slot's
    harvest.  An energy or SNR past the float range is inf, unwarned: it
    saturates a harvest, is detected and passes an SINR test.
    """
    quantities = policy.validate_against(params)
    if sim.initial_battery > params.N_max:
        raise ValueError(
            f"initial battery {sim.initial_battery} exceeds N_max={params.N_max}")
    # cumulative per-level thresholds on the action draw ``u``: blind access
    # when ``u < blind_at[b]``, else sensing when ``u < sense_at[b]``, else idle
    _, blind_at, sense_prob = policy.level_actions(quantities)
    sense_at = blind_at + sense_prob
    uses_sensing = bool(np.any(policy.beta2 > 0))
    decorrelated = sim.correlation_mode == "decorrelated"
    cfg = sensing.SensingConfig(policy.threshold, quantities.m)

    n_slots = sim.slots
    streams = {
        name: np.random.default_rng(child)
        for name, child in zip(_STREAMS, np.random.SeedSequence(sim.seed).spawn(len(_STREAMS)))
    }

    def gains(link: str) -> np.ndarray:
        return streams["h_" + link].exponential(getattr(params, "sigma_" + link), n_slots)

    pu_active = streams["pu"].random(n_slots) < params.rho
    action_u = streams["action"].random(n_slots)
    # faithful mode harvests and senses through one licensed-link gain per
    # slot; decorrelated mode harvests through a draw of its own and senses
    # on the average SNR, so it never draws that gain
    gain_pst = (streams["rf"].exponential(params.sigma_pst, n_slots)
                if decorrelated else gains("pst"))
    harvest = _harvest(params, streams, pu_active, gain_pst)

    # sensing verdicts, drawn for every slot whether or not it senses
    sensing_u = streams["sensing"].random(n_slots)
    declared_busy = sensing_u < sensing.false_alarm(cfg)
    if uses_sensing and decorrelated:
        declared_busy[pu_active] = sensing_u[pu_active] < sensing.detection_avg(
            cfg, quantities.gamma_bar)
    elif uses_sensing:
        snr = params.P_p * gain_pst[pu_active] / params.sigma_n2
        declared_busy[pu_active] = streams["detector"].noncentral_chisquare(
            2 * cfg.m, 2.0 * snr) > cfg.threshold

    level_series = _battery_levels(
        action_u, declared_busy, harvest, blind_at, sense_at, quantities.n_t,
        quantities.n_s, params.N_max, sim.initial_battery)

    blind = action_u < blind_at[level_series]
    sense = ~blind & (action_u < sense_at[level_series])
    sense_tx = sense & ~declared_busy
    su_tx = blind | sense_tx
    su_power = np.where(blind, params.E_t / params.T,
                        np.where(sense_tx, params.E_t / (params.T - policy.tau), 0.0))
    su_demand = np.where(blind, sinr_demand(quantities.r_s_blind),
                         sinr_demand(quantities.r_s_sense))
    # outcome gains are drawn only now, one at a time, to keep them out of
    # memory during the loop; named substreams make the draw order irrelevant
    su_interference = np.where(pu_active, params.P_p * gains("ps"), 0.0)
    su_success = su_tx & (
        su_power * gains("s") / (params.sigma_n2 + su_interference) > su_demand)
    pu_interference = su_power * gains("sp")  # zero while the secondary is silent
    pu_success = (params.P_p * gains("p") / (params.sigma_n2 + pu_interference)
                  > sinr_demand(quantities.r_p))[pu_active]

    histogram = np.bincount(level_series, minlength=params.n_states)
    blind_count = int(np.count_nonzero(blind))
    sense_count = int(np.count_nonzero(sense))
    if pu_success.size:
        mu_p = float(pu_success.mean())
        mu_p_se = _series_se(pu_success)
    else:
        mu_p, mu_p_se = math.nan, math.inf
    return SimReport(
        slots=n_slots,
        mu_p=mu_p,
        mu_p_se=mu_p_se,
        mu_s=float(su_success.mean()),
        mu_s_se=_series_se(su_success),
        p_sense=sense_count / n_slots,
        p_sense_se=_series_se(sense),
        p_access=blind_count / n_slots,
        p_access_se=_series_se(blind),
        occupancy=histogram / n_slots,
        occupancy_se=_occupancy_se(level_series, histogram),
        battery_histogram=histogram,
        action_counts={"idle": n_slots - blind_count - sense_count,
                       "blind": blind_count, "sense": sense_count},
        pu_active_slots=int(pu_success.size),
        su_tx_slots=int(np.count_nonzero(su_tx)),
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One analytic-vs-empirical check."""

    metric: str
    analytic: float
    empirical: float
    stderr: float
    zscore: float
    flagged: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Tabulated agreement between the analytical model and a simulation."""

    rows: tuple[ComparisonRow, ...]
    warnings: tuple[str, ...]
    analytic: PerformanceReport
    empirical: SimReport

    @property
    def flagged(self) -> bool:
        return any(row.flagged for row in self.rows)


def compare(params: SystemParams, policy: Policy, sim: SimConfig,
            min_samples: int = DEFAULT_MIN_SAMPLES) -> ComparisonReport:
    """Run the simulator and z-score every analytic quantity against it.

    A row is flagged when |z| exceeds 3.  Runs shorter than ``min_samples``
    are reported with a warning and never flagged: their confidence intervals
    are too wide to witness a disagreement.  The analytic model takes the
    sensing SNR and the RF harvest as independent, which a faithful run does
    not, so a faithful run of a policy that senses carries a warning that its
    sensing rows may be flagged for that alone.  Raises ``ValueError`` when
    ``min_samples`` is negative.
    """
    if min_samples < 0:
        raise ValueError(f"min_samples must be >= 0, got {min_samples}")
    analytic = evaluate(params, policy)
    empirical = run(params, policy, sim)
    sufficient = sim.slots >= min_samples
    warnings: list[str] = []
    if not sufficient:
        warnings.append(
            f"slots={sim.slots} below the minimum sample count "
            f"{min_samples}; disagreement flags suppressed"
        )

    rows: list[ComparisonRow] = []

    def add(metric: str, ana: float, emp: float, se: float):
        if math.isnan(emp) or math.isinf(se):
            z = 0.0
        else:
            z = (emp - ana) / se
        rows.append(ComparisonRow(
            metric=metric,
            analytic=ana,
            empirical=emp,
            stderr=se,
            zscore=z,
            flagged=sufficient and abs(z) > 3.0,
        ))

    add("mu_p", analytic.mu_p, empirical.mu_p, empirical.mu_p_se)
    add("mu_s", analytic.mu_s, empirical.mu_s, empirical.mu_s_se)
    add("p_sense", analytic.p_sense, empirical.p_sense, empirical.p_sense_se)
    add("p_access", analytic.p_access, empirical.p_access, empirical.p_access_se)
    for level in range(params.n_states):
        add(f"pi_{level}", float(analytic.stationary.pi[level]),
            float(empirical.occupancy[level]),
            float(empirical.occupancy_se[level]))
    if empirical.pu_active_slots == 0:
        warnings.append("licensed user never transmitted; mu_p not comparable")
    if sim.correlation_mode == "faithful" and np.any(policy.beta2 > 0):
        warnings.append(
            "faithful mode sets the sensing SNR and the RF harvest from one "
            "licensed-link gain but the analytic model takes them as "
            "independent; p_sense and mu_s may be flagged for that alone")
    return ComparisonReport(
        rows=tuple(rows),
        warnings=tuple(warnings),
        analytic=analytic,
        empirical=empirical,
    )
