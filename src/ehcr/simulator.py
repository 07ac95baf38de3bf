"""Slot-level Monte Carlo simulation of the full access system.

The simulator shares nothing with the analytical chain beyond the primitive
sensing statistics: batteries, actions, sensing verdicts, fading draws and
SINR comparisons are all realized slot by slot, which makes it the ground
truth the closed forms are validated against.

The battery is the only sequential quantity, so :func:`run` has three parts,
all reading the one set of quantities derived by the policy's validation.
Before the loop, every draw is made and turned into per-slot arrays: the
harvest, the sensing verdict (a sensed slot is declared busy when its sensing
draw falls below the detection or false-alarm probability), and hence the
energy a sensing slot would cost.  The loop then carries only the battery:
it compares each slot's action draw with cumulative per-level thresholds,
debits the chosen action, adds the harvest and caps at the battery size,
recording each start-of-slot level.  After it, the actions are recovered from
the recorded levels, and transmissions, SINR outcomes, counters and
batch-means standard errors are computed as array expressions.

Two correlation modes are provided.  ``faithful`` uses one licensed-link gain
per slot for both the sensing SNR and the RF harvest, which is physically
consistent; ``decorrelated`` draws them independently, matching the
independence assumptions of the analytical model exactly, and is the default
for cross-validation.  Faithful-mode detection probabilities come from a
noncentral chi-square tail (``1 - scipy.special.chndtr``), which is accurate
to about 1e-12 in absolute terms: enough for a verdict, though not for
:func:`sensing.detection_instant`, which keeps Marcum Q.  A verdict needs
the tail only near its sensing draw, so the k licensed-busy slots' SNRs are
sorted and the tail is taken at every ``isqrt(k)``-th one: a slot whose draw
lies clearly below the tail at the knot under its SNR, or clearly above the
one over it, is decided by that bracket, and only the few slots in between
get their own tail (:func:`_faithful_verdicts`).

Randomness comes from one seed expanded into named substreams (one per slot
quantity), so instrumenting one quantity never shifts the draws of another.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chndtr

from . import sensing
from .chain import Policy
from .outage import sinr_demand
from .performance import PerformanceReport, evaluate
from .system_model import SystemParams

#: substream names, in spawn order; append only, never reorder
_STREAMS = ("pu", "h_p", "h_pst", "h_ps", "h_s", "h_sp",
            "action", "sensing", "nature", "rf")

CORRELATION_MODES = ("faithful", "decorrelated")

#: batches used for autocorrelation-robust standard errors
_N_BATCHES = 100

#: default minimum sample count before disagreement may be flagged
DEFAULT_MIN_SAMPLES = 1000

#: ambient mean at which larger ones are drawn, inside numpy's Poisson domain
#: (about 9.2e18); a count below any battery size is then 0.0 in floats
_AMBIENT_MEAN_CAP = 1e18

#: gap between sqrt(2 snr) and sqrt(threshold) past which detection is
#: certain in floats: Phi(-10) is 7.6e-24, far below half an ulp of 1.0
_CERTAIN_DETECTION_GAP = 10.0

#: margin by which a sensing draw must clear a bracket's knot tails before
#: the bracket decides its verdict.  The true tail increases with the SNR
#: and the computed one is within 1e-11 of it (Marcum Q checks m 10 to 100
#: over each sensing time's threshold grid), so a computed tail can fall
#: below one at a smaller SNR by at most 2e-11, far under the margin; the
#: property tests compare the verdicts slot by slot for m 2 to 1000
_VERDICT_MARGIN = 1e-9


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


def _faithful_detection(cfg: sensing.SensingConfig, snr: np.ndarray) -> np.ndarray:
    """:func:`sensing.detection_instant` at each realized sensing SNR, as the
    upper tail of a noncentral chi-square with ``2m`` degrees of freedom.

    Accurate to about 1e-12 in absolute terms only (it returns 0.0 where
    Marcum Q is 1e-36): ample for a ``u < p`` verdict, which is why only the
    simulator uses it and the public scalar function keeps Marcum Q.

    Past a noncentrality of about 1e19 ``chndtr`` returns NaN.  The
    statistic is at least ``(Z + sqrt(2 snr))**2`` for a standard normal
    ``Z``, so its tail above the threshold is at least
    ``Phi(sqrt(2 snr) - sqrt(threshold))``, which rounds to 1.0 once that
    gap reaches ``_CERTAIN_DETECTION_GAP``; such tails are 1.0, and any other
    that is not finite raises ``ValueError``.
    """
    tail = 1.0 - chndtr(cfg.threshold, 2.0 * cfg.m, 2.0 * snr)
    lost = ~np.isfinite(tail)
    if lost.any():
        certain = (np.sqrt(2.0 * snr) - math.sqrt(cfg.threshold)
                   >= _CERTAIN_DETECTION_GAP)
        if not np.all(certain[lost]):
            raise ValueError(
                f"detection probability at sensing SNR "
                f"{float(snr[lost & ~certain][0])!r} and threshold "
                f"{cfg.threshold!r} is not finite")
        tail[lost] = 1.0
    return tail


def _faithful_verdicts(cfg: sensing.SensingConfig, snr: np.ndarray,
                       u: np.ndarray) -> np.ndarray:
    """``u < _faithful_detection(cfg, snr)``, elementwise, from about
    ``2 sqrt(k)`` tails for ``k`` slots instead of ``k``.

    The tail increases with the SNR, so once the SNRs are sorted it is taken
    at every ``isqrt(k)``-th one and at the largest (the knots).  A slot
    whose draw lies below the tail at the knot at or under its SNR by more
    than ``_VERDICT_MARGIN`` is busy; one at or above the tail at the knot at
    or over it by that margin is free; only the slots in between are
    compared with their own tail.
    """
    k = snr.size
    order = np.argsort(snr)
    ranked_snr, ranked_u = snr[order], u[order]
    step = max(math.isqrt(k), 1)
    knots = np.arange(0, k, step)
    if k and knots[-1] != k - 1:
        knots = np.append(knots, k - 1)
    knot_tail = _faithful_detection(cfg, ranked_snr[knots])
    # the slot of rank j lies between knots j // step and the next one
    below = np.arange(k) // step
    above = np.minimum(below + 1, knots.size - 1)
    busy = ranked_u < knot_tail[below] - _VERDICT_MARGIN
    undecided = ~busy & (ranked_u < knot_tail[above] + _VERDICT_MARGIN)
    busy[undecided] = ranked_u[undecided] < _faithful_detection(
        cfg, ranked_snr[undecided])
    verdicts = np.empty(k, dtype=bool)
    verdicts[order] = busy
    return verdicts


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


def run(params: SystemParams, policy: Policy, sim: SimConfig) -> SimReport:
    """Simulate ``sim.slots`` slots and tally empirical statistics.

    Deterministic for a fixed seed.  The battery starts at
    ``sim.initial_battery``, is never driven negative (actions respect the
    level rules) and is capped at the battery size after each slot's
    harvest.
    """
    quantities = policy.validate_against(params)
    if sim.initial_battery > params.N_max:
        raise ValueError(
            f"initial battery {sim.initial_battery} exceeds N_max={params.N_max}")
    n_t, n_s = quantities.n_t, quantities.n_s
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
    if uses_sensing:
        busy_u = sensing_u[pu_active]
        if decorrelated:
            declared_busy[pu_active] = busy_u < sensing.detection_avg(
                cfg, quantities.gamma_bar)
        else:
            declared_busy[pu_active] = _faithful_verdicts(
                cfg, params.P_p * gain_pst[pu_active] / params.sigma_n2, busy_u)
    sense_cost = np.where(declared_busy, n_s, n_s + n_t)

    # the battery is the only sequential quantity
    levels: list[int] = []
    record = levels.append
    battery, n_max = int(sim.initial_battery), params.N_max
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
    level_series = np.array(levels, dtype=np.int64)

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
    are too wide to witness a disagreement.  Raises ``ValueError`` when
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
    return ComparisonReport(
        rows=tuple(rows),
        warnings=tuple(warnings),
        analytic=analytic,
        empirical=empirical,
    )
