"""Energy-queue Markov chain: transition kernels and stationary law.

The battery holds an integer number of energy packets, capped at ``N_max``.
Each slot the node acts according to its level: below the transmission cost
it must idle; between the transmission cost and the sense-and-transmit cost
it may transmit blindly with probability ``alpha``; above that it may
transmit blindly (``beta1``), sense and transmit only on an idle verdict
(``beta2``), or idle.  A transition consumes the acted-upon packets, adds the
slot's arrivals (ambient only when the licensed user is silent, ambient plus
RF when it is active), and caps at the battery size; the top column therefore
uses tail probabilities in place of point masses.

The model is indexed by action: :func:`transition_components` gives one
kernel per action (idle, blind access, sensing), and
:meth:`Policy.level_actions` gives each level's probability of taking each
action, so a policy's kernel is their level-wise mixture.  What depends on
the sensing time is read from the caller's
:class:`~ehcr.system_model.DerivedQuantities`, and the consume-then-harvest
blocks of one sensing time, one array from :func:`harvest_blocks`, serve
every detector setting.  Only the sensing kernel reads the detector, so
:func:`action_kernels` builds one idle/blind pair beside the sensing kernels
of a whole threshold array.  The optimizer's value determination and the
stationary law of a policy's kernel solve the same bordered unichain
system, the latter transposed.  The per-action rewards and the statistics
of a solved chain live in :mod:`ehcr.performance`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harvesting import HarvestPmf
from .system_model import DerivedQuantities, SystemParams, derive

#: entries below this are treated as structural zeros when classifying states
_EDGE_TOL = 1e-14

#: maximum acceptable infinity-norm residual of the stationary solve
STATIONARY_RTOL = 1e-9


class AmbiguousChainError(RuntimeError):
    """The chain has several closed classes, so no unique stationary law."""

    def __init__(self, classes: list[list[int]]):
        self.classes = classes
        names = "; ".join("{" + ", ".join(map(str, c)) + "}" for c in classes)
        super().__init__(
            f"chain is reducible with {len(classes)} closed classes: {names}"
        )


def action_ranges(params: SystemParams, tau: float) -> tuple[range, range]:
    """Battery levels governed by the blind-only and the full action rules:
    the ``alpha_range`` and ``beta_range`` of :func:`derive` at ``tau``."""
    q = derive(params, tau)
    return q.alpha_range, q.beta_range


@dataclass(frozen=True)
class Policy:
    """Access/sensing probabilities per battery level, plus sensing settings.

    ``alpha`` is indexed over the blind-only range, ``beta1``/``beta2`` over
    the full-action range (see :func:`action_ranges`).  ``threshold`` is the
    energy-detector threshold used whenever ``beta2`` fires.
    """

    alpha: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    tau: float
    threshold: float

    def __post_init__(self):
        for name in ("alpha", "beta1", "beta2"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
        if self.beta1.shape != self.beta2.shape:
            raise ValueError("beta1 and beta2 must have matching lengths")
        for name in ("alpha", "beta1", "beta2"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} entries must be finite")
            if arr.size and (np.any(arr < 0) or np.any(arr > 1)):
                raise ValueError(f"{name} entries must lie in [0, 1]")
        if self.beta1.size and np.any(self.beta1 + self.beta2 > 1.0 + 1e-12):
            raise ValueError("beta1 + beta2 must not exceed 1 at any level")
        if not 0 < self.threshold < np.inf:  # also false for NaN
            raise ValueError(
                f"threshold must be positive and finite, got {self.threshold!r}")

    def validate_against(self, params: SystemParams) -> DerivedQuantities:
        """Check the vector lengths against the level ranges of ``params``;
        returns the quantities :func:`derive` gives at the policy's tau."""
        quantities = derive(params, self.tau)
        alpha_range, beta_range = quantities.alpha_range, quantities.beta_range
        if self.alpha.size != len(alpha_range):
            raise ValueError(
                f"alpha must cover levels {alpha_range.start}.."
                f"{alpha_range.stop - 1} ({len(alpha_range)} entries), "
                f"got {self.alpha.size}"
            )
        if self.beta1.size != len(beta_range):
            raise ValueError(
                f"beta1/beta2 must cover levels {beta_range.start}.."
                f"{beta_range.stop - 1} ({len(beta_range)} entries), "
                f"got {self.beta1.size}"
            )
        return quantities

    @classmethod
    def idle(cls, params: SystemParams, tau: float, threshold: float) -> "Policy":
        """The never-act policy of the right shape for ``params``."""
        return cls.constant(params, tau, threshold, 0.0, 0.0, 0.0)

    @classmethod
    def constant(cls, params: SystemParams, tau: float, threshold: float,
                 alpha: float, beta1: float, beta2: float) -> "Policy":
        """Level-independent probabilities, shaped for ``params``."""
        alpha_range, beta_range = action_ranges(params, tau)
        return cls(
            alpha=np.full(len(alpha_range), float(alpha)),
            beta1=np.full(len(beta_range), float(beta1)),
            beta2=np.full(len(beta_range), float(beta2)),
            tau=tau,
            threshold=threshold,
        )

    def level_actions(self, quantities: DerivedQuantities) -> np.ndarray:
        """Probabilities (3, n) of idling, blind access and sensing at each
        battery level: ``alpha`` on the blind-only range, ``beta1``/``beta2``
        on the full range of ``quantities``, idling everywhere else."""
        actions = np.zeros((3, quantities.beta_range.stop))
        blind, full = quantities.alpha_range, quantities.beta_range
        actions[1, blind.start:blind.stop] = self.alpha
        actions[1:, full.start:] = self.beta1, self.beta2
        actions[0] = 1.0 - actions[1] - actions[2]
        return actions


@dataclass(frozen=True)
class StationaryDistribution:
    """Probability vector over battery levels with pi @ P == pi."""

    pi: np.ndarray


def harvest_blocks(params: SystemParams, q: DerivedQuantities,
                   idle_harvest: HarvestPmf,
                   active_harvest: HarvestPmf) -> np.ndarray:
    """Consume-then-harvest blocks of one sensing time, shape (2, 4, n, n).

    The first axis is the licensed user's state (silent, active), the second
    the packets consumed: none (hold), a transmission, a sensing operation,
    and sensing then transmission.  Nothing here depends on the detector
    settings, so one array serves a whole detection-threshold grid.

    Entry (i, j) of a block is the probability of arriving ``j - i + c``
    packets for a consumption of ``c``, zero where that count is negative;
    the last column holds the tail at the battery cap.  A row is meaningful
    only where the consumption is affordable (i >= c).  The blocks of each
    harvest law are one gather from its masses padded with a zero.
    """
    levels = np.arange(params.n_states)[:, None]
    costs = np.array([0, q.n_t, q.n_s, q.n_s + q.n_t])[:, None, None]
    need = levels.T - levels + costs  # (4, n, n): arrivals to reach column j
    blocks = np.empty((2, 4, params.n_states, params.n_states))
    for block, harvest in zip(blocks, (idle_harvest, active_harvest)):
        # index -1 and index masses.size both land on the appended zero
        padded = np.append(harvest.masses, 0.0)
        block[..., :-1] = padded[np.clip(need[..., :-1], -1, harvest.masses.size)]
        block[..., -1] = harvest.tail_at_least(need[..., -1])
    return blocks


def action_kernels(params: SystemParams, blocks: np.ndarray, p_d, p_f
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Kernels of idling and blind access, stacked to (2, n, n), and of
    sensing, from the :func:`harvest_blocks` of one sensing time and the
    averaged detection and false-alarm probabilities ``p_d``/``p_f``: (n, n)
    for floats, (K, n, n) for (K,) arrays of K thresholds, which share the
    one idle/blind pair."""
    rho, rho_bar = params.rho, 1.0 - params.rho
    p_d, p_f = np.asarray(p_d)[..., None, None], np.asarray(p_f)[..., None, None]
    (_, _, idle_sense, idle_sense_tx), (_, _, active_sense, active_sense_tx) = blocks
    # sensing consumes n_s always, plus n_t whenever the verdict is "idle":
    # false alarms block transmission off an idle channel, mis-detections
    # allow it on a busy one
    sense = (rho_bar * (p_f * idle_sense + (1.0 - p_f) * idle_sense_tx)
             + rho * (p_d * active_sense + (1.0 - p_d) * active_sense_tx))
    return rho_bar * blocks[0, :2] + rho * blocks[1, :2], sense


def transition_components(params: SystemParams, blocks: np.ndarray,
                          p_d: float, p_f: float) -> np.ndarray:
    """The :func:`action_kernels` of one threshold, stacked to (3, n, n)."""
    idle_blind, sense = action_kernels(params, blocks, p_d, p_f)
    return np.concatenate([idle_blind, sense[None]])


def _closed_classes(p: np.ndarray) -> list[list[int]]:
    """Strongly connected components with no outgoing edge, sorted.

    The reachability closure comes from squaring the one-step relation (with
    every state reaching itself) until it stops growing; a state is in a
    closed class when every state it reaches reaches it back, and its class
    is then the set it reaches.  Closed classes are disjoint (Kemeny & Snell
    1960), so each is listed once, from the row of its first member, and
    sorting by first member sorts the list.
    """
    reach = (p > _EDGE_TOL) | np.eye(p.shape[0], dtype=bool)
    while True:
        wider = (reach.astype(float) @ reach) > 0.0
        if np.array_equal(wider, reach):
            break
        reach = wider
    closed = reach[np.all(reach <= reach.T, axis=1)]
    return [np.flatnonzero(reach[first]).tolist()
            for first in np.unique(closed.argmax(axis=1))]


def _bordered(kernels: np.ndarray) -> np.ndarray:
    """``I - P`` with column 0 replaced by ones, over any leading batch axes.

    This is the unichain system of a chain (Kemeny & Snell 1960; Puterman
    1994, ch. 8), nonsingular when the chain has one closed class: ``A x =
    r`` gives the bias relative to level 0 with the gain in its place, and
    ``A.T pi = e_0`` the stationary law.
    """
    system = np.eye(kernels.shape[-1]) - kernels
    system[..., 0] = 1.0
    return system


def stationary_distribution(kernel: np.ndarray) -> StationaryDistribution:
    """Solve pi @ P = pi with unit total mass for an (n, n) kernel.

    The kernel must be square and finite, with entries no less than -1e-12
    and rows summing to 1 within 1e-9, else :class:`ValueError`.  A chain
    with more than one closed class has a stationary law per class, any of
    which the solve could return, so it raises :class:`AmbiguousChainError`
    naming the classes.  Otherwise one LU solve of the transposed
    :func:`_bordered` system, whose column of ones is the normalization,
    gives the law; round-off negatives are clipped, the mass renormalized
    and the balance residual checked.
    """
    p = np.asarray(kernel, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"kernel must be square, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("kernel entries must be finite")
    if np.any(p < -1e-12):
        raise ValueError("kernel entries must be nonnegative")
    deviation = np.max(np.abs(p.sum(axis=1) - 1.0))
    if deviation > 1e-9:
        raise ValueError(f"rows must sum to 1, worst deviation {deviation:.3e}")
    closed = _closed_classes(p)
    if len(closed) > 1:
        raise AmbiguousChainError(closed)
    unit = np.zeros(p.shape[0])
    unit[0] = 1.0
    pi = np.clip(np.linalg.solve(_bordered(p).T, unit), 0.0, None)
    pi /= pi.sum()
    residual = np.max(np.abs(pi @ p - pi))
    if not residual <= STATIONARY_RTOL:  # negated so NaN cannot slip through
        raise RuntimeError(
            f"stationary solve residual {residual:.3e} exceeds {STATIONARY_RTOL}"
        )
    return StationaryDistribution(pi)
