"""Energy-packet arrival distributions: ambient, RF, and their sum.

Ambient arrivals within a slot are Poisson with mean ``lambda_e * T``.  RF
arrivals occur only while the licensed transmitter is active: the harvested
energy ``eta * P_p * |h|^2 * T`` is quantized into packets of ``E_u`` Joules,
so the packet count of an exponentially faded link has the staircase law

    Pr{count = r} = exp(-r / mu) - exp(-(r + 1) / mu),
    mu = sigma_pst * eta * P_p * T / E_u.

The mixed distribution is the discrete convolution of the two, and
:func:`harvest_laws` builds the chain's (silent, active) pair of laws from
one ambient law, once per distinct ambient mean, RF packet scale and support
cap, and shares them read-only.  Truncated array forms carry their
complementary CDF so that the battery-cap boundary of the energy chain can
fold all overflow mass consistently.

Each law also memoizes its level matrix for a battery of n levels, the
law of the level that arrivals make of each level left after consumption,
of which the chain's kernel blocks are row gathers.  Its rows run from the
largest cost of a sensing time (at most n + N_max packets, or one past
the support) up to the top level, so it holds at most about 3 n^2 floats.
A law's matrix lives as long as the law: at worst the 16 memoized
scenarios hold 32 of them, about 3.8 MB each at ``N_max`` 400 and 123 MB
in all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .system_model import SystemParams

#: truncate a distribution once the remaining tail mass drops below this
TRUNCATION_TAIL = 1e-12

#: never extend the support beyond this multiple of the battery capacity
SUPPORT_CAP_FACTOR = 4


@dataclass(frozen=True)
class HarvestPmf:
    """Distribution of per-slot packet arrivals on a finite support.

    ``masses[k]`` is Pr{count = k} for k below the top bin; the top bin
    absorbs the folded tail so the masses always total one.  ``masses`` and
    ``tail_at_least`` are complementary by construction: the chain's row
    sums stay exactly stochastic no matter where the fold landed.
    ``masses`` is a read-only copy, so one law can serve every caller.
    """

    masses: np.ndarray

    def __post_init__(self):
        masses = np.array(self.masses, dtype=float, ndmin=1)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("masses must be a nonempty 1-D array")
        if not np.all(np.isfinite(masses)):
            raise ValueError("masses must be finite")
        if np.any(masses < 0):
            raise ValueError("masses must be nonnegative")
        if abs(masses.sum() - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1, got {masses.sum()!r}")
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)

    @cached_property
    def _ccdf(self) -> np.ndarray:
        # _ccdf[n] = Pr{count >= n} for n in 0..len(masses), complementary to
        # the partial sums of masses and clipped against float round-off,
        # then a zero for every count beyond the support
        tail = 1.0 - np.concatenate(([0.0], np.cumsum(self.masses)))
        return np.append(np.clip(tail, 0.0, 1.0), 0.0)

    def tail_at_least(self, count: int | np.ndarray) -> float | np.ndarray:
        """Pr{arrivals >= count}, elementwise over an integer array.

        Equals 1 at count <= 0 and 0 beyond the support.
        """
        return self._ccdf[np.clip(count, 0, self._ccdf.size - 1)]

    @cached_property
    def _level_matrices(self) -> dict[int, np.ndarray]:
        return {}

    def level_matrix(self, n_states: int, deepest: int) -> np.ndarray:
        """Read-only law of the battery level that arrivals make of each
        level left after consuming up to ``deepest`` packets, memoized.

        Row ``depth + d`` is the level ``d`` left, for d from ``-depth`` to
        ``n_states - 1``, with ``depth = matrix.shape[0] - n_states``; entry
        j of a row is Pr{arrivals = j - d} below the cap and Pr{arrivals >=
        n_states - 1 - d} at it, exact for d < 0 too.  Beyond the support
        every row is zero, so ``depth`` is at most one past it, and a
        matrix deep enough for an earlier call is returned as it is.
        """
        depth = min(deepest, self.masses.size + 1)
        levels = self._level_matrices.get(n_states)
        if levels is None or levels.shape[0] - n_states < depth:
            need = np.arange(n_states) - np.arange(-depth, n_states)[:, None]
            levels = np.empty(need.shape)
            # index -1 and index masses.size both land on the appended zero
            padded = np.append(self.masses, 0.0)
            levels[:, :-1] = padded[np.clip(need[:, :-1], -1, self.masses.size)]
            levels[:, -1] = self.tail_at_least(need[:, -1])
            levels.flags.writeable = False
            self._level_matrices[n_states] = levels
        return levels


def _ambient_mean(lambda_e: float, T: float) -> float:
    """Mean ambient packets per slot, ``lambda_e * T``, after the domain
    checks of both factors."""
    if lambda_e < 0:
        raise ValueError(f"lambda_e must be nonnegative, got {lambda_e}")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    return lambda_e * T


def _rf_packet_scale(params: SystemParams) -> float:
    """Mean of the exponential energy variable, in packets."""
    return params.sigma_pst * params.eta * params.P_p * params.T / params.E_u


def _truncate_and_fold(masses: np.ndarray, cap: int) -> np.ndarray:
    """Cut the support at the truncation rule and fold the remainder on top."""
    total = np.cumsum(masses)
    enough = np.nonzero(1.0 - total < TRUNCATION_TAIL)[0]
    k_trunc = int(enough[0]) if enough.size else masses.size - 1
    k_trunc = min(k_trunc, cap)
    out = np.array(masses[: k_trunc + 1], dtype=float)
    out[-1] += max(0.0, 1.0 - out.sum())
    return out


def nature_distribution(params: SystemParams) -> HarvestPmf:
    """Truncated ambient arrival distribution: the Poisson masses of the
    scalar law ``nature_pmf`` of ``tests/helpers.py``, bit for bit, with
    the log-mean taken once."""
    cap = SUPPORT_CAP_FACTOR * params.N_max
    mean = _ambient_mean(params.lambda_e, params.T)
    if mean == 0.0:
        masses = np.zeros(cap + 1)
        masses[0] = 1.0
    else:
        log_mean = math.log(mean)
        masses = np.array([math.exp(k * log_mean - math.lgamma(k + 1) - mean)
                           for k in range(cap + 1)])
    return HarvestPmf(_truncate_and_fold(masses, cap))


def rf_distribution(params: SystemParams) -> HarvestPmf:
    """Truncated RF arrival distribution (active-slot law): the staircase
    masses of the scalar law ``rf_pmf`` of ``tests/helpers.py``, bit for
    bit, as differences of one survival list."""
    cap = SUPPORT_CAP_FACTOR * params.N_max
    scale = _rf_packet_scale(params)
    if scale == 0.0:
        masses = np.zeros(cap + 1)
        masses[0] = 1.0
    else:
        survival = np.array([math.exp(-r / scale) for r in range(cap + 2)])
        masses = survival[:-1] - survival[1:]
    return HarvestPmf(_truncate_and_fold(masses, cap))


@dataclass(frozen=True)
class _Scenario:
    """The numbers the harvest laws read, and parameters that give them."""

    ambient_mean: float
    rf_scale: float
    cap: int
    params: SystemParams = field(compare=False)


def harvest_laws(params: SystemParams) -> tuple[HarvestPmf, HarvestPmf]:
    """Truncated arrival laws while the licensed user is silent (ambient
    alone) and while it is active (ambient plus RF), sharing one ambient law:
    the same law objects for the same ambient mean, RF scale and cap."""
    return _laws(_Scenario(_ambient_mean(params.lambda_e, params.T),
                           _rf_packet_scale(params),
                           SUPPORT_CAP_FACTOR * params.N_max, params))


@lru_cache(maxsize=16)
def _laws(scenario: _Scenario) -> tuple[HarvestPmf, HarvestPmf]:
    nature = nature_distribution(scenario.params)
    rf = rf_distribution(scenario.params)
    convolved = np.convolve(nature.masses, rf.masses)
    return nature, HarvestPmf(_truncate_and_fold(convolved, scenario.cap))


def combined_distribution(params: SystemParams) -> HarvestPmf:
    """Truncated distribution of ambient plus RF arrivals."""
    return harvest_laws(params)[1]
