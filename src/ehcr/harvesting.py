"""Energy-packet arrival distributions: ambient, RF, and their sum.

Ambient arrivals within a slot are Poisson with mean ``lambda_e * T``.  RF
arrivals occur only while the licensed transmitter is active: the harvested
energy ``eta * P_p * |h|^2 * T`` is quantized into packets of ``E_u`` Joules,
so the packet count of an exponentially faded link has the staircase law

    Pr{count = r} = exp(-r / mu) - exp(-(r + 1) / mu),
    mu = sigma_pst * eta * P_p * T / E_u.

The mixed distribution is the discrete convolution of the two, and
:func:`harvest_laws` builds the chain's (silent, active) pair of laws from
one ambient law.  Truncated array forms carry their complementary CDF so
that the battery-cap boundary of the energy chain can fold all overflow mass
consistently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    """

    masses: np.ndarray

    def __post_init__(self):
        masses = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("masses must be a nonempty 1-D array")
        if not np.all(np.isfinite(masses)):
            raise ValueError("masses must be finite")
        if np.any(masses < 0):
            raise ValueError("masses must be nonnegative")
        if abs(masses.sum() - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1, got {masses.sum()!r}")
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


def harvest_laws(params: SystemParams) -> tuple[HarvestPmf, HarvestPmf]:
    """Truncated arrival laws while the licensed user is silent (ambient
    alone) and while it is active (ambient plus RF), sharing one ambient law."""
    cap = SUPPORT_CAP_FACTOR * params.N_max
    nature = nature_distribution(params)
    rf = rf_distribution(params)
    convolved = np.convolve(nature.masses, rf.masses)
    return nature, HarvestPmf(_truncate_and_fold(convolved, cap))


def combined_distribution(params: SystemParams) -> HarvestPmf:
    """Truncated distribution of ambient plus RF arrivals."""
    return harvest_laws(params)[1]
