"""Physical constants of the network and the integer quantities derived from them.

A :class:`SystemParams` instance holds every dimensioned constant: powers,
slot timing, packet sizes, harvesting rates, the energy-packet size, the
battery capacity and the five fading links.  :func:`derive` is the one place
that turns a sensing time into what depends on it: the integer packet costs,
the time-bandwidth product, the spectral efficiencies, the average sensing
SNR and the battery levels governed by each action rule.  Callers derive
once per sensing time and hand the result down.  All value types are
immutable and freely shareable across threads.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

#: exact key names of the JSON configuration document
CONFIG_KEYS = (
    "P_p", "sigma_n2", "T", "W", "b_p", "b_s", "rho", "eta",
    "E_u", "E_t", "e_proc", "f_s", "lambda_e", "N_max", "mu_th",
)
LINK_NAMES = ("p", "pst", "ps", "s", "sp")

#: ratios of configured constants within this distance of an integer are
#: treated as exactly integral (guards ceil/round against float noise)
_INT_SNAP = 1e-9


class ConfigurationError(ValueError):
    """A parameter set or derived quantity violates a structural requirement."""


def fuzzy_ceil(value: float) -> int:
    """Ceiling that forgives sub-snap float excess in ratios of exact inputs;
    at least 1 for a positive value, so a positive energy costs a packet."""
    return max(math.ceil(value - _INT_SNAP), int(value > 0))


def snap_to_int(value: float) -> int | None:
    """Nearest integer if value is within the snap tolerance, else None."""
    nearest = round(value)
    if abs(value - nearest) <= _INT_SNAP * max(1.0, abs(value)):
        return int(nearest)
    return None


@dataclass(frozen=True)
class LinkParams:
    """One fading link: mean fading coefficient and geometric distance."""

    fading_mean: float
    distance: float

    def __post_init__(self):
        try:  # the square of a finite distance can underflow or overflow
            gain = self.mean_gain
        except (ZeroDivisionError, OverflowError):
            gain = math.nan
        if not (0 < self.fading_mean < math.inf and 0 < self.distance < math.inf
                and 0 < gain < math.inf):
            raise ValueError(
                f"link parameters and their mean gain fading_mean / distance**2 "
                f"must be positive and finite, got fading_mean="
                f"{self.fading_mean}, distance={self.distance}"
            )

    @property
    def mean_gain(self) -> float:
        """Mean channel power gain under square-law path loss."""
        return self.fading_mean / self.distance**2


@dataclass(frozen=True)
class LinkSet:
    """The five links of the two-user topology."""

    p: LinkParams    # PU transmitter -> PU destination
    pst: LinkParams  # PU transmitter -> SU transmitter (sensing + RF harvest)
    ps: LinkParams   # PU transmitter -> SU destination (interference on SU)
    s: LinkParams    # SU transmitter -> SU destination
    sp: LinkParams   # SU transmitter -> PU destination (interference on PU)


@dataclass(frozen=True)
class SystemParams:
    """All physical and protocol constants of one scenario.

    Units: powers in Watts, times in seconds, bandwidth in Hz, packet sizes
    in bits, energies in Joules, ``lambda_e`` in energy packets per second.
    ``rho`` is the prior probability that the licensed channel is busy in a
    slot and ``mu_th`` the licensed user's minimum admissible success rate.
    """

    P_p: float
    sigma_n2: float
    T: float
    W: float
    b_p: float
    b_s: float
    rho: float
    eta: float
    E_u: float
    E_t: float
    e_proc: float
    f_s: float
    lambda_e: float
    N_max: int
    mu_th: float
    links: LinkSet

    # -- convenience accessors for the five mean gains -------------------
    @property
    def sigma_p(self) -> float:
        return self.links.p.mean_gain

    @property
    def sigma_pst(self) -> float:
        return self.links.pst.mean_gain

    @property
    def sigma_ps(self) -> float:
        return self.links.ps.mean_gain

    @property
    def sigma_s(self) -> float:
        return self.links.s.mean_gain

    @property
    def sigma_sp(self) -> float:
        return self.links.sp.mean_gain

    @property
    def n_t(self) -> int:
        """Energy packets consumed by one transmission."""
        return fuzzy_ceil(self.E_t / self.E_u)

    @property
    def n_states(self) -> int:
        """Number of battery levels, 0 through N_max."""
        return self.N_max + 1


@dataclass(frozen=True)
class DerivedQuantities:
    """Integer costs, rates and action ranges implied by a sensing time tau."""

    tau: float
    n_t: int         # packets per transmission
    n_s: int         # packets per sensing operation, n_states if beyond the battery
    m: int           # time-bandwidth product of the energy detector
    r_p: float       # PU spectral efficiency, bits/s/Hz
    r_s_blind: float  # SU spectral efficiency when skipping sensing
    r_s_sense: float  # SU spectral efficiency after a sensing phase
    gamma_bar: float  # average sensing SNR
    alpha_range: range  # levels that may only idle or access blindly
    beta_range: range   # levels that may also sense; empty if unaffordable


def _mean_sensing_snr(params: SystemParams) -> float:
    """Average SNR of the licensed signal at the secondary's detector."""
    return params.P_p * params.sigma_pst / params.sigma_n2


def derive(params: SystemParams, tau: float) -> DerivedQuantities:
    """Derive the integer packet costs and rates for sensing time ``tau``.

    ``tau`` must lie strictly inside the slot and give an integral
    time-bandwidth product.  The sample count is rounded to the nearest
    integer when ``f_s * tau`` is not integral.  A battery too small to ever
    fund sense-then-transmit is no error: ``beta_range`` is then empty and
    every acting level is blind-only.  A sensing cost beyond the battery,
    however large, is recorded as ``n_states`` packets, which no level holds.
    """
    if not 0 < tau < params.T:
        raise ValueError(f"tau must lie in (0, T={params.T}), got {tau}")
    m = snap_to_int(tau * params.W)
    if m is None or m < 1:
        raise ValueError(
            f"tau*W must be a positive integer, got {tau * params.W!r}"
        )
    sensing_energy = round(params.f_s * tau) * params.e_proc
    # a positive energy costs a packet even where its ratio to E_u underflows
    n_s = max(fuzzy_ceil(min(sensing_energy / params.E_u, params.n_states)),
              int(sensing_energy > 0))
    n_t = params.n_t
    transmit_time = params.T - tau
    split = min(n_t + n_s, params.n_states)
    return DerivedQuantities(
        tau=tau,
        n_t=n_t,
        n_s=n_s,
        m=m,
        r_p=params.b_p / (params.T * params.W),
        r_s_blind=params.b_s / (params.T * params.W),
        r_s_sense=params.b_s / (transmit_time * params.W),
        gamma_bar=_mean_sensing_snr(params),
        alpha_range=range(n_t, split),
        beta_range=range(split, params.n_states),
    )


def validate(params: SystemParams) -> list[str]:
    """List every violated invariant; an empty list means admissible."""
    violations: list[str] = []
    for name in ("P_p", "sigma_n2", "T", "W", "b_p", "b_s", "E_u", "E_t",
                 "e_proc", "f_s", "lambda_e"):
        value = getattr(params, name)
        if not math.isfinite(value):
            violations.append(f"{name} must be finite, got {value}")
        elif name == "lambda_e":
            if value < 0:
                violations.append(f"{name} must be nonnegative, got {value}")
        elif value <= 0:
            violations.append(f"{name} must be positive, got {value}")
    if not 0.0 <= params.rho <= 1.0:
        violations.append(f"rho out of [0,1]: {params.rho}")
    if not 0.0 <= params.mu_th <= 1.0:
        violations.append(f"mu_th out of [0,1]: {params.mu_th}")
    if not 0.0 <= params.eta <= 1.0:
        violations.append(f"eta out of [0,1]: {params.eta}")
    if params.N_max < 1:
        violations.append(f"N_max must be at least 1, got {params.N_max}")
    # each ratio is checked where its factors are admissible
    if 0 < params.E_t < math.inf and 0 < params.E_u < math.inf:
        if params.E_t / params.E_u == math.inf:
            violations.append(f"E_t / E_u must be finite, got E_t={params.E_t}, "
                              f"E_u={params.E_u}")
        elif params.E_t / params.E_u == 0.0:  # n_t would be 0 packets
            violations.append(f"E_t / E_u must be positive, got E_t={params.E_t}, "
                              f"E_u={params.E_u}")
        elif 1 <= params.N_max < params.n_t:
            violations.append(
                f"battery smaller than one transmission: N_max={params.N_max} "
                f"< n_t={params.n_t}"
            )
    if 0 < params.T < math.inf and 0 < params.W < math.inf:
        for name in ("b_p", "b_s"):  # a zero spectral efficiency has no outage law
            bits = getattr(params, name)
            if 0 < bits < math.inf and bits / (params.T * params.W) == 0.0:
                violations.append(f"{name} / (T * W) must be positive, got "
                                  f"{name}={bits}, T={params.T}, W={params.W}")
    if 0 < params.P_p < math.inf and 0 < params.sigma_n2 < math.inf:
        snr = _mean_sensing_snr(params)
        if not 0 < snr < math.inf:
            violations.append(
                f"mean sensing SNR P_p * sigma_pst / sigma_n2 must be positive "
                f"and finite, got {snr}")
    return violations


# ---------------------------------------------------------------------------
# configuration document I/O
# ---------------------------------------------------------------------------

def config_number(value: Any, name: str) -> float:
    """``value`` as a float when it is a JSON number (an int or a float, not
    a bool or a string); otherwise a :class:`ConfigurationError` naming
    ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    return float(value)


def params_from_dict(doc: dict[str, Any]) -> SystemParams:
    """Build a :class:`SystemParams` from a configuration document.

    Requires each documented key, each a JSON number (:func:`config_number`);
    extra top-level keys (grid, simulation sections) are ignored so one file
    can configure the whole toolchain.
    """
    missing = [k for k in CONFIG_KEYS if k not in doc]
    if missing:
        raise ConfigurationError(f"missing configuration keys: {missing}")
    links_doc = doc.get("links")
    if not isinstance(links_doc, dict):
        raise ConfigurationError("missing configuration section: links")
    link_kwargs = {}
    for name in LINK_NAMES:
        entry = links_doc.get(name)
        if not isinstance(entry, dict) or not {"fading_mean", "distance"} <= set(entry):
            raise ConfigurationError(
                f"links.{name} must provide fading_mean and distance"
            )
        link_kwargs[name] = LinkParams(**{
            key: config_number(entry[key], f"links.{name}.{key}")
            for key in ("fading_mean", "distance")})
    n_max = config_number(doc["N_max"], "N_max")
    n_max = snap_to_int(n_max) if math.isfinite(n_max) else None
    if n_max is None:
        raise ConfigurationError(f"N_max must be an integer, got {doc['N_max']!r}")
    scalars = {k: config_number(doc[k], k) for k in CONFIG_KEYS if k != "N_max"}
    return SystemParams(N_max=n_max, links=LinkSet(**link_kwargs), **scalars)


def with_overrides(params: SystemParams, **changes: Any) -> SystemParams:
    """Copy with selected scalar fields replaced (harvest toggles, rho sweeps)."""
    return dataclasses.replace(params, **changes)
