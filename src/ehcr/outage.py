"""Closed-form success (no-outage) probabilities under Rayleigh fading.

A transmission succeeds when the instantaneous channel capacity exceeds its
spectral efficiency.  With exponentially distributed gains the solitary-link
success probability is a single exponential; one exponentially faded
interferer multiplies it by a rational attenuation factor obtained by
averaging over the interferer's gain.  ``bundle`` instantiates the seven
scenario probabilities the rate formulas consume, with the convention that
the secondary transmit energy is fixed, so skipping sensing spreads it over
the whole slot while sensing compresses it into the remainder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .system_model import DerivedQuantities, SystemParams


@dataclass(frozen=True)
class OutageBundle:
    """No-outage probabilities for every transmission scenario at one tau."""

    pu_no_outage_silent: float  # PU alone on the channel
    pu_no_outage_ws: float      # PU under interference from a full-slot SU burst
    pu_no_outage_md: float      # PU under interference from a post-sensing SU burst
    su_no_outage_ws: float      # SU full-slot burst, PU silent
    su_no_outage_wsp: float     # SU full-slot burst under PU interference
    su_no_outage_s: float       # SU post-sensing burst, PU silent
    su_no_outage_sp: float      # SU post-sensing burst under PU interference


def sinr_demand(rate: float) -> float:
    """SINR ``2^rate - 1`` needed to carry ``rate`` bits/s/Hz; inf where it
    passes the float range."""
    try:
        return 2.0**rate - 1.0
    except OverflowError:
        return math.inf


def no_outage_direct(rate: float, tx_power: float, link_gain: float,
                     noise_power: float) -> float:
    """Success probability of a solitary Rayleigh-faded link.

    ``exp(-(2^rate - 1) * noise / (power * gain))``; decreasing in the rate,
    increasing in the received power.  Zero noise is the noiseless limit 1,
    and a demand ``2^rate - 1`` past the float range the limit 0.
    """
    if rate <= 0 or tx_power <= 0 or link_gain <= 0:
        raise ValueError(
            f"rate, tx_power and link_gain must be positive, got "
            f"rate={rate}, tx_power={tx_power}, link_gain={link_gain}"
        )
    if noise_power < 0:
        raise ValueError(f"noise_power must be nonnegative, got {noise_power}")
    if noise_power == 0.0:
        return 1.0
    return math.exp(-sinr_demand(rate) * noise_power / (tx_power * link_gain))


def no_outage_interfered(rate: float, desired_power: float, desired_gain: float,
                         interferer_power: float, interferer_gain: float,
                         noise_power: float) -> float:
    """Success probability with one exponentially faded interferer.

    The interferer average multiplies the solitary-link value by
    ``P*s / (P*s + P_I*s_I*(2^rate - 1))``; with zero interferer power this
    collapses to :func:`no_outage_direct`.
    """
    if interferer_power < 0 or interferer_gain <= 0:
        raise ValueError(
            f"interferer_power must be nonnegative and interferer_gain "
            f"positive, got {interferer_power}, {interferer_gain}"
        )
    clear = no_outage_direct(rate, desired_power, desired_gain, noise_power)
    desired = desired_power * desired_gain
    interference = (interferer_power * interferer_gain * sinr_demand(rate)
                    if interferer_power > 0 else 0.0)
    return clear * desired / (desired + interference)


def bundle(params: SystemParams, q: DerivedQuantities) -> OutageBundle:
    """All seven scenario probabilities at the sensing time ``q.tau``.

    Full-slot secondary bursts transmit at ``E_t / T``; post-sensing bursts
    at ``E_t / (T - tau)`` with the correspondingly higher spectral
    efficiency.
    """
    power_blind = params.E_t / params.T
    power_sense = params.E_t / (params.T - q.tau)
    return OutageBundle(
        pu_no_outage_silent=no_outage_direct(
            q.r_p, params.P_p, params.sigma_p, params.sigma_n2),
        pu_no_outage_ws=no_outage_interfered(
            q.r_p, params.P_p, params.sigma_p,
            power_blind, params.sigma_sp, params.sigma_n2),
        pu_no_outage_md=no_outage_interfered(
            q.r_p, params.P_p, params.sigma_p,
            power_sense, params.sigma_sp, params.sigma_n2),
        su_no_outage_ws=no_outage_direct(
            q.r_s_blind, power_blind, params.sigma_s, params.sigma_n2),
        su_no_outage_wsp=no_outage_interfered(
            q.r_s_blind, power_blind, params.sigma_s,
            params.P_p, params.sigma_ps, params.sigma_n2),
        su_no_outage_s=no_outage_direct(
            q.r_s_sense, power_sense, params.sigma_s, params.sigma_n2),
        su_no_outage_sp=no_outage_interfered(
            q.r_s_sense, power_sense, params.sigma_s,
            params.P_p, params.sigma_ps, params.sigma_n2),
    )
