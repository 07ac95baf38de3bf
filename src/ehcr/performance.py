"""Success rates of both users, linear in the chain's occupation vector.

The occupation vector (pi, pi*alpha, pi*beta1, pi*beta2) is the stationary
battery law followed by the stationary probabilities of each acting level
taking each action.  Both rates are linear in it, and :func:`rate_rows`
holds their per-action values once, as coefficient rows: :func:`evaluate`
dots them with the vector of a solved chain, and the policy LP optimizes over
the same vector with the same rows.  The licensed user keeps its silent
success value unless the secondary transmits, sensing splitting into detected
(silent secondary) and mis-detected (interfered) branches; the secondary
scores only when it transmits and the burst survives, so idling contributes
zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harvesting, sensing
from .chain import (
    Policy,
    StationaryDistribution,
    TransitionMatrix,
    compose_transition,
    harvest_blocks,
    stationary_distribution,
    transition_components,
)
from .outage import OutageBundle, bundle
from .system_model import SystemParams

#: slack applied when comparing the licensed-user rate to its floor
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class PerformanceReport:
    """Evaluated rates and access statistics for one (params, policy) pair."""

    mu_p: float
    mu_s: float
    p_sense: float
    p_access: float
    expected_sensing_time: float
    stationary: StationaryDistribution
    feasible: bool


def occupation(pi: np.ndarray, policy: Policy, alpha_range: range,
               beta_range: range) -> np.ndarray:
    """The occupation vector (pi, pi*alpha, pi*beta1, pi*beta2).

    Each product is taken over its action range, so the blocks have lengths
    n_states, len(alpha_range), len(beta_range) and len(beta_range); this is
    also the variable layout of the policy LP.
    """
    alpha_mass = pi[alpha_range.start:alpha_range.stop]
    beta_mass = pi[beta_range.start:beta_range.stop]
    return np.concatenate([pi, alpha_mass * policy.alpha,
                           beta_mass * policy.beta1, beta_mass * policy.beta2])


def rate_rows(params: SystemParams, outages: OutageBundle, p_d, p_f,
              alpha_range: range, beta_range: range) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows of (mu_s, mu_p) over the :func:`occupation` vector.

    Blind access succeeds against the busy/idle mixture of the licensed user;
    the sensing branch transmits only on an idle verdict, so its busy side is
    discounted by the mis-detection probability and its idle side by the
    no-false-alarm probability.  The licensed user's row holds its silent
    value on the stationary masses and each action's change from silence on
    the product blocks.  ``p_d``/``p_f`` are floats, or (K,) arrays for K
    thresholds, which stack the rows to (K, length).
    """
    rho = params.rho
    blind_su = (rho * outages.su_no_outage_wsp
                + (1.0 - rho) * outages.su_no_outage_ws)
    sense_su = (rho * (1.0 - p_d) * outages.su_no_outage_sp
                + (1.0 - rho) * (1.0 - p_f) * outages.su_no_outage_s)
    silent = outages.pu_no_outage_silent
    blind_pu = outages.pu_no_outage_ws
    sense_pu = p_d * silent + (1.0 - p_d) * outages.pu_no_outage_md
    n, n_blind = params.n_states, len(alpha_range) + len(beta_range)

    def row(mass, blind, sense):
        # the masses, the blind products (both ranges), the sensing products
        out = np.empty(np.shape(sense_su) + (n + n_blind + len(beta_range),))
        out[..., :n] = mass
        out[..., n:n + n_blind] = blind
        out[..., n + n_blind:] = np.asarray(sense)[..., None]
        return out

    return (row(0.0, blind_su, sense_su),
            row(silent, blind_pu - silent, sense_pu - silent))


def evaluate(params: SystemParams, policy: Policy) -> PerformanceReport:
    """Full analytical evaluation of a policy: chain, rates, access stats.

    The rates are :func:`rate_rows` dotted with the :func:`occupation` vector
    of the stationary law; the blind-access and sensing probabilities are the
    sums of its blind and sensing product blocks.  The policy's validation
    derives its sensing time once, for everything else to build on.
    """
    quantities = policy.validate_against(params)
    cfg = sensing.SensingConfig(policy.tau, policy.threshold, quantities.m)
    alpha_range, beta_range = quantities.alpha_range, quantities.beta_range
    if cfg.m >= 2 or (len(beta_range) and np.any(policy.beta2 > 0)):
        # the second arm lets the averaged detector raise its own
        # unsupported-configuration error for a sensing policy at m = 1
        p_d = sensing.detection_avg(cfg, quantities.gamma_bar)
    else:
        p_d = 1.0  # no branch weights it
    p_f = sensing.false_alarm(cfg)
    blocks = harvest_blocks(params, quantities, *harvesting.harvest_laws(params))
    components = transition_components(params, quantities, blocks, p_d, p_f)
    stationary = stationary_distribution(TransitionMatrix(compose_transition(
        components, policy.alpha, policy.beta1, policy.beta2)))
    occupied = occupation(stationary.pi, policy, alpha_range, beta_range)
    mu_s_row, mu_p_row = rate_rows(params, bundle(params, quantities), p_d, p_f,
                                   alpha_range, beta_range)
    mu_p = float(mu_p_row @ occupied)
    blind_stop = params.n_states + len(alpha_range) + len(beta_range)
    p_sense = float(occupied[blind_stop:].sum())
    return PerformanceReport(
        mu_p=mu_p,
        mu_s=float(mu_s_row @ occupied),
        p_sense=p_sense,
        p_access=float(occupied[params.n_states:blind_stop].sum()),
        expected_sensing_time=p_sense * policy.tau,
        stationary=stationary,
        feasible=mu_p >= params.mu_th - FEASIBILITY_TOL,
    )
