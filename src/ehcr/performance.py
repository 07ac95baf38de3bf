"""Per-action rewards of both users, and the evaluation of a policy.

Each slot the secondary idles, transmits blind or senses first, and
:func:`action_rewards` holds what each of these actions yields per slot, as
the pair (mu_s, mu_p) of success probabilities.  The licensed user keeps its
silent success value unless the secondary transmits, sensing splitting into
detected (silent secondary) and mis-detected (interfered) branches; the
secondary scores only when it transmits and the burst survives, so idling
yields zero.  :func:`evaluate` weighs these rewards by the stationary share
of each action, and the optimizer's screen and policy LP read the same
rewards.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harvesting, sensing
from .chain import (
    Policy,
    StationaryDistribution,
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


def action_rewards(params: SystemParams, outages: OutageBundle, p_d, p_f
                   ) -> np.ndarray:
    """Per-slot (mu_s, mu_p) of idling, blind access and sensing, shape (3, 2).

    Blind access succeeds against the busy/idle mixture of the licensed user;
    the sensing branch transmits only on an idle verdict, so its busy side is
    discounted by the mis-detection probability and its idle side by the
    no-false-alarm probability.  ``p_d``/``p_f`` are floats, or (K,) arrays
    for K thresholds, which stack the rewards to (K, 3, 2).
    """
    rho = params.rho
    blind_su = (rho * outages.su_no_outage_wsp
                + (1.0 - rho) * outages.su_no_outage_ws)
    sense_su = (rho * (1.0 - p_d) * outages.su_no_outage_sp
                + (1.0 - rho) * (1.0 - p_f) * outages.su_no_outage_s)
    silent = outages.pu_no_outage_silent
    sense_pu = p_d * silent + (1.0 - p_d) * outages.pu_no_outage_md
    su = np.broadcast_arrays(0.0, blind_su, sense_su)
    pu = np.broadcast_arrays(silent, outages.pu_no_outage_ws, sense_pu)
    return np.stack([np.stack(su, axis=-1), np.stack(pu, axis=-1)], axis=-1)


def evaluate(params: SystemParams, policy: Policy) -> PerformanceReport:
    """Full analytical evaluation of a policy: chain, rates, access stats.

    The kernel mixes the :func:`~ehcr.chain.transition_components` of the
    three actions with the policy's :meth:`~ehcr.chain.Policy.level_actions`;
    the stationary share of each action then weighs its
    :func:`action_rewards`, and the shares of blind access and sensing are
    the access and sensing probabilities.  The policy's validation derives
    its sensing time once, for everything else to build on; the memoized
    :func:`~ehcr.harvesting.harvest_laws` give the laws no policy changes.
    """
    quantities = policy.validate_against(params)
    cfg = sensing.SensingConfig(policy.threshold, quantities.m)
    if cfg.m >= 2 or np.any(policy.beta2 > 0):
        # the second arm lets the averaged detector raise its own
        # unsupported-configuration error for a sensing policy at m = 1
        p_d = sensing.detection_avg(cfg, quantities.gamma_bar)
    else:
        p_d = 1.0  # no branch weights it
    p_f = sensing.false_alarm(cfg)
    blocks = harvest_blocks(params, quantities, *harvesting.harvest_laws(params))
    actions = policy.level_actions(quantities)
    kernel = np.einsum("an,anm->nm", actions,
                       transition_components(params, blocks, p_d, p_f))
    stationary = stationary_distribution(kernel)
    shares = (stationary.pi * actions).sum(axis=1)  # idle, blind, sense
    rewards = action_rewards(params, bundle(params, quantities), p_d, p_f)
    mu_s, mu_p = (shares @ rewards).tolist()
    _, p_access, p_sense = shares.tolist()
    return PerformanceReport(
        mu_p=mu_p,
        mu_s=mu_s,
        p_sense=p_sense,
        p_access=p_access,
        expected_sensing_time=p_sense * policy.tau,
        stationary=stationary,
        feasible=mu_p >= params.mu_th - FEASIBILITY_TOL,
    )
