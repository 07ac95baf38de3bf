"""Energy-detection statistics of the spectrum sensor.

The detector integrates ``m = tau * W`` samples and compares against a
threshold.  Against noise alone the decision statistic is central chi-square,
giving the false-alarm probability as a regularized gamma tail; against a
signal at SNR ``gamma`` it is noncentral chi-square, giving the detection
probability as a Marcum Q value.  Averaging over an exponentially distributed
SNR (Rayleigh-faded sensing link) has a closed form, valid for m >= 2.

Both closed forms evaluate a whole threshold array of a :class:`SensingConfig`
in one call; a single threshold is the one-entry case, returned as a float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp1f1

from .numerics import (
    marcum_q,
    regularized_lower_gamma_int,
    regularized_upper_gamma_int,
)
from .system_model import ConfigurationError


@dataclass(frozen=True)
class SensingConfig:
    """Detection threshold(s) and the integral sample count ``m = tau * W``."""

    #: one threshold, or a 1-D array of thresholds evaluated together
    threshold: float | np.ndarray
    m: int

    def __post_init__(self):
        if not all(0 < t < math.inf for t in np.ravel(self.threshold).tolist()):
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))


def false_alarm(cfg: SensingConfig) -> float | np.ndarray:
    """Probability of declaring an idle channel busy, per threshold."""
    return regularized_upper_gamma_int(cfg.m, np.asarray(cfg.threshold) / 2.0)


def detection_instant(cfg: SensingConfig, snr: float) -> float:
    """Detection probability at one realized sensing SNR.

    Reduces to the false-alarm probability at zero SNR and increases with it.
    """
    if snr < 0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    return marcum_q(cfg.m, math.sqrt(2.0 * snr), math.sqrt(cfg.threshold))


def detection_avg(cfg: SensingConfig, avg_snr: float) -> float | np.ndarray:
    """Detection probability averaged over an exponential SNR with mean avg_snr.

    Closed form for integer m >= 2:

        P_D = U(m-1, t/2)
            + ((1+g)/g)^(m-1) * [exp(-t/(2(1+g))) - exp(-t/2) * S(t*g/(2(1+g)))]

    with threshold t, mean SNR g, U the regularized upper gamma ratio and S
    the partial exponential sum of order m-2.  The bracket is regrouped here
    as exp(-t/(2(1+g))) times a regularized lower gamma ratio, which is the
    same quantity without subtractive cancellation, and the prefactor is
    applied in log space so small g cannot overflow.  Where that log form
    is not finite (the lower ratio underflows, or (1+g)/g overflows at a
    subnormal g) the second term is evaluated as the equal product

        exp(-t/2) (t/2)^(m-1) / (m-1)!  *  M(1, m, t*g/(2(1+g)))

    with Kummer's function M, the Poisson mass taken as U(m, t/2) -
    U(m-1, t/2), so every positive finite g gives a finite value, which
    tends to the false-alarm probability U(m, t/2) as g -> 0.  One value
    per threshold of ``cfg``.
    """
    if cfg.m < 2:
        raise ConfigurationError(
            "averaged detection requires a time-bandwidth product of at "
            f"least 2, got m={cfg.m}"
        )
    if not 0 < avg_snr < math.inf:
        raise ValueError(f"avg_snr must be positive and finite, got {avg_snr}")
    threshold = np.asarray(cfg.threshold, dtype=float)
    t = threshold.reshape(-1)  # 1-D even alone: the ufunc loops of a batch
    g = avg_snr
    first = regularized_upper_gamma_int(cfg.m - 1, t / 2.0)
    # log(0), inf - inf and t*g past the float range are the failures the
    # fallbacks below repair
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = t * g / (2.0 * (1.0 + g))
        y = np.where(np.isfinite(y), y, t / 2.0 * (g / (1.0 + g)))
        lower = regularized_lower_gamma_int(cfg.m - 1, y)
        log_second = ((cfg.m - 1) * math.log((1.0 + g) / g)
                      - t / (2.0 * (1.0 + g)) + np.log(lower))
        p_d = first + np.exp(log_second)
        lost = ~np.isfinite(log_second)
        if lost.any():
            # the Poisson mass of m - 1 at t/2 is U(m, t/2) - U(m-1, t/2)
            mass = np.maximum(regularized_upper_gamma_int(cfg.m, t[lost] / 2.0)
                              - first[lost], 0.0)
            # scipy's M is NaN at some orders past 1e20, where its
            # large-order limit 1 / (1 - y/m) stands in
            m, y = float(cfg.m), y[lost]
            kummer = hyp1f1(1.0, m, y)
            kummer = np.where(np.isfinite(kummer), kummer, m / (m - y))
            p_d[lost] = first[lost] + mass * kummer
    p_d = np.minimum(p_d, 1.0)
    return p_d if threshold.ndim else float(p_d[0])
