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

from .numerics import (
    marcum_q,
    regularized_lower_gamma_int,
    regularized_upper_gamma_int,
)
from .system_model import ConfigurationError


@dataclass(frozen=True)
class SensingConfig:
    """Sensing time, detection threshold(s), and the integral sample count."""

    tau: float
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
    applied in log space so small g cannot overflow.  One value per
    threshold of ``cfg``.
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
    lower = regularized_lower_gamma_int(cfg.m - 1, t * g / (2.0 * (1.0 + g)))
    with np.errstate(divide="ignore"):  # lower = 0 leaves just the first term
        log_second = ((cfg.m - 1) * math.log((1.0 + g) / g)
                      - t / (2.0 * (1.0 + g)) + np.log(lower))
    p_d = np.minimum(first + np.exp(log_second), 1.0)
    return p_d if threshold.ndim else float(p_d[0])
