import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammainccinv

from ehcr.numerics import regularized_upper_gamma_int
from ehcr.sensing import (
    SensingConfig,
    detection_avg,
    detection_instant,
    false_alarm,
)
from ehcr.system_model import ConfigurationError
from helpers import sensing_config

TABLE1_GAMMA_BAR = 4.0 * (0.8 / 9.0) / 0.02  # 17.7778


def cfg(m: int, threshold: float) -> SensingConfig:
    return SensingConfig(tau=m * 5e-5, threshold=threshold, m=m)


def detection_avg_quadrature(m: int, threshold: float, avg_snr: float) -> float:
    """Oracle: average the instantaneous detector over the exponential SNR."""
    def integrand(snr):
        return (stats.ncx2.sf(threshold, df=2 * m, nc=2.0 * snr)
                * math.exp(-snr / avg_snr) / avg_snr)
    value, _ = integrate.quad(integrand, 0.0, np.inf, limit=400)
    return value


class TestFalseAlarm:
    def test_single_sample(self):
        assert false_alarm(cfg(1, 2.0)) == pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_two_samples(self):
        assert false_alarm(cfg(2, 2.0)) == pytest.approx(
            2.0 * math.exp(-1.0), abs=1e-14)

    def test_vanishing_threshold(self):
        assert false_alarm(cfg(3, 1e-14)) == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_in_threshold(self):
        values = [false_alarm(cfg(4, t)) for t in (0.5, 2.0, 8.0, 20.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestDetectionInstant:
    def test_zero_snr_equals_false_alarm(self):
        c = cfg(1, 2.0)
        assert detection_instant(c, 0.0) == pytest.approx(
            false_alarm(c), abs=1e-12)

    def test_pinned_value(self):
        # oracle-pinned (noncentral tail quadrature); see numerics tests
        assert detection_instant(cfg(1, 2.0), 2.0) == pytest.approx(
            0.8174152250696, abs=1e-9)

    def test_zero_threshold_certain(self):
        assert detection_instant(cfg(2, 1e-300), 1.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_nondecreasing_in_snr(self):
        c = cfg(3, 6.0)
        values = [detection_instant(c, g) for g in (0.0, 0.5, 2.0, 10.0, 40.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            detection_instant(cfg(1, 1.0), -0.1)


class TestDetectionAvg:
    def test_single_sample_unsupported(self):
        with pytest.raises(ConfigurationError):
            detection_avg(cfg(1, 2.0), 5.0)

    @pytest.mark.parametrize("avg_snr", [math.nan, math.inf, 0.0, -1.0])
    def test_non_positive_or_non_finite_snr_rejected(self, avg_snr):
        # NaN and inf used to pass the sign check and fail in the gamma tail,
        # with a message about its argument x
        with pytest.raises(ValueError, match="avg_snr must be positive and finite"):
            detection_avg(cfg(4, 2.0), avg_snr)

    def test_vanishing_threshold_certain(self):
        assert detection_avg(cfg(4, 1e-12), 3.0) == pytest.approx(1.0, abs=1e-9)

    def test_table1_operating_point(self):
        value = detection_avg(cfg(2, 2.0), TABLE1_GAMMA_BAR)
        assert value == pytest.approx(0.9807783249126, abs=1e-9)
        assert value == pytest.approx(
            detection_avg_quadrature(2, 2.0, TABLE1_GAMMA_BAR), abs=1e-6)

    def test_vanishing_snr_reduces_to_false_alarm(self):
        value = detection_avg(cfg(2, 2.0), 1e-6)
        assert value == pytest.approx(false_alarm(cfg(2, 2.0)), abs=1e-5)

    def test_matches_quadrature_on_grid(self):
        for m in (2, 3, 5, 10):
            for threshold in (0.5, 2.0, 8.0, 30.0):
                for avg_snr in (0.5, 5.0, TABLE1_GAMMA_BAR):
                    closed = detection_avg(cfg(m, threshold), avg_snr)
                    oracle = detection_avg_quadrature(m, threshold, avg_snr)
                    assert closed == pytest.approx(oracle, abs=1e-6), \
                        (m, threshold, avg_snr)

    def test_never_below_false_alarm(self):
        # detector against the same threshold is never worse than chance
        ms = np.arange(2, 22)
        thresholds = np.geomspace(0.1, 120.0, 20)
        snrs = np.geomspace(0.05, 50.0, 10)
        for m in ms:
            for t in thresholds:
                c = cfg(int(m), float(t))
                pf = false_alarm(c)
                for g in snrs:
                    pd = detection_avg(c, float(g))
                    assert 0.0 <= pd <= 1.0
                    assert pd >= pf - 1e-12, (m, t, g)

    def test_matches_monte_carlo_average(self):
        # 1e6 exponential SNR draws; per-draw detection via the noncentral
        # tail (validated against detection_instant in its own tests)
        c = cfg(3, 8.0)
        avg_snr = 6.0
        rng = np.random.default_rng(42)
        draws = rng.exponential(avg_snr, 1_000_000)
        sample = stats.ncx2.sf(c.threshold, df=2 * c.m, nc=2.0 * draws)
        spot = [detection_instant(c, float(g)) for g in draws[:100]]
        assert np.max(np.abs(np.asarray(spot) - sample[:100])) < 1e-9
        se = float(sample.std(ddof=1) / math.sqrt(sample.size))
        assert detection_avg(c, avg_snr) == pytest.approx(
            float(sample.mean()), abs=3.0 * se)


def detection_avg_mpmath(mpmath, m: int, threshold: float, avg_snr: float) -> float:
    """Oracle: the closed form of :func:`detection_avg` at 60 digits."""
    with mpmath.workdps(60):
        t, g = mpmath.mpf(threshold), mpmath.mpf(avg_snr)
        upper = mpmath.gammainc(m - 1, t / 2, mpmath.inf, regularized=True)
        lower = mpmath.gammainc(m - 1, 0, t * g / (2 * (1 + g)), regularized=True)
        return float(upper + ((1 + g) / g) ** (m - 1)
                     * mpmath.exp(-t / (2 * (1 + g))) * lower)


class TestLargeTimeBandwidth:
    """Time-bandwidth products past the presets (m <= 190), where the old
    series' lower tail cancelled against 1 and detection came out wrong."""

    @pytest.mark.parametrize("m, avg_snr, p_f, expected", [
        (1500, 1.0, 0.5, 0.5103),   # the old series gave 1.0
        (2000, 4.0, 0.1, 0.1177),   # the old series gave 1.0
        (1000, 3.0, 0.5, 0.5374),   # the old series gave 0.4874
    ])
    def test_detection_matches_high_precision(self, m, avg_snr, p_f, expected):
        mpmath = pytest.importorskip("mpmath")
        threshold = 2.0 * float(gammainccinv(m, p_f))
        exact = detection_avg_mpmath(mpmath, m, threshold, avg_snr)
        assert exact == pytest.approx(expected, abs=1e-4)
        assert detection_avg(cfg(m, threshold), avg_snr) == pytest.approx(
            exact, rel=1e-10)


class TestThresholdArrays:
    """A threshold array gives what one call per threshold gives, exactly."""

    @pytest.mark.parametrize("m", [2, 5, 40, 190, 1500])
    def test_array_equals_scalar_calls(self, m):
        thresholds = 2.0 * gammainccinv(m, np.geomspace(0.999, 0.001, 40))
        batch = cfg(m, thresholds)
        for avg_snr in (0.3, 5.0, TABLE1_GAMMA_BAR):
            assert np.array_equal(
                detection_avg(batch, avg_snr),
                [detection_avg(cfg(m, t), avg_snr) for t in thresholds])
        assert np.array_equal(false_alarm(batch),
                              [false_alarm(cfg(m, t)) for t in thresholds])
        assert isinstance(detection_avg(cfg(m, thresholds[3]), 5.0), float)
        assert isinstance(false_alarm(cfg(m, thresholds[3])), float)

    def test_invalid_entry_rejected(self):
        with pytest.raises(ValueError):
            SensingConfig(tau=1e-4, threshold=np.array([2.0, 0.0]), m=2)


class TestSensingConfig:
    def test_from_params(self, table1_params):
        c = sensing_config(table1_params, 1e-4, 2.0)
        assert c.m == 2

    def test_non_integral_product_rejected(self, table1_params):
        with pytest.raises(ValueError):
            sensing_config(table1_params, 7.3e-5, 2.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SensingConfig(tau=1e-4, threshold=0.0, m=2)
