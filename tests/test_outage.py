import math

import numpy as np
import pytest

from ehcr.outage import no_outage_direct, no_outage_interfered
from ehcr.system_model import with_overrides
from helpers import outages_at

SIGMA_P = 0.8 / 25.0
SIGMA_S = 0.8 / 9.0
SIGMA_SP = 0.8 / 25.0
SIGMA_PS = 0.8 / 25.0
NOISE = 0.02


def mc_direct(rng, rate, power, gain, noise, n=1_000_000):
    h = rng.exponential(gain, n)
    return float(np.mean(power * h / noise > 2.0**rate - 1.0))


def mc_interfered(rng, rate, power, gain, ipower, igain, noise, n=1_000_000):
    h = rng.exponential(gain, n)
    hi = rng.exponential(igain, n)
    sinr = power * h / (noise + ipower * hi)
    return float(np.mean(sinr > 2.0**rate - 1.0))


class TestDirect:
    def test_pu_link_at_published_constants(self):
        value = no_outage_direct(1.6, 4.0, SIGMA_P, NOISE)
        assert value == pytest.approx(0.728031161797609, abs=1e-12)

    def test_noiseless_limit(self):
        assert no_outage_direct(1.6, 4.0, SIGMA_P, 0.0) == 1.0

    def test_su_full_slot_burst(self):
        # 0.5 J over 1 ms = 500 W
        value = no_outage_direct(0.8, 500.0, SIGMA_S, NOISE)
        assert value == pytest.approx(0.9996665600964787, abs=1e-12)

    def test_monotone_in_rate_and_power(self):
        base = no_outage_direct(1.0, 2.0, SIGMA_S, NOISE)
        assert no_outage_direct(1.5, 2.0, SIGMA_S, NOISE) < base
        assert no_outage_direct(1.0, 3.0, SIGMA_S, NOISE) > base

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            no_outage_direct(0.0, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            no_outage_direct(1.0, 1.0, 1.0, -0.1)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(101)
        value = no_outage_direct(1.6, 4.0, SIGMA_P, NOISE)
        estimate = mc_direct(rng, 1.6, 4.0, SIGMA_P, NOISE)
        se = math.sqrt(value * (1 - value) / 1_000_000)
        assert abs(estimate - value) <= 3.0 * se


class TestInterfered:
    def test_pu_under_full_slot_su_burst(self):
        value = no_outage_interfered(1.6, 4.0, SIGMA_P, 500.0, SIGMA_SP, NOISE)
        assert value == pytest.approx(0.0028558177270338, abs=1e-12)

    def test_zero_interferer_reduces_to_direct(self):
        a = no_outage_interfered(1.2, 4.0, SIGMA_P, 0.0, SIGMA_SP, NOISE)
        b = no_outage_direct(1.2, 4.0, SIGMA_P, NOISE)
        assert a == pytest.approx(b, abs=1e-15)

    def test_su_post_sensing_burst_under_pu(self):
        # 0.5 J over 0.9 ms; the matching higher spectral efficiency
        value = no_outage_interfered(16.0 / (0.9e-3 * 2e4), 0.5 / 0.9e-3,
                                     SIGMA_S, 4.0, SIGMA_PS, NOISE)
        assert value == pytest.approx(0.9974529895886769, abs=1e-12)

    def test_decreasing_in_interferer_power(self):
        values = [no_outage_interfered(1.0, 4.0, SIGMA_P, p, SIGMA_SP, NOISE)
                  for p in (0.0, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(202)
        value = no_outage_interfered(1.6, 4.0, SIGMA_P, 500.0, SIGMA_SP, NOISE)
        estimate = mc_interfered(rng, 1.6, 4.0, SIGMA_P, 500.0, SIGMA_SP, NOISE)
        se = math.sqrt(value * (1 - value) / 1_000_000)
        assert abs(estimate - value) <= 3.0 * se


class TestBundle:
    def test_table1_values(self, table1_params):
        b = outages_at(table1_params, 1e-4)
        assert b.pu_no_outage_silent == pytest.approx(0.728031161797609, abs=1e-9)
        assert b.pu_no_outage_ws == pytest.approx(0.0028558177270338, abs=1e-9)
        assert b.su_no_outage_ws == pytest.approx(0.9996665600964787, abs=1e-9)
        assert b.su_no_outage_sp == pytest.approx(0.9974529895886769, abs=1e-9)

    def test_short_sensing_limit(self, table1_params):
        # sensing-branch values converge to the full-slot values as tau -> 0
        w = table1_params.W
        small = outages_at(table1_params, 1.0 / w)
        assert small.su_no_outage_s == pytest.approx(
            small.su_no_outage_ws, abs=5e-4)
        assert small.pu_no_outage_md == pytest.approx(
            small.pu_no_outage_ws, abs=5e-4)

    def test_vanishing_pu_power_removes_interference(self, make_params):
        params = make_params(P_p=1e-12)
        b = outages_at(params, 1e-3)
        assert b.su_no_outage_wsp == pytest.approx(b.su_no_outage_ws, rel=1e-9)

    def test_interference_ordering(self, testbench_params):
        b = outages_at(testbench_params, 2e-3)
        assert b.pu_no_outage_silent >= b.pu_no_outage_ws
        assert b.pu_no_outage_silent >= b.pu_no_outage_md
        assert b.su_no_outage_ws >= b.su_no_outage_wsp
        assert b.su_no_outage_s >= b.su_no_outage_sp
        # longer bursts at lower power: full-slot interferes less than
        # post-sensing, so the mis-detection case is the harsher one
        assert b.pu_no_outage_md <= b.pu_no_outage_ws

    def test_all_seven_match_monte_carlo(self, table1_params, testbench_params):
        rng = np.random.default_rng(303)
        n = 1_000_000
        for params, tau in ((table1_params, 1e-4), (testbench_params, 2e-3)):
            b = outages_at(params, tau)
            pb = params.E_t / params.T
            ps = params.E_t / (params.T - tau)
            rp = params.b_p / (params.T * params.W)
            rb = params.b_s / (params.T * params.W)
            rs = params.b_s / ((params.T - tau) * params.W)
            cases = [
                (b.pu_no_outage_silent,
                 mc_direct(rng, rp, params.P_p, params.sigma_p, params.sigma_n2, n)),
                (b.pu_no_outage_ws,
                 mc_interfered(rng, rp, params.P_p, params.sigma_p,
                               pb, params.sigma_sp, params.sigma_n2, n)),
                (b.pu_no_outage_md,
                 mc_interfered(rng, rp, params.P_p, params.sigma_p,
                               ps, params.sigma_sp, params.sigma_n2, n)),
                (b.su_no_outage_ws,
                 mc_direct(rng, rb, pb, params.sigma_s, params.sigma_n2, n)),
                (b.su_no_outage_wsp,
                 mc_interfered(rng, rb, pb, params.sigma_s,
                               params.P_p, params.sigma_ps, params.sigma_n2, n)),
                (b.su_no_outage_s,
                 mc_direct(rng, rs, ps, params.sigma_s, params.sigma_n2, n)),
                (b.su_no_outage_sp,
                 mc_interfered(rng, rs, ps, params.sigma_s,
                               params.P_p, params.sigma_ps, params.sigma_n2, n)),
            ]
            for closed, estimate in cases:
                se = math.sqrt(max(closed * (1 - closed), 1e-12) / n)
                assert abs(estimate - closed) <= 3.0 * se

    def test_tau_out_of_range(self, table1_params):
        with pytest.raises(ValueError):
            outages_at(table1_params, table1_params.T)
