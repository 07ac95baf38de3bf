import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehcr.chain import AmbiguousChainError, Policy, harvest_blocks
from ehcr.harvesting import harvest_laws
from ehcr.optimizer import GridSpec
from ehcr.outage import bundle
from ehcr.performance import evaluate
from ehcr.system_model import (
    ConfigurationError,
    LinkParams,
    derive,
    params_from_dict,
    validate,
    with_overrides,
)
from helpers import params_to_dict


class TestDerive:
    def test_table1_transmission_packets(self, table1_params):
        # ceil(0.5 / 0.06)
        assert table1_params.n_t == 9
        assert derive(table1_params, 1e-4).n_t == 9

    def test_table1_pu_spectral_efficiency(self, table1_params):
        q = derive(table1_params, 1e-4)
        assert q.r_p == pytest.approx(1.6, abs=1e-12)
        assert q.r_s_blind == pytest.approx(0.8, abs=1e-12)

    def test_table1_sensing_cost(self, table1_params):
        # f_s = W: two samples in 1e-4 s, 0.02 J, one packet
        q = derive(table1_params, 1e-4)
        assert q.n_s == 1
        assert q.m == 2

    def test_average_sensing_snr(self, table1_params):
        q = derive(table1_params, 1e-4)
        assert q.gamma_bar == pytest.approx(4.0 * (0.8 / 9) / 0.02, rel=1e-12)

    def test_sensing_rate_exceeds_blind_rate(self, testbench_params):
        q = derive(testbench_params, 2e-3)
        assert q.r_s_sense > q.r_s_blind

    def test_tau_out_of_slot_rejected(self, table1_params):
        with pytest.raises(ValueError):
            derive(table1_params, table1_params.T)
        with pytest.raises(ValueError):
            derive(table1_params, 0.0)

    def test_non_integral_time_bandwidth_rejected(self, table1_params):
        with pytest.raises(ValueError):
            derive(table1_params, 1.3e-4 / 2)

    def test_unreachable_sensing_branch(self, make_params):
        # n_t = 10 and n_s large: sensing can never be funded, so every
        # acting level is blind-only and the sensing range is empty
        params = make_params(e_proc=0.001)
        q = derive(params, 5e-3)
        assert q.n_t + q.n_s > params.N_max
        assert not q.beta_range
        assert q.alpha_range == range(q.n_t, params.n_states)

    @pytest.mark.parametrize("overrides", [
        {"e_proc": 1e16}, {"f_s": 1e24}, {"e_proc": 1e300, "f_s": 1e300}])
    def test_sensing_cost_far_beyond_the_battery(self, make_params, overrides):
        # such a cost used to overflow the kernel blocks' index array
        # (IndexError) or, as inf Joules, the packet count (OverflowError)
        params = make_params(**overrides)
        q = derive(params, 5e-4)
        assert q.n_s == params.n_states
        assert not q.beta_range
        assert q.alpha_range == range(q.n_t, params.n_states)
        assert np.all(np.isfinite(harvest_blocks(params, q,
                                                 *harvest_laws(params))))

    @pytest.mark.parametrize("name, cost", [("E_t", "n_t"), ("e_proc", "n_s")])
    @pytest.mark.parametrize("value", [1e-300, 5e-324])
    def test_positive_energy_costs_a_packet(self, testbench_params, name, cost,
                                            value):
        # an energy ratio at or below the integer snap used to cost nothing
        params = with_overrides(testbench_params, **{name: value})
        assert getattr(derive(params, 5e-4), cost) == 1

    def test_preset_packet_costs(self, testbench_params):
        # one sensing packet per 10 samples, ten per transmission
        costs = [(q.n_t, q.n_s, len(q.alpha_range), len(q.beta_range))
                 for q in (derive(testbench_params, tau) for tau in
                           GridSpec(tau_min=5e-4).tau_values(testbench_params))]
        assert costs == [(10, k, min(k, 11), max(11 - k, 0))
                         for k in range(1, 20)]

    def test_scale_consistency(self, make_params):
        rng = np.random.default_rng(5)
        base = make_params()
        reference = base.n_t
        for _ in range(50):
            c = float(rng.uniform(0.1, 50.0))
            scaled = with_overrides(base, E_t=base.E_t * c, E_u=base.E_u * c)
            assert scaled.n_t == reference

    def test_time_bandwidth_product_exactly_integer(self, testbench_params):
        w = testbench_params.W
        for k in range(1, 40):
            q = derive(testbench_params, k / w)
            assert q.m == k


class TestValidate:
    def test_presets_are_admissible(self, table1_params, testbench_params):
        assert validate(table1_params) == []
        assert validate(testbench_params) == []

    def test_rho_out_of_range(self, testbench_params):
        bad = with_overrides(testbench_params, rho=1.3)
        assert any("rho" in v for v in validate(bad))

    def test_battery_smaller_than_one_transmission(self, make_params):
        bad = make_params(N_max=5)  # n_t = 10
        assert any("battery" in v for v in validate(bad))

    @pytest.mark.parametrize("name", ["P_p", "sigma_n2", "T", "W", "b_p", "b_s",
                                      "E_u", "E_t", "e_proc", "f_s",
                                      "lambda_e"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, testbench_params, name, value):
        bad = with_overrides(testbench_params, **{name: value})
        assert any(v.startswith(f"{name} must be finite") for v in validate(bad))

    def test_transmission_packet_count_past_float_range(self, testbench_params):
        # E_t / E_u = inf used to raise OverflowError from n_t
        bad = with_overrides(testbench_params, E_u=1e-320)
        assert any(v.startswith("E_t / E_u must be finite") for v in validate(bad))

    def test_transmission_packet_count_below_float_range(self,
                                                         testbench_params):
        # E_t / E_u underflowed to 0, so n_t was 0 and a transmission free
        bad = with_overrides(testbench_params, E_u=10.0, E_t=5e-324)
        assert bad.n_t == 0
        assert validate(bad) == ["E_t / E_u must be positive, got E_t=5e-324, "
                                 "E_u=10.0"]

    @pytest.mark.parametrize("name, value", [("P_p", 1e308), ("sigma_n2", 1e-320)])
    def test_infinite_mean_sensing_snr_rejected(self, testbench_params, name,
                                                value):
        bad = with_overrides(testbench_params, **{name: value})
        assert any(v.startswith("mean sensing SNR") for v in validate(bad))

    def test_subnormal_mean_sensing_snr_admitted(self, testbench_params):
        # detection_avg returned NaN here, so evaluate raised even for the
        # idle policy
        params = with_overrides(testbench_params, P_p=1e-320)
        assert validate(params) == []
        assert 0.0 < derive(params, 5e-4).gamma_bar < 1e-300
        report = evaluate(params, Policy.idle(params, 5e-4, 30.0))
        assert report.mu_p == 0.0 and report.mu_s == 0.0


#: testbench constants the extreme-value property moves, one at a time
_EXTREME_KEYS = ("P_p", "sigma_n2", "W", "b_p", "b_s", "E_u", "E_t", "e_proc",
                 "f_s", "lambda_e")


class TestExtremeConstants:
    """One testbench constant anywhere in [1e-300, 1e300]: ``validate``
    answers, and on an admitted set with an admitted grid the model gives
    finite values with rates in [0, 1] at the first and last sensing time,
    or raises one of its documented errors."""

    @settings(max_examples=150)
    @given(key=st.sampled_from(_EXTREME_KEYS), exponent=st.floats(-300.0, 300.0))
    def test_finite_or_documented_error(self, testbench_params, key, exponent):
        params = with_overrides(testbench_params, **{key: 10.0**exponent})
        if validate(params):
            return
        try:
            taus = GridSpec(tau_min=5e-4).tau_values(params)
        except ValueError:
            return
        try:
            laws = harvest_laws(params)
            for tau in (taus[0], taus[-1]):
                q = derive(params, tau)
                for name, value in vars(q).items():
                    if isinstance(value, float):
                        assert math.isfinite(value), name
                assert all(0.0 <= v <= 1.0 for v in vars(bundle(params, q)).values())
                assert np.all(np.isfinite(harvest_blocks(params, q, *laws)))
                report = evaluate(params, Policy.idle(params, tau, 2.0 * q.m))
                for rate in (report.mu_s, report.mu_p, report.p_sense,
                             report.p_access):
                    assert 0.0 <= rate <= 1.0
        except (ConfigurationError, AmbiguousChainError):
            pass


class TestConfigIO:
    def test_round_trip_identity(self, table1_params, testbench_params):
        for params in (table1_params, testbench_params):
            assert params_from_dict(params_to_dict(params)) == params

    def test_missing_key_rejected(self, testbench_params):
        doc = params_to_dict(testbench_params)
        del doc["mu_th"]
        with pytest.raises(ConfigurationError):
            params_from_dict(doc)

    def test_missing_link_rejected(self, testbench_params):
        doc = params_to_dict(testbench_params)
        del doc["links"]["sp"]
        with pytest.raises(ConfigurationError):
            params_from_dict(doc)

    def test_extra_sections_tolerated(self, testbench_params):
        doc = params_to_dict(testbench_params)
        doc["grid"] = {"tau_min": 1e-3}
        doc["sim"] = {"slots": 10}
        assert params_from_dict(doc) == testbench_params

    def test_link_mean_gain(self):
        link = LinkParams(fading_mean=0.8, distance=3.0)
        assert link.mean_gain == pytest.approx(0.8 / 9.0, rel=1e-12)
        with pytest.raises(ValueError):
            LinkParams(fading_mean=0.0, distance=1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                LinkParams(fading_mean=bad, distance=1.0)
            with pytest.raises(ValueError, match="finite"):
                LinkParams(fading_mean=0.8, distance=bad)

    @pytest.mark.parametrize("distance", [1e-200, 1e200])
    def test_link_mean_gain_out_of_range_rejected(self, distance):
        # the square underflows to 0 (ZeroDivisionError) or overflows
        # (OverflowError) deep inside the search; the link rejects it
        with pytest.raises(ValueError, match="mean gain") as err:
            LinkParams(fading_mean=0.8, distance=distance)
        assert "fading_mean=0.8" in str(err.value)
        assert f"distance={distance}" in str(err.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5])
    def test_non_integral_battery_rejected(self, testbench_params, value):
        doc = params_to_dict(testbench_params)
        doc["N_max"] = value
        with pytest.raises(ConfigurationError, match="N_max must be an integer"):
            params_from_dict(doc)

    def test_battery_within_snap_is_rounded(self, testbench_params):
        # int() used to truncate a value the snap accepted: 19.9999999999 -> 19
        doc = params_to_dict(testbench_params)
        doc["N_max"] = 19.9999999999
        assert params_from_dict(doc).N_max == 20
