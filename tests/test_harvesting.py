import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehcr.harvesting import (
    SUPPORT_CAP_FACTOR,
    HarvestPmf,
    _truncate_and_fold,
    combined_distribution,
    harvest_laws,
    nature_distribution,
    rf_distribution,
)
from ehcr.system_model import with_overrides
from helpers import combined_pmf, nature_pmf, pmf, rf_pmf, tail_at_least


class TestNaturePmf:
    def test_table1_zero_count(self):
        # lambda_e = 2 /s over a 1 ms slot
        assert nature_pmf(2.0, 1e-3, 0) == pytest.approx(
            math.exp(-0.002), abs=1e-15)

    def test_two_packets_at_mean_two(self):
        assert nature_pmf(2000.0, 1e-3, 2) == pytest.approx(
            2.0 * math.exp(-2.0), abs=1e-15)

    def test_negative_count_is_zero(self):
        assert nature_pmf(2.0, 1e-3, -1) == 0.0

    def test_zero_rate_degenerates(self):
        assert nature_pmf(0.0, 1e-3, 0) == 1.0
        assert nature_pmf(0.0, 1e-3, 3) == 0.0


class TestRfPmf:
    def test_table1_scale_is_degenerate(self, table1_params):
        # packet scale ~1/337.5: all mass at zero
        assert rf_pmf(table1_params, 0) == pytest.approx(1.0, abs=1e-12)

    def test_unit_scale(self, make_params):
        # sigma_pst * eta * P_p * T = E_u  =>  p(0) = 1 - e^-1
        params = make_params(T=1e-3, E_u=0.06,
                             links={"pst": {"fading_mean": 30.0, "distance": 1.0}})
        assert params.sigma_pst * params.eta * params.P_p * params.T == pytest.approx(
            params.E_u, rel=1e-12)
        assert rf_pmf(params, 0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_vanishing_link_gives_no_harvest(self, make_params):
        params = make_params(eta=0.0)
        assert rf_pmf(params, 0) == 1.0
        assert rf_pmf(params, 1) == 0.0

    def test_sums_to_one(self, testbench_params):
        total = sum(rf_pmf(testbench_params, r) for r in range(4000))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_empirical_histogram(self, testbench_params):
        # quantized exponential energy draws, 3 standard errors per bin
        p = testbench_params
        rng = np.random.default_rng(123)
        draws = rng.exponential(p.sigma_pst, 1_000_000)
        counts = np.floor(p.eta * p.P_p * draws * p.T / p.E_u).astype(int)
        n = counts.size
        for r in range(0, 60, 5):
            expected = rf_pmf(p, r)
            observed = float(np.mean(counts == r))
            se = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
            assert abs(observed - expected) <= 3.0 * se, (r, observed, expected)


class TestCombinedPmf:
    def test_degenerate_rf_reduces_to_nature(self, make_params):
        params = make_params(eta=0.0)
        for q in range(10):
            assert combined_pmf(params, True, q) == pytest.approx(
                nature_pmf(params.lambda_e, params.T, q), abs=1e-15)

    def test_zero_count_product(self, make_params):
        # mean-2 ambient arrivals with unit-scale RF: product of zero masses
        params = make_params(T=1e-3, E_u=0.06, lambda_e=2000.0,
                             links={"pst": {"fading_mean": 30.0, "distance": 1.0}})
        assert combined_pmf(params, True, 0) == pytest.approx(
            math.exp(-2.0) * (1.0 - math.exp(-1.0)), abs=1e-12)

    def test_include_rf_false(self, testbench_params):
        for q in range(6):
            assert combined_pmf(testbench_params, False, q) == nature_pmf(
                testbench_params.lambda_e, testbench_params.T, q)

    def test_normalization(self, testbench_params):
        total = sum(combined_pmf(testbench_params, True, q) for q in range(2500))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestTails:
    def test_tail_at_zero_is_one(self, testbench_params):
        for kind in ("nature", "rf", "combined"):
            assert tail_at_least(kind, testbench_params, 0) == 1.0

    def test_poisson_tail(self, make_params):
        params = make_params(lambda_e=200.0, T=0.01)  # mean 2
        assert tail_at_least("nature", params, 1) == pytest.approx(
            1.0 - math.exp(-2.0), abs=1e-12)

    def test_complementarity(self, testbench_params):
        for kind in ("nature", "rf", "combined"):
            for n in (1, 3, 8):
                if kind == "nature":
                    below = sum(nature_pmf(testbench_params.lambda_e,
                                           testbench_params.T, k)
                                for k in range(n))
                elif kind == "rf":
                    below = sum(rf_pmf(testbench_params, k) for k in range(n))
                else:
                    below = sum(combined_pmf(testbench_params, True, k)
                                for k in range(n))
                assert tail_at_least(kind, testbench_params, n) + below == \
                    pytest.approx(1.0, abs=1e-12)


class TestDistributions:
    def test_masses_sum_to_one_after_fold(self, testbench_params):
        for dist in (nature_distribution(testbench_params),
                     rf_distribution(testbench_params),
                     combined_distribution(testbench_params)):
            assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(dist.masses >= 0)
            assert dist.masses.size <= 4 * testbench_params.N_max + 1

    def test_convolution_matches_scalar_sum(self, testbench_params):
        dist = combined_distribution(testbench_params)
        for q in range(0, 2 * testbench_params.N_max):
            assert pmf(dist, q) == pytest.approx(
                combined_pmf(testbench_params, True, q), abs=1e-12), q

    def test_pmf_and_tail_are_complementary(self, testbench_params):
        dist = combined_distribution(testbench_params)
        for n in range(dist.masses.size + 2):
            below = sum(pmf(dist, k) for k in range(n))
            assert below + dist.tail_at_least(n) == pytest.approx(1.0, abs=1e-12)

    def test_mean_additivity(self, make_params):
        # independence of the two sources, on exact (untruncated) laws
        params = make_params()
        nature_mean = params.lambda_e * params.T
        high = 2000
        rf_mean = sum(k * rf_pmf(params, k) for k in range(high))
        combined_mean = sum(k * combined_pmf(params, True, k) for k in range(high))
        assert combined_mean == pytest.approx(nature_mean + rf_mean, abs=1e-9)

    def test_negative_and_outside_support(self, testbench_params):
        dist = nature_distribution(testbench_params)
        assert pmf(dist, -1) == 0.0
        assert pmf(dist, dist.masses.size + 5) == 0.0
        assert dist.tail_at_least(-2) == 1.0

    def test_invalid_masses_rejected(self):
        with pytest.raises(ValueError):
            HarvestPmf(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            HarvestPmf(np.array([1.2, -0.2]))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                HarvestPmf(np.array([bad, 1.0]))

    @pytest.mark.parametrize("changes, message", [
        ({"lambda_e": -1.0}, "lambda_e must be nonnegative, got -1.0"),
        ({"T": 0.0}, "T must be positive, got 0.0")])
    def test_ambient_law_checks_its_rate(self, testbench_params, changes,
                                         message):
        # the array form checks the rate as the scalar law does, rather
        # than failing inside the logarithm of the mean, and the memoized
        # pair checks it before looking the laws up
        params = with_overrides(testbench_params, **changes)
        with pytest.raises(ValueError, match=message):
            nature_pmf(params.lambda_e, params.T, 0)
        for build in (nature_distribution, harvest_laws):
            with pytest.raises(ValueError, match=message):
                build(params)

    @given(lambda_e=st.one_of(st.just(0.0), st.floats(0.0, 5000.0)),
           eta=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           n_max=st.integers(1, 60))
    def test_arrays_equal_the_scalar_laws(self, testbench_params, lambda_e,
                                          eta, n_max):
        # the array forms take each exp and log once, with the same float
        # operations as the scalar laws; a zero rate or eta is a zero source
        params = with_overrides(testbench_params, lambda_e=lambda_e, eta=eta,
                                N_max=n_max)
        cap = 4 * n_max
        counts = range(cap + 1)
        nature = [nature_pmf(lambda_e, params.T, k) for k in counts]
        rf = [rf_pmf(params, k) for k in counts]
        for dist, scalar in ((nature_distribution(params), nature),
                             (rf_distribution(params), rf)):
            assert np.array_equal(dist.masses,
                                  _truncate_and_fold(np.array(scalar), cap))

    @given(mode=st.sampled_from(["mixed", "nature", "rf"]),
           lambda_e=st.floats(0.0, 5000.0), eta=st.floats(0.0, 1.0),
           n_max=st.integers(1, 60))
    def test_tail_nonincreasing_in_count(self, testbench_params, mode,
                                         lambda_e, eta, n_max):
        # the harvest modes of the CLI sweep: one source zeroed, or both on
        changes = {"lambda_e": lambda_e, "eta": eta, "N_max": n_max}
        changes.update({"nature": {"eta": 0.0}, "rf": {"lambda_e": 0.0}}
                       .get(mode, {}))
        params = with_overrides(testbench_params, **changes)
        for dist in (nature_distribution(params), rf_distribution(params),
                     combined_distribution(params)):
            tail = dist.tail_at_least(np.arange(-2, dist.masses.size + 3))
            assert tail[0] == 1.0 and tail[-1] == 0.0
            assert np.all(np.diff(tail) <= 0.0)


#: the constants the harvest laws read, and their testbench neighbourhood
_LAW_INPUTS = dict(lambda_e=st.one_of(st.just(0.0), st.floats(0.0, 5000.0)),
                   eta=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                   n_max=st.integers(1, 60),
                   e_u=st.floats(1e-6, 1e-2))


class TestLawMemo:
    """The laws are built once per (ambient mean, RF scale, cap) and shared."""

    @staticmethod
    def params(base, lambda_e, eta, n_max, e_u, **changes):
        return with_overrides(base, lambda_e=lambda_e, eta=eta, N_max=n_max,
                              E_u=e_u, **changes)

    @given(**_LAW_INPUTS)
    def test_memoized_laws_equal_an_uncached_build(self, testbench_params,
                                                   lambda_e, eta, n_max, e_u):
        params = self.params(testbench_params, lambda_e, eta, n_max, e_u)
        nature, active = harvest_laws(params)
        # the laws as built before the memo: from the public builders
        fresh = nature_distribution(params)
        convolved = np.convolve(fresh.masses, rf_distribution(params).masses)
        assert np.array_equal(nature.masses, fresh.masses)
        assert np.array_equal(active.masses, _truncate_and_fold(
            convolved, SUPPORT_CAP_FACTOR * n_max))
        assert np.array_equal(combined_distribution(params).masses,
                              active.masses)

    @given(**_LAW_INPUTS, rho=st.floats(0.0, 1.0), mu_th=st.floats(0.0, 1.0),
           b_p=st.floats(1.0, 1e4))
    def test_other_constants_share_the_law_objects(self, testbench_params,
                                                   lambda_e, eta, n_max, e_u,
                                                   rho, mu_th, b_p):
        params = self.params(testbench_params, lambda_e, eta, n_max, e_u)
        other = self.params(testbench_params, lambda_e, eta, n_max, e_u,
                            rho=rho, mu_th=mu_th, b_p=b_p)
        assert all(a is b for a, b in zip(harvest_laws(params),
                                          harvest_laws(other)))

    @given(**_LAW_INPUTS)
    def test_shared_masses_are_read_only(self, testbench_params, lambda_e, eta,
                                         n_max, e_u):
        params = self.params(testbench_params, lambda_e, eta, n_max, e_u)
        for law in harvest_laws(params):
            before = law.masses.copy()
            with pytest.raises(ValueError, match="read-only"):
                law.masses[0] = 0.5
            assert np.array_equal(law.masses, before)

    def test_masses_are_copied_from_the_caller(self):
        # freezing the law's masses leaves the caller's array writable
        given_masses = np.array([0.25, 0.75])
        law = HarvestPmf(given_masses)
        given_masses[0] = 0.5
        assert law.masses[0] == 0.25
