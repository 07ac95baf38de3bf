import itertools
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.optimize import linprog

from ehcr import numerics
from ehcr.numerics import (
    MarcumConvergenceError,
    marcum_q,
    regularized_lower_gamma_int,
    regularized_upper_gamma_int,
    solve_lp,
)

from helpers import (
    deadline,
    empty_constraints,
    reference_lower_gamma_int,
    reference_marcum_q,
    reference_upper_gamma_int,
)

def upper_gamma_quadrature(m: int, x: float) -> float:
    """Independent oracle: adaptive quadrature of the gamma integrand."""
    if x == 0.0:
        return 1.0
    value, _ = integrate.quad(
        lambda t: t ** (m - 1) * math.exp(-t), x, np.inf, limit=200)
    return value / math.gamma(m)


class TestUpperGamma:
    def test_m1_is_plain_exponential(self):
        assert regularized_upper_gamma_int(1, 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-15)

    def test_zero_argument_is_full_mass(self):
        assert regularized_upper_gamma_int(3, 0.0) == 1.0

    def test_m2_closed_form(self):
        # cross-checked against quadrature of the integrand
        assert regularized_upper_gamma_int(2, 1.0) == pytest.approx(
            2.0 * math.exp(-1.0), abs=1e-15)
        assert regularized_upper_gamma_int(2, 1.0) == pytest.approx(
            upper_gamma_quadrature(2, 1.0), abs=1e-12)

    def test_matches_quadrature_on_grid(self):
        for m in range(1, 11):
            for x in np.linspace(0.1, 20.0, 24):
                assert regularized_upper_gamma_int(m, float(x)) == pytest.approx(
                    upper_gamma_quadrature(m, float(x)), abs=1e-8), (m, x)

    def test_monotone_in_x_and_m(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            x = float(rng.uniform(0.0, 30.0))
            dx = float(rng.uniform(0.01, 5.0))
            base = regularized_upper_gamma_int(m, x)
            assert 0.0 <= base <= 1.0
            assert regularized_upper_gamma_int(m, x + dx) <= base + 1e-12
            assert regularized_upper_gamma_int(m + 1, x) >= base - 1e-12

    def test_large_argument_stays_finite(self):
        value = regularized_upper_gamma_int(3, 800.0)
        assert 0.0 <= value < 1e-300

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_upper_gamma_int(0, 1.0)
        with pytest.raises(ValueError):
            regularized_upper_gamma_int(2, -0.5)

    @given(m=st.integers(1, 60), x=st.floats(0.0, 800.0),
           y=st.floats(0.0, 800.0))
    def test_tail_monotone_property(self, m, x, y):
        # nonincreasing in x up to rounding (a few ulps between close
        # arguments), nondecreasing in m exactly: the m+1 sum adds a term
        lo, hi = sorted((x, y))
        upper = regularized_upper_gamma_int(m, lo)
        assert 0.0 <= upper <= 1.0
        assert regularized_upper_gamma_int(m, hi) <= upper * (1.0 + 1e-13)
        assert regularized_upper_gamma_int(m + 1, lo) >= upper

    @pytest.mark.parametrize("tail", [regularized_upper_gamma_int,
                                      regularized_lower_gamma_int])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_argument_refused(self, tail, x):
        # the lower tail's series never met its stop test on NaN
        with deadline(5.0), pytest.raises(ValueError, match="finite"):
            tail(3, x)

    def test_lower_complements_upper(self):
        for m in (1, 2, 5, 9):
            for x in (0.05, 0.9, 4.2, 18.0):
                total = (regularized_lower_gamma_int(m, x)
                         + regularized_upper_gamma_int(m, x))
                assert total == pytest.approx(1.0, abs=1e-12)


class TestGammaTailOracles:
    """The scipy tails against the hand-written series they replaced and
    against 60-digit closed forms past the series' reach."""

    @given(m=st.integers(1, 200), x=st.floats(0.0, 700.0))
    def test_match_series_oracles(self, m, x):
        # the series hold ~1e-13 below x = 700; where the two differ the
        # scipy value is the nearer to the 60-digit one
        for tail, oracle in ((regularized_upper_gamma_int, reference_upper_gamma_int),
                             (regularized_lower_gamma_int, reference_lower_gamma_int)):
            expected = oracle(m, x)
            if expected > 1e-280:
                assert tail(m, x) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m, x", [(1000, 750.0), (2000, 1500.0), (900, 701.0)])
    def test_large_order_lower_tail(self, m, x):
        # above x = 700 the series took 1 - U(m, x), which cancels for m > x:
        # L(1000, 750) came out 1.07e-13 against a true 2.15e-18
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            exact = float(mpmath.gammainc(m, 0, x, regularized=True))
        assert regularized_lower_gamma_int(m, x) == pytest.approx(exact, rel=1e-10,
                                                                  abs=0.0)

    @pytest.mark.parametrize("tail", [regularized_upper_gamma_int,
                                      regularized_lower_gamma_int])
    def test_array_argument_equals_scalar_calls(self, tail):
        x = np.array([0.0, 0.3, 7.5, 41.0, 699.0, 750.0])
        values = tail(12, x)
        assert isinstance(tail(12, 7.5), float)
        assert np.array_equal(values, [tail(12, float(v)) for v in x])
        with pytest.raises(ValueError, match="finite"):
            tail(12, np.array([1.0, math.nan]))


def marcum_q_mpmath(mpmath, m: int, a: float, b: float):
    """Independent oracle: the Poisson-mixture series at 60 digits, summed
    past the Poisson mode until a term drops below 1e-40 of the total.  Each
    gamma tail is the last plus the Poisson(b^2/2) mass at its order, so the
    series needs one incomplete gamma evaluation and positive steps only."""
    with mpmath.workdps(60):
        s = mpmath.mpf(a) ** 2 / 2
        x = mpmath.mpf(b) ** 2 / 2
        weight = mpmath.exp(-s)
        tail = mpmath.gammainc(m, x, mpmath.inf, regularized=True)
        mass = x ** (m - 1) * mpmath.exp(-x) / mpmath.factorial(m - 1)
        total = mpmath.mpf(0)
        n = 0
        while True:
            term = weight * tail
            total += term
            if n > s + 50 and term < total * mpmath.mpf(10) ** -40:
                return +total
            mass *= x / (m + n)  # the Poisson(x) mass at m + n
            tail += mass         # U(m + n + 1, x)
            n += 1
            weight *= s / n


class TestMarcumQ:
    def test_zero_a_reduces_to_gamma_tail(self):
        assert marcum_q(1, 0.0, math.sqrt(2.0)) == pytest.approx(
            math.exp(-1.0), abs=1e-14)

    def test_zero_threshold_is_certain(self):
        assert marcum_q(1, 3.7, 0.0) == 1.0
        assert marcum_q(4, 0.0, 0.0) == 1.0

    def test_pinned_value_two_oracles(self):
        # independent oracles agree to ~1e-13: the series below and the
        # quadrature/noncentral tail here pin 0.817415 (6 digits)
        value = marcum_q(1, 2.0, math.sqrt(2.0))
        assert value == pytest.approx(0.8174152250696, abs=1e-10)
        ncx2_tail = stats.ncx2.sf(2.0, df=2, nc=4.0)
        assert value == pytest.approx(ncx2_tail, abs=1e-10)
        quad_tail, _ = integrate.quad(
            lambda t: stats.ncx2.pdf(t, df=2, nc=4.0), 2.0, np.inf)
        assert value == pytest.approx(quad_tail, abs=1e-9)

    def test_matches_noncentral_tail_on_grid(self):
        for m in (1, 2, 3, 5):
            for a in (0.3, 1.0, 2.5, 6.0):
                for b in (0.2, 1.0, 3.0, 7.0):
                    expected = stats.ncx2.sf(b * b, df=2 * m, nc=a * a)
                    assert marcum_q(m, a, b) == pytest.approx(
                        expected, abs=1e-10), (m, a, b)

    def test_consistency_with_gamma_tail_at_zero_snr(self):
        for m in range(1, 11):
            for b in (0.1, 0.7, 1.9, 4.0, 9.0):
                assert marcum_q(m, 0.0, b) == pytest.approx(
                    regularized_upper_gamma_int(m, b * b / 2.0), abs=1e-10)

    def test_monotonicities(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 8))
            a = float(rng.uniform(0.0, 6.0))
            b = float(rng.uniform(0.0, 8.0))
            value = marcum_q(m, a, b)
            assert 0.0 <= value <= 1.0
            # the term recursion it replaced; each truncates within 1e-12
            assert value == pytest.approx(reference_marcum_q(m, a, b),
                                          rel=2e-12), (m, a, b)
            assert marcum_q(m, a, b + 0.5) <= value + 1e-12
            assert marcum_q(m, a + 0.5, b) >= value - 1e-12

    def test_huge_noncentrality_uses_log_path(self):
        value = marcum_q(1, 60.0, 1.0)  # s = 1800, exp(-s) underflows
        assert value == pytest.approx(1.0, abs=5e-12)  # tail-bound accuracy
        mid = marcum_q(1, 60.0, 61.0)
        assert mid == pytest.approx(stats.ncx2.sf(61.0**2, df=2, nc=3600.0),
                                    abs=1e-9)
        # the 60-digit series value; the term recursion was 2.9e-12 off
        assert mid == pytest.approx(0.160663412902282, rel=1e-12)

    @pytest.mark.parametrize("m, a, b", [
        (5, 1.0, 30.0),      # Q ~ 1e-178: the spent Poisson mass rounds to 1
        (1, 35.0, 50.0),     # b^2/2 = 1250: exp(-b^2/2) underflows
        (50, 10.04, 41.76),  # Q ~ 1e-191
        (1, 60.0, 61.0),     # a^2/2 = 1800: exp(-a^2/2) underflows
    ])
    def test_deep_tail_matches_high_precision_series(self, m, a, b):
        mpmath = pytest.importorskip("mpmath")
        assert marcum_q(m, a, b) == pytest.approx(
            float(marcum_q_mpmath(mpmath, m, a, b)), rel=1e-12)

    def test_matches_high_precision_series_on_seeded_points(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(150)
        orders = rng.integers(1, 61, size=150).tolist()
        for m, a, b in zip(orders, rng.uniform(0.0, 40.0, 150).tolist(),
                           rng.uniform(0.0, 50.0, 150).tolist()):
            # below the normal range a float holds no relative precision
            assert marcum_q(m, a, b) == pytest.approx(
                float(marcum_q_mpmath(mpmath, m, a, b)), rel=1e-12,
                abs=sys.float_info.min), (m, a, b)

    def test_term_cap_raises(self):
        # a^2/2 = b^2/2 = 5e5: the capped window leaves ~1.4e-7 of the
        # Poisson mass unspent, and so did the term recursion
        with pytest.raises(MarcumConvergenceError, match="10000 terms"):
            marcum_q(1, 1000.0, 1000.0)
        with pytest.raises(MarcumConvergenceError):
            reference_marcum_q(1, 1000.0, 1000.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            marcum_q(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q(1, -1.0, 1.0)

    @pytest.mark.parametrize("a, b", [(math.nan, 2.0), (2.0, math.nan),
                                      (math.inf, 2.0), (2.0, math.inf)])
    def test_non_finite_argument_refused(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            marcum_q(3, a, b)


def _box_lp(objective, ub_matrix, ub_rhs):
    """The arrays of ``max objective @ x`` over ``ub_matrix @ x <= ub_rhs``
    in the unit box, in the argument order of ``solve_lp``."""
    n = len(objective)
    eq_m, eq_r = empty_constraints(n)
    return (np.asarray(objective, dtype=float), eq_m, eq_r,
            np.asarray(ub_matrix, dtype=float), np.asarray(ub_rhs, dtype=float),
            np.tile([0.0, 1.0], (n, 1)))


def _enumerate_vertices(lp) -> np.ndarray:
    """Brute-force oracle: intersect every n-subset of active constraints."""
    objective, _, _, ub_matrix, ub_rhs, bounds = lp
    n = len(objective)
    rows = [row for row in ub_matrix]
    rhs = list(ub_rhs)
    for i in range(n):
        unit = np.zeros(n)
        unit[i] = 1.0
        rows.extend([unit, -unit])
        rhs.extend([bounds[i, 1], -bounds[i, 0]])
    rows = np.array(rows)
    rhs = np.array(rhs)
    best = -np.inf
    for subset in itertools.combinations(range(len(rows)), n):
        a = rows[list(subset)]
        b = rhs[list(subset)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if np.all(rows @ x <= rhs + 1e-9):
            best = max(best, float(objective @ x))
    return best


def _infeasible_lp():
    """x1 + x2 == 5 in the unit square."""
    return (np.ones(2), np.ones((1, 2)), np.array([5.0]), np.zeros((0, 2)),
            np.zeros(0), np.tile([0.0, 1.0], (2, 1)))


class TestSolveLp:
    def test_single_variable(self):
        x = solve_lp(*_box_lp([1.0], [[1.0]], [1.0]))
        assert x[0] == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_optimum_has_unique_value(self):
        x = solve_lp(*_box_lp([1.0, 1.0], [[1.0, 1.0]], [1.0]))
        assert x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_known_construction_ten_variables(self):
        # box [0,1]^10 with a single budget row: optimum is the budget
        x = solve_lp(*_box_lp(np.ones(10), [np.ones(10)], [3.5]))
        assert x.sum() == pytest.approx(3.5, abs=1e-8)

    def test_random_instances_match_vertex_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, k = 4, 6
            a = rng.normal(size=(k, n))
            b = rng.uniform(0.5, 2.0, size=k)  # origin stays feasible
            c = rng.normal(size=n)
            lp = _box_lp(c, a, b)
            x = solve_lp(*lp)
            assert c @ x == pytest.approx(_enumerate_vertices(lp), abs=1e-7)

    def test_infeasible_reported_not_raised(self):
        assert solve_lp(*_infeasible_lp()) is None

    def test_residuals_and_dominance_over_random_feasible_points(self):
        rng = np.random.default_rng(17)
        n, k = 6, 4
        a = rng.normal(size=(k, n))
        b = rng.uniform(0.5, 2.0, size=k)
        c = rng.normal(size=n)
        x = solve_lp(*_box_lp(c, a, b))
        assert np.max(a @ x - b) <= 1e-8
        assert -1e-8 <= x.min() and x.max() <= 1.0 + 1e-8
        # rejection-sample feasible points; none may beat the optimum
        points = rng.uniform(0.0, 1.0, size=(5000, n))
        feasible = points[np.all(points @ a.T <= b + 1e-12, axis=1)]
        assert feasible.shape[0] > 100
        assert float((feasible @ c).max()) <= c @ x + 1e-6


def _suite_lps() -> list[tuple]:
    """The programs of TestSolveLp, feasible and infeasible."""
    lps = [_box_lp([1.0], [[1.0]], [1.0]),
           _box_lp([1.0, 1.0], [[1.0, 1.0]], [1.0]),
           _box_lp(np.ones(10), [np.ones(10)], [3.5])]
    for seed, count, (n, k) in ((3, 20, (4, 6)), (17, 1, (6, 4))):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            a = rng.normal(size=(k, n))
            b = rng.uniform(0.5, 2.0, size=k)
            lps.append(_box_lp(rng.normal(size=n), a, b))
    lps.append(_infeasible_lp())
    return lps


def linprog_reference(lp, method="highs", presolve=True):
    """What linprog returns for ``lp`` by ``method`` under the ladder's
    tolerances and ``presolve``, with the bounds as (lo, hi) pairs and empty
    blocks as None."""
    objective, eq_matrix, eq_rhs, ub_matrix, ub_rhs, bounds = lp
    return linprog(
        c=-objective,
        A_ub=ub_matrix if ub_matrix.shape[0] else None,
        b_ub=ub_rhs if ub_rhs.shape[0] else None,
        A_eq=eq_matrix if eq_matrix.shape[0] else None,
        b_eq=eq_rhs if eq_rhs.shape[0] else None,
        bounds=[tuple(pair) for pair in bounds.tolist()], method=method,
        options=dict(numerics._LP_OPTIONS, presolve=presolve))


def assert_rungs_match_linprog(lp):
    """Each rung of the ladder returns linprog's point for ``lp`` bit for
    bit, or reports infeasible where linprog does."""
    for method, presolve in numerics._RUNGS:
        reference = linprog_reference(lp, method, presolve)
        status, x = numerics._solve_rung(numerics._columnwise(*lp), method,
                                         presolve)
        assert reference.status == (2 if status == "Infeasible" else 0)
        assert (x is None) == (reference.x is None)
        if x is not None:
            assert np.array_equal(x, reference.x)


class TestDirectHighs:
    """Each rung of the ladder is a ``linprog`` call without the wrapper."""

    def test_first_rung_is_bit_identical_to_linprog(self):
        for lp in _suite_lps():
            reference = linprog_reference(lp)
            x = solve_lp(*lp)
            assert reference.status == (2 if x is None else 0)
            if x is not None:
                assert np.array_equal(x, reference.x)

    def test_every_rung_is_bit_identical_to_linprog(self):
        for lp in _suite_lps():
            assert_rungs_match_linprog(lp)

    @pytest.mark.parametrize("method, presolve", numerics._RUNGS)
    def test_thread_solver_keeps_nothing_between_solves(self, method, presolve):
        # a thread solves every program on one solver: in either order, and
        # after an infeasible one, each gets the same status and point
        lps = [numerics._columnwise(*lp) for lp in _suite_lps()]
        forward = [numerics._solve_rung(lp, method, presolve) for lp in lps]
        backward = [numerics._solve_rung(lp, method, presolve)
                    for lp in reversed(lps)][::-1]
        assert forward[-1][0] == "Infeasible"
        for (status, x), (again, y) in zip(forward, backward, strict=True):
            assert status == again
            assert (x is None and y is None) or np.array_equal(x, y)

    def test_non_finite_point_fails_the_audit(self, monkeypatch):
        nan_point = lambda result: (result[0], np.full_like(result[1], math.nan))
        calls = _ladder(monkeypatch, [nan_point] * 3)
        with pytest.raises(RuntimeError, match="residual nan"):
            solve_lp(*TestLadder.LP)
        assert len(calls) == 3

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("position", range(5))
    def test_non_finite_data_raises_as_linprog_does(self, monkeypatch,
                                                    position, value):
        calls = _ladder(monkeypatch, [])
        lp = [np.array(a) for a in _box_lp([1.0, 2.0], [[1.0, 1.0]], [1.0])]
        lp[1], lp[2] = np.ones((1, 2)), np.array([1.0])  # a non-empty eq block
        lp[position].flat[0] = value
        with pytest.raises(ValueError, match="must not contain values inf"):
            linprog_reference(tuple(lp))
        with pytest.raises(ValueError, match="finite"):
            solve_lp(*lp)
        assert calls == []

    @pytest.mark.parametrize("position, array", [
        (0, np.ones(3)), (1, np.ones((1, 3))), (2, np.ones(2)),
        (3, np.ones((1, 3))), (4, np.ones(2)), (5, np.tile([0.0, 1.0], (3, 1)))])
    def test_misshapen_arrays_raise_as_linprog_does(self, monkeypatch,
                                                    position, array):
        calls = _ladder(monkeypatch, [])
        lp = list(_box_lp([1.0, 2.0], [[1.0, 1.0]], [1.0]))
        lp[1], lp[2] = np.ones((1, 2)), np.array([1.0])  # a non-empty eq block
        lp[position] = array
        with pytest.raises(ValueError, match="Invalid input for linprog"):
            linprog_reference(tuple(lp))
        with pytest.raises(ValueError, match="do not fit together"):
            solve_lp(*lp)
        assert calls == []

    @pytest.mark.parametrize("method, presolve", numerics._RUNGS)
    def test_rung_passes_linprogs_options_built_once(self, monkeypatch, method,
                                                     presolve):
        # the options are built on a rung's first solve and shared after it;
        # every field equals that of the options a solve once built for itself.
        # A fresh thread makes its own solver, once, and solves on it after
        from scipy.optimize._highspy import _core

        made, passed = [], []

        class Recording(_core._Highs):
            def __init__(self):
                made.append(self)
                super().__init__()

            def passOptions(self, options):
                passed.append(options)
                return super().passOptions(options)

        monkeypatch.setattr(_core, "_Highs", Recording)
        with ThreadPoolExecutor(1) as pool:
            for _ in range(2):
                pool.submit(numerics._solve_rung,
                            numerics._columnwise(*TestLadder.LP), method,
                            presolve).result()
        assert len(made) == 1
        assert len(passed) == 2 and passed[0] is passed[1]
        fresh = _core.HighsOptions()
        for name, setting in numerics._LP_OPTIONS.items():
            setattr(fresh, name, setting)
        fresh.presolve = "on" if presolve else "off"
        if method == "highs-ipm":
            fresh.solver = "ipm"
        fresh.simplex_strategy = (
            _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
        fresh.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
        fresh.output_flag = fresh.log_to_console = False
        fields = [name for name in dir(fresh) if not name.startswith("_")]
        assert len(fields) > 80
        for name in fields:
            assert getattr(passed[0], name) == getattr(fresh, name), name

    def test_nan_bound_raises(self, monkeypatch):
        calls = _ladder(monkeypatch, [])
        lp = _box_lp([1.0, 2.0], [[1.0, 1.0]], [1.0])
        lp[5][0, 1] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            solve_lp(*lp)
        assert calls == []


class TestColumnwiseChecks:
    """``solve_lp`` hands HiGHS the dense program in compressed columns: the
    inequality rows above the equality rows, each column's nonzeros with
    the rows ascending."""

    #: 3 x2 <= 1.5 above x1 + 2 x2 == 1, maximizing x1 + 3 x2 in the unit box
    LP = (np.array([1.0, 3.0]), np.array([[1.0, 2.0]]), np.ones(1),
          np.array([[0.0, 3.0]]), np.array([1.5]), np.tile([0.0, 1.0], (2, 1)))

    def test_well_formed_program_solves(self):
        objective, start, index, value, rhs, ub_rows, bounds = (
            numerics._columnwise(*self.LP))
        assert objective is self.LP[0] and bounds is self.LP[5]
        assert start.tolist() == [0, 1, 3] and index.tolist() == [1, 0, 1]
        assert value.tolist() == [1.0, 3.0, 2.0]
        assert rhs.tolist() == [1.5, 1.0] and ub_rows == 1
        assert solve_lp(*self.LP) == pytest.approx([0.0, 0.5], abs=1e-8)


def test_import_evaluate_and_run_load_no_scipy_optimize():
    """The HiGHS core is imported by the first LP solve, so the package, an
    evaluation and a simulation leave ``scipy.optimize`` unloaded."""
    code = (
        "import sys\n"
        "from ehcr import Policy, SimConfig, evaluate, params_from_dict, run\n"
        "from ehcr.presets import load_preset\n"
        "params = params_from_dict(load_preset('testbench'))\n"
        "policy = Policy.constant(params, 5e-4, 30.0, 0.5, 0.3, 0.5)\n"
        "evaluate(params, policy)\n"
        "run(params, policy, SimConfig(slots=1_000, seed=1))\n"
        "print('scipy.optimize' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def _ladder(monkeypatch, outcomes):
    """Patch the rung solve of ``solve_lp`` so that the ``(status, x)`` of
    its i-th call passes through ``outcomes[i]``; returns the (method,
    presolve) of each call."""
    calls = []
    solve_rung = numerics._solve_rung

    def patched(lp, method, presolve):
        calls.append((method, presolve))
        return outcomes[len(calls) - 1](solve_rung(lp, method, presolve))

    monkeypatch.setattr(numerics, "_solve_rung", patched)
    return calls


def _solved(result):
    return result


def _numerical_difficulties(result):
    return "numerical difficulties", None


def _model_error(result):
    return "Model error", None


def _off_the_box(result):
    status, x = result
    return status, x + 0.5


class TestLadder:
    """A rung that fails or returns a point outside the constraints passes
    the program to the next; the last one's failure raises."""

    LP = _box_lp([1.0, 2.0], [[1.0, 1.0]], [1.0])
    RUNGS = [("highs", True), ("highs-ipm", True), ("highs", False)]

    def test_second_rung_solves_after_a_solver_failure(self, monkeypatch):
        calls = _ladder(monkeypatch, [_numerical_difficulties, _solved])
        x = solve_lp(*self.LP)
        assert calls == self.RUNGS[:2]
        assert x == pytest.approx([0.0, 1.0], abs=1e-8)

    def test_third_rung_solves_after_two_audit_failures(self, monkeypatch):
        calls = _ladder(monkeypatch, [_off_the_box, _off_the_box, _solved])
        x = solve_lp(*self.LP)
        assert calls == self.RUNGS
        assert x == pytest.approx([0.0, 1.0], abs=1e-8)

    def test_every_rung_failing_raises(self, monkeypatch):
        calls = _ladder(monkeypatch, [_off_the_box, _numerical_difficulties,
                                      _off_the_box])
        with pytest.raises(RuntimeError, match="feasibility audit") as err:
            solve_lp(*self.LP)
        assert calls == self.RUNGS
        assert "highs-ipm: numerical difficulties" in str(err.value)
        assert str(err.value).count("residual 1.000e+00") == 2  # x1 + x2 = 2

    def test_infeasible_first_rung_ends_the_ladder(self, monkeypatch):
        calls = _ladder(monkeypatch, [_solved])
        assert solve_lp(*_infeasible_lp()) is None
        assert calls == self.RUNGS[:1]

    def test_model_error_is_infeasible_as_in_linprog(self, monkeypatch):
        calls = _ladder(monkeypatch, [_model_error])
        assert solve_lp(*self.LP) is None
        assert calls == self.RUNGS[:1]
