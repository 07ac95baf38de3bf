"""Special functions and the linear-program solve of the policy optimizer.

Everything here is a pure function of its inputs and safe to call from any
number of threads: integer-order gamma tail probabilities (checked wrappers
over ``scipy.special.gammaincc``/``gammainc`` that take one argument or a 1-D
array of them), the generalized Marcum Q function (one array sum of scipy's
gamma tails against Poisson weights), and ``solve_lp``, which maximizes a
small dense program given as plain arrays with a ladder of scipy HiGHS
``linprog`` calls behind a feasibility audit.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.special import gammainc, gammaincc, gammaln

MARCUM_MAX_TERMS = 10_000
#: truncation tolerance of the Marcum series, leaving room for rounding
MARCUM_TAIL_RTOL = 1e-13

#: maximum constraint violation an "optimal" solution may carry
LP_FEASIBILITY_TOL = 1e-8

#: HiGHS tolerances of every rung
_LP_OPTIONS = {
    "primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
    "dual_feasibility_tolerance": 1e-9,
}
#: the solve ladder: (linprog method, options beyond the tolerances) per rung
_RUNGS = (("highs", {}), ("highs-ipm", {}), ("highs", {"presolve": False}))


class MarcumConvergenceError(ArithmeticError):
    """Marcum-Q series failed its tail bound within the term cap."""


def _check_order(m: int) -> int:
    if int(m) != m or m < 1:
        raise ValueError(f"order must be a positive integer, got {m!r}")
    return int(m)


def _gamma_tail(ratio, m: int, x):
    """``ratio(m, x)`` after the order and argument checks of the tails; a
    scalar argument gives a float, a 1-D array one value per entry."""
    m = _check_order(m)
    values = np.asarray(x, dtype=float)
    if not all(0.0 <= v < math.inf for v in values.ravel().tolist()):  # NaN fails too
        raise ValueError(f"x must be finite and nonnegative, got {x}")
    tail = ratio(m, values)
    return tail if values.ndim else float(tail)


def regularized_upper_gamma_int(m: int, x):
    """Regularized upper incomplete gamma ratio U(m, x) for integer m >= 1.

    For integer m this is the Erlang tail ``exp(-x) * sum_{k<m} x^k / k!``,
    the complementary CDF of a sum of m unit-rate exponentials: in [0, 1],
    nonincreasing in x and nondecreasing in m.  Evaluated by
    ``scipy.special.gammaincc``; ``x`` is a scalar (float result) or a 1-D
    array (one value per entry).
    """
    return _gamma_tail(gammaincc, m, x)


def regularized_lower_gamma_int(m: int, x):
    """Regularized lower incomplete gamma ratio L(m, x) = 1 - U(m, x) for
    integer m >= 1, by ``scipy.special.gammainc``, which keeps small values
    to full relative precision (no cancellation against 1)."""
    return _gamma_tail(gammainc, m, x)


def marcum_q(m: int, a: float, b: float) -> float:
    """Generalized Marcum Q function Q_m(a, b) for integer m >= 1.

    Evaluated by the canonical series: expanding the modified Bessel function
    term by term turns the noncentral tail into a Poisson(a^2/2) mixture of
    integer-order gamma tails, summed as one array over a window of terms.
    The window starts 9 standard deviations below the Poisson mode, skipping
    ~1e-19 of the mass, and doubles until the unspent mass beyond it (which
    bounds the truncation error, every tail being at most 1) is within
    ``MARCUM_TAIL_RTOL`` of the sum; a window of ``MARCUM_MAX_TERMS`` that
    falls short raises :class:`MarcumConvergenceError`.
    """
    m = _check_order(m)
    if not (0 <= a < math.inf and 0 <= b < math.inf):  # NaN fails too
        raise ValueError(
            f"arguments must be finite and nonnegative, got a={a}, b={b}")
    if b == 0.0:
        return 1.0
    x = 0.5 * b * b
    if a == 0.0:
        return regularized_upper_gamma_int(m, x)
    s = 0.5 * a * a
    start = max(0, int(s - 9.0 * math.sqrt(s)))
    width = 64
    while True:
        n = np.arange(start, start + width)
        weights = np.exp(n * math.log(s) - gammaln(n + 1) - s)
        total = float(np.sum(weights * gammaincc(m + n, x)))
        unspent = float(gammainc(start + width, s))
        if unspent <= MARCUM_TAIL_RTOL * total:
            return min(total, 1.0)
        if width == MARCUM_MAX_TERMS:
            raise MarcumConvergenceError(
                f"Marcum Q_{m}({a}, {b}) did not converge in "
                f"{MARCUM_MAX_TERMS} terms; unspent Poisson mass {unspent:.3e}")
        width = min(2 * width, MARCUM_MAX_TERMS)


# ---------------------------------------------------------------------------
# linear programming
# ---------------------------------------------------------------------------

def solve_lp(objective: np.ndarray, eq_matrix: np.ndarray, eq_rhs: np.ndarray,
             ub_matrix: np.ndarray, ub_rhs: np.ndarray,
             bounds: np.ndarray) -> np.ndarray | None:
    """A point maximizing ``objective @ x`` subject to ``eq_matrix @ x ==
    eq_rhs``, ``ub_matrix @ x <= ub_rhs`` and the (n, 2) array of ``bounds``
    (lower, upper) on each variable; None when no point is feasible.

    Ill-conditioned instances can trip the simplex at tight tolerances or
    come back from postsolve with out-of-tolerance residuals, so the solve
    walks a ladder of ``linprog`` calls (simplex, interior point, simplex
    without presolve) and returns the first solution whose largest
    constraint violation is within ``LP_FEASIBILITY_TOL``.  Raises
    ``RuntimeError`` when no rung passes this audit.
    """
    lower, upper = bounds.T
    failures = []
    for method, options in _RUNGS:
        result = linprog(-objective, A_ub=ub_matrix, b_ub=ub_rhs, A_eq=eq_matrix,
                         b_eq=eq_rhs, bounds=bounds, method=method,
                         options=dict(_LP_OPTIONS, **options))
        if result.status == 2:
            return None
        if result.status != 0:
            failures.append(f"{method}: {result.message}")
            continue
        x = result.x
        violation = np.concatenate([np.abs(eq_matrix @ x - eq_rhs),
                                    ub_matrix @ x - ub_rhs, lower - x,
                                    x - upper]).max(initial=0.0)
        if violation <= LP_FEASIBILITY_TOL:  # NaN fails too
            return x
        failures.append(f"{method}: residual {violation:.3e}")
    raise RuntimeError("no LP solve passed the feasibility audit ("
                       + "; ".join(failures) + ")")
