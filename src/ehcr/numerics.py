"""Special functions and a small dense linear-program front end.

Everything here is a pure function of its inputs and safe to call from any
number of threads: integer-order gamma tail probabilities (checked wrappers
over ``scipy.special.gammaincc``/``gammainc`` that take one argument or a 1-D
array of them), the generalized Marcum Q function (one array sum of scipy's
gamma tails against Poisson weights), and a maximization wrapper around
scipy's HiGHS solver (``linprog``) for the small dense programs built by the
policy optimizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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

@dataclass(frozen=True)
class LinearProgram:
    """Dense LP in maximization form.

    maximize objective . x  subject to
        eq_matrix  @ x == eq_rhs
        ub_matrix  @ x <= ub_rhs
        bounds[i][0] <= x_i <= bounds[i][1]   (None = unbounded on that side)

    ``bound_array`` holds the same bounds as an (n, 2) float array, with
    infinities for the open sides, built once for the solver and the audit.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ub_matrix: np.ndarray
    ub_rhs: np.ndarray
    bounds: tuple[tuple[float | None, float | None], ...]
    bound_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = c.shape[0]
        a_eq = np.asarray(self.eq_matrix, dtype=float).reshape(-1, n)
        b_eq = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float))
        a_ub = np.asarray(self.ub_matrix, dtype=float).reshape(-1, n)
        b_ub = np.atleast_1d(np.asarray(self.ub_rhs, dtype=float))
        if a_eq.shape[0] != b_eq.shape[0]:
            raise ValueError("eq_matrix rows and eq_rhs length differ")
        if a_ub.shape[0] != b_ub.shape[0]:
            raise ValueError("ub_matrix rows and ub_rhs length differ")
        if len(self.bounds) != n:
            raise ValueError("one (lo, hi) pair per variable required")
        for lo, hi in self.bounds:
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(f"bound lo={lo} exceeds hi={hi}")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a_eq)
        object.__setattr__(self, "eq_rhs", b_eq)
        object.__setattr__(self, "ub_matrix", a_ub)
        object.__setattr__(self, "ub_rhs", b_ub)
        object.__setattr__(self, "bounds", tuple(tuple(b) for b in self.bounds))
        object.__setattr__(self, "bound_array", np.array(
            [(-math.inf if lo is None else lo, math.inf if hi is None else hi)
             for lo, hi in self.bounds], dtype=float).reshape(n, 2))

    @property
    def n_variables(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective_value: float | None


def feasibility_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint violation of x: equalities, inequalities, bounds.

    A point with a non-finite entry violates by infinity.
    """
    if not np.all(np.isfinite(x)):
        return math.inf
    worst = 0.0
    if lp.eq_matrix.shape[0]:
        worst = float(np.max(np.abs(lp.eq_matrix @ x - lp.eq_rhs)))
    if lp.ub_matrix.shape[0]:
        worst = max(worst, float(np.max(lp.ub_matrix @ x - lp.ub_rhs)))
    if x.size:
        lower, upper = lp.bound_array.T
        worst = max(worst, float(np.max(lower - x)), float(np.max(x - upper)))
    return worst


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Maximize the LP, reporting infeasible/unbounded via status, not raise.

    Ill-conditioned instances can trip the simplex at tight tolerances or
    come back from postsolve with out-of-tolerance residuals, so the solve
    walks a ladder of ``linprog`` calls (simplex, interior point, simplex
    without presolve) and accepts the first solution that passes the
    feasibility audit.
    """
    kwargs = dict(
        c=-lp.objective,
        A_ub=lp.ub_matrix if lp.ub_matrix.shape[0] else None,
        b_ub=lp.ub_rhs if lp.ub_rhs.shape[0] else None,
        A_eq=lp.eq_matrix if lp.eq_matrix.shape[0] else None,
        b_eq=lp.eq_rhs if lp.eq_rhs.shape[0] else None,
        bounds=lp.bound_array,
    )
    worst: tuple[float, str] | None = None
    for method, options in _RUNGS:
        result = linprog(method=method, options=dict(_LP_OPTIONS, **options),
                         **kwargs)
        if result.status == 0:
            x = np.asarray(result.x, dtype=float)
            violation = feasibility_violation(lp, x)
            if violation <= LP_FEASIBILITY_TOL:
                return LpSolution("optimal", x, float(lp.objective @ x))
            if worst is None or violation < worst[0]:
                worst = (violation, method)
            continue
        if result.status == 2:
            return LpSolution("infeasible", None, None)
        if result.status == 3:
            return LpSolution("unbounded", None, None)
    if worst is not None:
        raise RuntimeError(
            f"every LP solve violated constraints; best residual "
            f"{worst[0]:.3e} from {worst[1]}"
        )
    raise RuntimeError(
        f"LP solver failure (status {result.status}): {result.message}")
