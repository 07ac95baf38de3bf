"""Special functions and a small dense linear-program front end.

Everything here except :class:`WarmStart` is a pure function of its inputs
and safe to call from any number of threads: integer-order gamma tail
probabilities, the generalized Marcum Q function, and a maximization wrapper
around scipy's HiGHS solver for the small dense programs built by the policy
optimizer.  A :class:`WarmStart` owns one solver instance and belongs to one
caller.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

try:  # scipy's bundled HiGHS core; private, so every name used is checked
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # scipy builds before the pybind11 HiGHS bindings
    _highs_core = None

MARCUM_MAX_TERMS = 10_000
MARCUM_TAIL_RTOL = 1e-12

# exp(-x) underflows below this; switch to log-space accumulation
_EXP_UNDERFLOW = 700.0

# an exponential whose logarithm is below this is taken as zero; nearer the
# subnormal range it would lose precision
_LOG_TINY = -700.0

#: maximum constraint violation an "optimal" solution may carry
LP_FEASIBILITY_TOL = 1e-8

#: HiGHS tolerances of every rung; the warm start and the direct first rung
#: pass the same two
_LP_OPTIONS = {
    "primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
    "dual_feasibility_tolerance": 1e-9,
}


class MarcumConvergenceError(ArithmeticError):
    """Marcum-Q series failed its tail bound within the term cap."""


def _check_order(m: int) -> int:
    if int(m) != m or m < 1:
        raise ValueError(f"order must be a positive integer, got {m!r}")
    return int(m)


def regularized_upper_gamma_int(m: int, x: float) -> float:
    """Regularized upper incomplete gamma ratio for integer order m >= 1.

    For integer m the ratio collapses to the Erlang tail
    ``exp(-x) * sum_{k<m} x^k / k!``, which is evaluated term by term.  This
    equals the complementary CDF of a sum of m unit-rate exponentials, hence
    the value is in [0, 1], nonincreasing in x and nondecreasing in m.
    """
    m = _check_order(m)
    if not 0 <= x < math.inf:  # NaN fails every comparison
        raise ValueError(f"x must be finite and nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x <= _EXP_UNDERFLOW:
        term = math.exp(-x)
        total = term
        for k in range(1, m):
            term *= x / k
            total += term
        return min(total, 1.0)
    # x too large for exp(-x); accumulate in log space around the peak term
    logs = [k * math.log(x) - math.lgamma(k + 1) - x for k in range(m)]
    peak = max(logs)
    if peak < -745.0:
        return 0.0
    return min(math.exp(peak) * sum(math.exp(v - peak) for v in logs), 1.0)


def regularized_lower_gamma_int(m: int, x: float) -> float:
    """Regularized lower incomplete gamma ratio for integer order m >= 1.

    Summed as the ascending tail ``exp(-x) * sum_{k>=m} x^k / k!`` so that
    small values are produced without cancellation against 1.
    """
    m = _check_order(m)
    if not 0 <= x < math.inf:  # NaN fails every comparison
        raise ValueError(f"x must be finite and nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x > _EXP_UNDERFLOW:
        # upper tail is negligible here for the orders in scope
        return 1.0 - regularized_upper_gamma_int(m, x)
    log_term = m * math.log(x) - math.lgamma(m + 1) - x
    if log_term < -745.0:
        return 0.0
    term = math.exp(log_term)
    total = term
    k = m
    while True:
        k += 1
        term *= x / k
        total += term
        if term <= 1e-17 * total and k > x:
            return min(total, 1.0)


def marcum_q(m: int, a: float, b: float) -> float:
    """Generalized Marcum Q function Q_m(a, b) for integer m >= 1.

    Evaluated by the canonical series: expanding the modified Bessel function
    term by term turns the noncentral tail into a Poisson(a^2/2) mixture of
    integer-order gamma tails.  Every term is positive, so the partial sums
    are monotone and the unspent Poisson mass bounds the truncation error;
    iteration stops once that bound drops below ``MARCUM_TAIL_RTOL`` of the
    accumulated value.
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

    if s <= _EXP_UNDERFLOW:
        n_start = 0
        weight = math.exp(-s)
        below_mass = 0.0
    else:
        # start 9 sigma into the Poisson left tail: the skipped mass is
        # ~1e-19 while the log-weight there is still representable
        n_start = max(0, int(s - 9.0 * math.sqrt(s)))
        weight = math.exp(n_start * math.log(s) - math.lgamma(n_start + 1) - s)
        below_mass = 0.0

    gamma_tail = regularized_upper_gamma_int(m + n_start, x)
    # increment taking U(m+n, x) to U(m+n+1, x), i.e. the Poisson(x) mass at
    # m+n; it underflows once x exceeds ~745 and is then recomputed from its
    # logarithm each term until it is representable again
    log_inc = (m + n_start - 1) * math.log(x) - math.lgamma(m + n_start) - x
    increment = math.exp(log_inc) if log_inc > _LOG_TINY else 0.0

    total = 0.0
    weight_sum = below_mass
    for n in range(n_start, n_start + MARCUM_MAX_TERMS):
        total += weight * gamma_tail
        weight_sum += weight
        # remaining Poisson mass: the complement of the spent mass before the
        # mode, the geometric decay bound past it (there the complement
        # bottoms out at float resolution and cannot witness tiny totals)
        ratio = s / (n + 1)
        if ratio < 1.0:
            tail_bound = weight * ratio / (1.0 - ratio)
        else:
            tail_bound = 1.0 - weight_sum
        if tail_bound <= MARCUM_TAIL_RTOL * max(total, 1e-300):
            return min(total, 1.0)
        weight *= ratio
        if increment > 0.0:
            increment *= x / (m + n)
        else:
            log_inc = (m + n) * math.log(x) - math.lgamma(m + n + 1) - x
            increment = math.exp(log_inc) if log_inc > _LOG_TINY else 0.0
        gamma_tail = min(gamma_tail + increment, 1.0)
    raise MarcumConvergenceError(
        f"Marcum Q_{m}({a}, {b}) did not converge in {MARCUM_MAX_TERMS} terms; "
        f"remaining mass bound {1.0 - weight_sum:.3e}"
    )


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
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ub_matrix: np.ndarray
    ub_rhs: np.ndarray
    bounds: tuple[tuple[float | None, float | None], ...]

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

    @property
    def n_variables(self) -> int:
        return self.objective.shape[0]

    @cached_property
    def bound_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds as arrays, None read as -inf and +inf."""
        bounds = np.array([(-math.inf if lo is None else lo,
                            math.inf if hi is None else hi)
                           for lo, hi in self.bounds], dtype=float)
        bounds = bounds.reshape(self.n_variables, 2)
        return bounds[:, 0], bounds[:, 1]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective_value: float | None
    warm: bool = False  # found from a carried basis (see WarmStart)


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
        lower, upper = lp.bound_arrays
        worst = max(worst, float(np.max(lower - x)), float(np.max(x - upper)))
    return worst


def _load_highs():
    """The HiGHS core module if it offers every name used here, else None."""
    if _highs_core is None:
        return None
    needed = ("_Highs", "HighsLp", "HighsOptions", "HighsStatus",
              "HighsModelStatus", "MatrixFormat", "simplex_constants")
    methods = ("passOptions", "passModel", "setBasis", "getBasis", "run",
               "getModelStatus", "getSolution")
    if not all(hasattr(_highs_core, name) for name in needed):
        return None
    if not all(hasattr(_highs_core._Highs, name) for name in methods):
        return None
    return _highs_core


#: HiGHS core for the direct calls; None selects the ``linprog`` ladder alone
_HIGHS = _load_highs()


def warm_start_available() -> bool:
    """Whether :class:`WarmStart` can run (scipy ships a usable HiGHS core)."""
    return _HIGHS is not None


def _new_highs():
    """A solver with the options ``linprog(method="highs")`` passes."""
    highs = _HIGHS._Highs()
    options = _HIGHS.HighsOptions()
    options.presolve = "on"
    strategies = _HIGHS.simplex_constants.SimplexStrategy
    options.simplex_strategy = strategies.kSimplexStrategyDual
    options.primal_feasibility_tolerance = _LP_OPTIONS["primal_feasibility_tolerance"]
    options.dual_feasibility_tolerance = _LP_OPTIONS["dual_feasibility_tolerance"]
    options.highs_debug_level = 0
    options.output_flag = False
    options.log_to_console = False
    highs.passOptions(options)
    return highs


def _highs_model(lp: LinearProgram):
    """The minimization model ``linprog`` hands HiGHS for ``lp``.

    Inequality rows sit above equality rows, the matrix is column-wise with
    explicit zeros dropped and row indices ascending (what ``csc_array``
    makes of the dense stack), and inequality rows get -inf lower bounds.
    """
    matrix = np.vstack([lp.ub_matrix, lp.eq_matrix])
    n_rows, n_cols = matrix.shape
    cols, rows = np.nonzero(matrix.T)
    start = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=start[1:])
    model = _HIGHS.HighsLp()
    model.num_col_ = n_cols
    model.num_row_ = n_rows
    model.col_cost_ = -lp.objective
    model.col_lower_, model.col_upper_ = lp.bound_arrays
    model.row_lower_ = np.concatenate([np.full(lp.ub_rhs.size, -math.inf), lp.eq_rhs])
    model.row_upper_ = np.concatenate([lp.ub_rhs, lp.eq_rhs])
    model.a_matrix_.format_ = _HIGHS.MatrixFormat.kColwise
    model.a_matrix_.num_col_ = n_cols
    model.a_matrix_.num_row_ = n_rows
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = rows.astype(np.int32)
    model.a_matrix_.value_ = matrix[rows, cols]
    return model


def _highs_cold(lp: LinearProgram) -> tuple[int, np.ndarray | None, str]:
    """Rung 1 without ``linprog``'s wrapper: same model, same status codes.

    Returns ``linprog``'s status (0 optimal, 2 infeasible, 3 unbounded,
    4 anything else), the solution when optimal and a message.
    """
    highs = _new_highs()
    status_codes = _HIGHS.HighsModelStatus
    if highs.passModel(_highs_model(lp)) == _HIGHS.HighsStatus.kError:
        # linprog reports a model HiGHS rejects (kModelError) as infeasible
        return 2, None, "HiGHS rejected the model"
    run_status = highs.run()
    model_status = highs.getModelStatus()
    message = f"HiGHS model status {model_status.name}"
    if run_status == _HIGHS.HighsStatus.kError:
        return 4, None, message
    if model_status == status_codes.kOptimal:
        return 0, np.array(highs.getSolution().col_value), message
    if model_status in (status_codes.kInfeasible, status_codes.kModelError):
        return 2, None, message
    if model_status == status_codes.kUnbounded:
        return 3, None, message
    return 4, None, message


def _linprog_rung(lp: LinearProgram, method: str,
                  options: dict) -> tuple[int, np.ndarray | None, str]:
    result = linprog(
        c=-lp.objective,
        A_ub=lp.ub_matrix if lp.ub_matrix.shape[0] else None,
        b_ub=lp.ub_rhs if lp.ub_rhs.shape[0] else None,
        A_eq=lp.eq_matrix if lp.eq_matrix.shape[0] else None,
        b_eq=lp.eq_rhs if lp.eq_rhs.shape[0] else None,
        bounds=list(lp.bounds),
        method=method,
        options=options,
    )
    x = None if result.x is None else np.asarray(result.x, dtype=float)
    return result.status, x, result.message


def _rungs(lp: LinearProgram):
    """The solve ladder, lazily: (name, (status, x, message)) per rung."""
    if _HIGHS is not None:
        yield "highs", _highs_cold(lp)
    else:
        yield "highs", _linprog_rung(lp, "highs", dict(_LP_OPTIONS))
    yield "highs-ipm", _linprog_rung(lp, "highs-ipm", dict(_LP_OPTIONS))
    yield "highs", _linprog_rung(lp, "highs", dict(_LP_OPTIONS, presolve=False))


class WarmStart:
    """Dual simplex carried from one LP to the next of the same shape.

    Each :meth:`solve` starts from the optimal basis of the previous
    successful one, which pays when consecutive programs differ in a few
    coefficients only (one sensing-time column of the optimizer grid).  The
    result may differ from a cold solve in the last bits, so callers that
    need reproducible answers re-solve the points that matter cold.
    """

    def __init__(self):
        self._highs = _new_highs()
        self._basis = None

    def solve(self, lp: LinearProgram) -> LpSolution | None:
        """Audited optimum from the carried basis, or None.

        None means the solve ended other than optimal or its solution failed
        the feasibility audit; the basis is dropped and the caller falls back
        to the cold ladder.
        """
        highs, error = self._highs, _HIGHS.HighsStatus.kError
        x = None
        if highs.passModel(_highs_model(lp)) != error:
            if self._basis is not None:
                highs.setBasis(self._basis)
            if (highs.run() != error and highs.getModelStatus()
                    == _HIGHS.HighsModelStatus.kOptimal):
                x = np.array(highs.getSolution().col_value)
        if x is None or feasibility_violation(lp, x) > LP_FEASIBILITY_TOL:
            self._basis = None
            return None
        self._basis = highs.getBasis()
        return LpSolution("optimal", x, float(lp.objective @ x), warm=True)


def solve_lp(lp: LinearProgram, warm: WarmStart | None = None) -> LpSolution:
    """Maximize the LP, reporting infeasible/unbounded via status, not raise.

    Ill-conditioned instances can trip the simplex at tight tolerances or
    come back from postsolve with out-of-tolerance residuals, so the solve
    walks a ladder (simplex, interior point, simplex without presolve) and
    accepts the first solution that passes the feasibility audit.  The first
    rung calls scipy's HiGHS core directly with the model and options that
    ``linprog(method="highs")`` would pass, so it returns the same bits at a
    fraction of the wrapper cost; without a usable core it is ``linprog``.

    With ``warm`` the solve first tries :meth:`WarmStart.solve` and returns
    its audited answer, marked ``warm=True``; those answers can differ from
    the ladder's in the last bits.  Only a failed warm solve reaches the
    ladder, so infeasible and unbounded programs keep the ladder's status.
    """
    if warm is not None:
        solution = warm.solve(lp)
        if solution is not None:
            return solution
    worst: tuple[float, str] | None = None
    for method, (status, x, message) in _rungs(lp):
        if status == 0:
            violation = feasibility_violation(lp, x)
            if violation <= LP_FEASIBILITY_TOL:
                return LpSolution("optimal", x, float(lp.objective @ x))
            if worst is None or violation < worst[0]:
                worst = (violation, method)
            continue
        if status == 2:
            return LpSolution("infeasible", None, None)
        if status == 3:
            return LpSolution("unbounded", None, None)
    if worst is not None:
        raise RuntimeError(
            f"every LP solve violated constraints; best residual "
            f"{worst[0]:.3e} from {worst[1]}"
        )
    raise RuntimeError(f"LP solver failure (status {status}): {message}")
