"""Special functions and the linear-program solve of the policy optimizer.

Everything here is a pure function of its inputs and safe to call from any
number of threads: integer-order gamma tail probabilities (checked wrappers
over ``scipy.special.gammaincc``/``gammainc`` that take one argument or a 1-D
array of them), the generalized Marcum Q function (one array sum of scipy's
gamma tails against Poisson weights), and ``solve_lp``, which maximizes a
small program, given in ``linprog``'s dense arrays, with a ladder of cold
HiGHS solves behind a feasibility audit.  Only this module sees the program
in compressed columns: the solves pass the HiGHS core bundled with scipy
(``scipy.optimize._highspy._core``) the arrays and options scipy's own
``method="highs"`` LP solve builds, so they return its points bit for bit
without its per-call Python, which holds the GIL.  The core is imported by
the first solve, so importing this module loads no scipy.optimize.
"""
from __future__ import annotations

import functools
import math

import numpy as np
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
#: the solve ladder: (scipy's name of the HiGHS method, presolve) per rung
_RUNGS = (("highs", True), ("highs-ipm", True), ("highs", False))


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

@functools.cache
def _rung_options(method: str, presolve: bool):
    """The HiGHS options scipy's LP solve by ``method`` builds under
    ``_LP_OPTIONS`` and ``presolve``: the dual simplex strategy, no debug
    level and no logging.  Built on a rung's first solve; a solver copies
    the options it is passed, so one object serves every thread."""
    from scipy.optimize._highspy import _core

    options = _core.HighsOptions()
    for name, setting in _LP_OPTIONS.items():
        setattr(options, name, setting)
    options.presolve = "on" if presolve else "off"
    if method == "highs-ipm":
        options.solver = "ipm"
    options.simplex_strategy = (
        _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    return options


@functools.cache
def _solvers():
    """Each thread's HiGHS solver, as ``highs``, made by its first solve."""
    import threading
    return threading.local()


def _solve_rung(lp: tuple, method: str, presolve: bool
                ) -> tuple[str, np.ndarray | None]:
    """HiGHS's model status for the :func:`_columnwise` program ``lp``,
    solved cold under the :func:`_rung_options` of ``method`` and
    ``presolve``, and the point when that status is optimal.

    The arrays go to HiGHS as they come, every column continuous: the model
    scipy's LP solve by ``method`` builds.  Each thread has one solver,
    cleared of the last model and solver state before each solve, so every
    solve is cold and any number of threads may call this at once."""
    from scipy.optimize._highspy import _core

    objective, start, index, value, rhs, ub_rows, bounds = lp
    solvers = _solvers()
    highs = solvers.highs = getattr(solvers, "highs", None) or _core._Highs()
    highs.clearModel()
    highs.passOptions(_rung_options(method, presolve))
    if highs.passModel(
            objective.size, rhs.size, index.size, _core.MatrixFormat.kColwise,
            _core.ObjSense.kMinimize, 0.0, -objective, *bounds.T,
            np.concatenate((np.full(ub_rows, -_core.kHighsInf), rhs[ub_rows:])),
            rhs, start, index, value, np.zeros(objective.size, dtype=np.int32)
            ) == _core.HighsStatus.kError:
        return "Model error", None
    failed = highs.run() == _core.HighsStatus.kError
    status = highs.getModelStatus()
    if failed or status != _core.HighsModelStatus.kOptimal:
        return highs.modelStatusToString(status), None
    return "Optimal", np.array(highs.getSolution().col_value)


def _columnwise(objective, eq_matrix, eq_rhs, ub_matrix, ub_rhs, bounds) -> tuple:
    """The program of :func:`solve_lp` as HiGHS takes it, ``(objective,
    start, index, value, rhs, ub_rows, bounds)``: the ``ub_rows`` inequality
    rows above the equality rows, as scipy's LP solve stacks them, and
    column j's nonzeros ``value[start[j]:start[j + 1]]`` at the ascending
    rows ``index[start[j]:start[j + 1]]``.  Raises ``ValueError``, as scipy
    does, on arrays that do not fit together, non-finite data or a NaN bound."""
    lp = (objective, eq_matrix, eq_rhs, ub_matrix, ub_rhs, bounds)
    shapes = [np.shape(a) for a in lp]
    n, k_eq, k_ub = np.size(objective), np.size(eq_rhs), np.size(ub_rhs)
    if shapes != [(n,), (k_eq, n), (k_eq,), (k_ub, n), (k_ub,), (n, 2)]:
        raise ValueError(f"LP arrays of shapes {shapes} do not fit together")
    if not all(np.isfinite(a).all() for a in lp[:5]) or np.isnan(bounds).any():
        raise ValueError("LP data must be finite and its bounds not NaN")
    matrix = np.vstack((ub_matrix, eq_matrix))
    columns, rows = np.nonzero(matrix.T)  # column by column, rows ascending
    start = np.concatenate(([0], np.bincount(columns, minlength=n).cumsum()))
    return (objective, start, rows, matrix.T[columns, rows],
            np.concatenate((ub_rhs, eq_rhs)), k_ub, bounds)


def solve_lp(objective: np.ndarray, eq_matrix: np.ndarray, eq_rhs: np.ndarray,
             ub_matrix: np.ndarray, ub_rhs: np.ndarray,
             bounds: np.ndarray) -> np.ndarray | None:
    """A point maximizing ``objective @ x`` subject to ``eq_matrix @ x ==
    eq_rhs``, ``ub_matrix @ x <= ub_rhs`` and the (n, 2) array of ``bounds``
    (lower, upper) on each variable, as ``linprog`` takes them; None when no
    point is feasible.

    Ill-conditioned instances can trip the simplex at tight tolerances or
    come back from postsolve with out-of-tolerance residuals, so the solve
    walks a ladder of cold HiGHS solves (dual simplex, interior point, dual
    simplex without presolve) and returns the first solution whose largest
    constraint violation, with the row activities recomputed from the
    :func:`_columnwise` matrix, is within ``LP_FEASIBILITY_TOL``.  Raises
    ``ValueError`` before any solve where :func:`_columnwise` does, and
    ``RuntimeError`` when no rung passes the audit.
    """
    lp = _columnwise(objective, eq_matrix, eq_rhs, ub_matrix, ub_rhs, bounds)
    _, start, index, value, rhs, ub_rows, _ = lp
    failures = []
    for method, presolve in _RUNGS:
        status, x = _solve_rung(lp, method, presolve)
        if status in ("Infeasible", "Model error"):  # scipy's status 2
            return None
        if x is None:
            failures.append(f"{method}: {status}")
            continue
        residual = np.bincount(index, value * np.repeat(x, np.diff(start)),
                               minlength=rhs.size) - rhs
        residual[ub_rows:] = np.abs(residual[ub_rows:])
        violation = np.concatenate([residual, bounds[:, 0] - x,
                                    x - bounds[:, 1]]).max(initial=0.0)
        if violation <= LP_FEASIBILITY_TOL:  # NaN fails too
            return x
        failures.append(f"{method}: residual {violation:.3e}")
    raise RuntimeError("no LP solve passed the feasibility audit ("
                       + "; ".join(failures) + ")")
