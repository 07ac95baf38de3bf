"""Special functions and the linear-program solve of the policy optimizer.

Everything here is a pure function of its inputs and safe to call from any
number of threads: integer-order gamma tail probabilities (checked wrappers
over ``scipy.special.gammaincc``/``gammainc`` that take one argument or a 1-D
array of them), the generalized Marcum Q function (one array sum of scipy's
gamma tails against Poisson weights), and ``solve_lp``, which maximizes a
small program, or a stack of them, given in ``linprog``'s dense arrays, with
a ladder of cold HiGHS solves behind a feasibility audit.  Only this module
sees the programs in compressed columns: the solves pass the HiGHS core
bundled with scipy (``scipy.optimize._highspy._core``) the arrays and
options scipy's own ``method="highs"`` LP solve builds, so they return its
points bit for bit without its per-call Python, which holds the GIL.  The
first rung of a stack's programs runs on one thread per CPU the process may
run on (HiGHS's core releases the GIL for nearly all of a solve), and those
threads run the rung's solve alone: a stack is checked, compressed and
audited as a whole, and its failures walk the later rungs, in the calling
thread.  The core is imported by the first solve, so importing this module
loads no scipy.optimize.
"""
from __future__ import annotations

import functools
import math
import os
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from itertools import repeat
from typing import NamedTuple

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

#: threads that solve the first rung of a stack: one per CPU the process
#: may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


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


class _Stack(NamedTuple):
    """K programs of one shape in compressed columns: each as
    :func:`_solve_rung` takes it, and the arrays they are views of."""

    #: each program's ``(objective, start, index, value, rhs, ub_rows,
    #: bounds)``: rows of ``start``, ``rhs`` and ``bounds`` and slices of
    #: ``index`` and ``value``
    programs: list[tuple]
    start: np.ndarray  # (K, n + 1)
    index: np.ndarray
    value: np.ndarray
    rhs: np.ndarray  # (K, rows)
    ub_rows: int
    bounds: np.ndarray  # (K, n, 2)


def _columnwise(objective, eq_matrix, eq_rhs, ub_matrix, ub_rhs,
                bounds) -> _Stack:
    """The programs of :func:`solve_lp` as HiGHS takes them: each program's
    ``(objective, start, index, value, rhs, ub_rows, bounds)`` has the
    ``ub_rows`` inequality rows above the equality rows, as scipy's LP
    solve stacks them, and column j's nonzeros ``value[start[j]:start[j +
    1]]`` at the ascending rows ``index[start[j]:start[j + 1]]``.  The
    arrays carry a leading axis of K programs, or none for one program, a
    stack of one; one ``np.flatnonzero`` compresses the whole stack, program
    by program, so each program's arrays are those it would get alone.
    Raises ``ValueError``, as scipy does, on arrays that do not fit
    together, non-finite data or a NaN bound."""
    lp = tuple(np.asarray(a) for a in (objective, eq_matrix, eq_rhs,
                                       ub_matrix, ub_rhs, bounds))
    if lp[0].ndim == 1:  # one program: a stack of one
        lp = tuple(a[None] for a in lp)
    shapes = [np.shape(a) for a in lp]
    count, n = shapes[0] if len(shapes[0]) == 2 else (0, -1)
    k_eq, k_ub = (shape[-1] if len(shape) == 2 else -1
                  for shape in shapes[2::2])
    if shapes != [(count, n), (count, k_eq, n), (count, k_eq),
                  (count, k_ub, n), (count, k_ub), (count, n, 2)]:
        raise ValueError(f"LP arrays of shapes {shapes} do not fit together")
    objective, eq_matrix, eq_rhs, ub_matrix, ub_rhs, bounds = lp
    rows = k_ub + k_eq
    # (K, n, rows), C-ordered: each program's columns, rows ascending in each
    by_column = np.empty((count, n, rows))
    by_column[..., :k_ub] = ub_matrix.transpose(0, 2, 1)
    by_column[..., k_ub:] = eq_matrix.transpose(0, 2, 1)
    nonzero = by_column != 0.0
    counts = np.count_nonzero(nonzero, axis=2)
    at = np.flatnonzero(nonzero)  # program by program, column by column
    value = by_column.ravel()[at]
    del by_column, nonzero
    rhs = np.concatenate((ub_rhs, eq_rhs), axis=1)
    if not all(np.isfinite(a).all() for a in (value, objective, rhs)) \
            or np.isnan(bounds).any():  # a zero is finite
        raise ValueError("LP data must be finite and its bounds not NaN")
    at -= np.repeat(np.arange(count * n) * rows, counts.ravel())  # rows
    start = np.zeros((count, n + 1), dtype=np.intp)
    np.cumsum(counts, axis=1, out=start[:, 1:])
    ends = start[:, -1].cumsum().tolist()
    return _Stack(
        [(objective[p], start[p], at[first:end], value[first:end], rhs[p],
          k_ub, bounds[p])
         for p, (first, end) in enumerate(zip([0] + ends, ends))],
        start, at, value, rhs, k_ub, bounds)


def _audit(stack: _Stack, points: np.ndarray) -> np.ndarray:
    """The largest constraint violation of each program of ``stack`` at its
    point, a row of the (K, n) ``points``, with the row activities
    recomputed from the compressed columns.  One ``bincount`` over the
    stack's rows, each offset by its program's, sums each row's terms in
    their column order, as a program's own would, so each program gets the
    bits it gets alone."""
    count, rows = stack.rhs.shape
    counts = np.diff(stack.start, axis=1)
    terms = stack.value * np.repeat(points.ravel(), counts.ravel())
    bins = np.repeat(np.arange(count) * rows, stack.start[:, -1])
    bins += stack.index
    residual = np.bincount(bins, terms, minlength=count * rows
                           ).reshape(count, rows)
    residual -= stack.rhs
    equalities = residual[:, stack.ub_rows:]
    np.abs(equalities, out=equalities)
    return np.concatenate([residual, stack.bounds[..., 0] - points,
                           points - stack.bounds[..., 1]],
                          axis=1).max(axis=1, initial=0.0)


def _ladder(stack: _Stack, firsts) -> list:
    """Each program's result from the (status, point) of its first rung in
    ``firsts``, in order: its point where the stack's audit passes it, None
    where a rung finds it infeasible (scipy's status 2, a model error too),
    else the next rungs' verdicts, one solve and audit at a time, and the
    ``RuntimeError`` that names every rung's failure when none passes."""
    firsts = list(firsts)
    points = np.zeros(stack.bounds.shape[:2])
    for p, (_, x) in enumerate(firsts):
        if x is not None:
            points[p] = x
    results = []
    for program, (status, x), violation in zip(
            stack.programs, firsts, _audit(stack, points).tolist()):
        failures = []
        for rung, (method, presolve) in enumerate(_RUNGS):
            if rung:
                status, x = _solve_rung(program, method, presolve)
                if x is not None:
                    _, start, index, value, rhs, ub_rows, bounds = program
                    alone = _Stack([program], start[None], index, value,
                                   rhs[None], ub_rows, bounds[None])
                    violation = float(_audit(alone, x[None])[0])
            if status in ("Infeasible", "Model error"):
                results.append(None)
                break
            if x is None:
                failures.append(f"{method}: {status}")
            elif violation <= LP_FEASIBILITY_TOL:  # NaN fails too
                results.append(x)
                break
            else:
                failures.append(f"{method}: residual {violation:.3e}")
        else:
            results.append(RuntimeError(
                "no LP solve passed the feasibility audit ("
                + "; ".join(failures) + ")"))
    return results


def _solve_stacks(stacks: Iterable[tuple], count: int
                  ) -> Iterator[tuple[np.ndarray, list]]:
    """The objectives and :func:`solve_lp` results of each stack of dense
    arrays that ``stacks`` yields, ``count`` programs in all, stack by stack.

    The first rung of two or more programs runs on ``_WORKERS`` threads,
    which call :func:`_solve_rung` and nothing else (HiGHS's core releases
    the GIL for nearly all of a solve); of one, inline, with no thread.
    Stack j + 1 is taken from ``stacks``, so built by the caller in the
    calling thread, compressed and its first rung queued while stack j's
    solves run, and only then is stack j audited, so the threads are never
    left waiting on a build and no more than two stacks are held.  Every
    other step runs in the calling thread, and each program is solved
    alone, so the results do not depend on the thread count."""
    method, presolve = _RUNGS[0]
    pooled = count > 1 and _WORKERS > 1
    with ThreadPoolExecutor(_WORKERS) if pooled else nullcontext() as pool:
        solve = map if pool is None else pool.map
        pending = None
        for lp in stacks:
            stack = _columnwise(*lp)
            started = (lp[0], stack, solve(_solve_rung, stack.programs,
                                           repeat(method), repeat(presolve)))
            del lp  # its dense matrices, before the next stack is built
            if pending is not None:
                yield pending[0], _ladder(*pending[1:])
            pending = started
        if pending is not None:
            yield pending[0], _ladder(*pending[1:])


def solve_lp(objective: np.ndarray, eq_matrix: np.ndarray, eq_rhs: np.ndarray,
             ub_matrix: np.ndarray, ub_rhs: np.ndarray, bounds: np.ndarray):
    """A point maximizing ``objective @ x`` subject to ``eq_matrix @ x ==
    eq_rhs``, ``ub_matrix @ x <= ub_rhs`` and the (n, 2) array of ``bounds``
    (lower, upper) on each variable, as ``linprog`` takes them; None when no
    point is feasible.  Given a leading axis of K programs, the list of each
    program's result, with the ``RuntimeError`` its own solve would raise in
    place of a point.

    Ill-conditioned instances can trip the simplex at tight tolerances or
    come back from postsolve with out-of-tolerance residuals, so the solve
    walks a ladder of cold HiGHS solves (dual simplex, interior point, dual
    simplex without presolve) and returns the first solution whose largest
    constraint violation, with the row activities recomputed from the
    :func:`_columnwise` matrix, is within ``LP_FEASIBILITY_TOL``.  The
    first rung of a stack runs as :func:`_solve_stacks` runs it; only the
    programs that fail its audit walk on.  Raises ``ValueError`` before any
    solve where :func:`_columnwise` does, and ``RuntimeError`` when no rung
    passes the audit of a single program.
    """
    lp = (objective, eq_matrix, eq_rhs, ub_matrix, ub_rhs, bounds)
    stacked = np.ndim(objective) > 1
    [(_, results)] = _solve_stacks([lp], len(objective) if stacked else 1)
    if stacked:
        return results
    [x] = results
    if isinstance(x, RuntimeError):
        raise x
    return x
