"""The four benchmark workloads: seeded inputs, one operation, output checks.

Every workload runs on the ``testbench`` preset through the public API of
``ehcr``.  Inputs are drawn here from the workload seed, so the program only
ever sees generated parameter sets and policies.  Each workload puts most of
its time in a different layer (see README.md for the reasoning):

- ``sweep``: ``optimizer.optimize`` over the acceptance cells; LP-bound.
- ``evaluate``: ``performance.evaluate`` on random and shaped policies;
  harvest laws, kernel blocks and the stationary solve.
- ``validate``: ``simulator.compare`` in decorrelated mode; the per-slot loop.
- ``faithful``: ``simulator.run`` in faithful mode; Marcum Q per sensed slot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ehcr import optimizer, performance, simulator
from ehcr.chain import Policy, action_ranges
from ehcr.performance import FEASIBILITY_TOL
from ehcr.presets import load_preset
from ehcr.system_model import params_from_dict, validate, with_overrides

PRESET = "testbench"

#: occupancy values of the acceptance sweep and the CLI ``sweep`` default
RHO_GRID = tuple(float(r) for r in np.round(np.linspace(0.1, 0.9, 9), 10))

#: (scheme, harvest mode) cells the acceptance fixture optimizes at each rho;
#: every run holds one half-cost sensing-only cell per three others
SWEEP_CELLS = (
    ("probabilistic", "mixed"),
    ("probabilistic", "nature"),
    ("probabilistic", "rf"),
    ("sensing_only", "mixed"),
)

HARVEST_MODES = ("mixed", "nature", "rf")

#: the five fixed policy shapes of acceptance criterion 4
SHAPES = ("idle", "blind", "sense", "mixed", "ramp")

#: battery sizes of the evaluate workload: the preset's and a larger one
#: that roughly triples the chain size (every third op uses the larger)
EVALUATE_N_MAX = (20, 20, 60)

VALIDATE_SLOTS = 20_000
FAITHFUL_SLOTS = 5_000

#: a validate op fails when any gated |z| of its comparison rows exceeds
#: this.  compare() flags at 3 sigma, which over ~25 rows per op and hundreds
#: of ops per run trips on noise alone.  Over 7,200 ops (seeds 100-139) at
#: this commit the largest gated |z| was 5.6 and its 99.9th percentile 4.0;
#: a broken simulator or kernel moves some row by tens of standard errors at
#: 20k slots.
VALIDATE_Z_BOUND = 8.0

#: occupancy rows enter the z gate only when the analytic law expects at
#: least this many visits.  Rarer levels are visited in a few clustered
#: excursions, so their batch-means SE is meaningless: a level never visited
#: gets the binomial floor SE of about 1/slots and |z| equal to its expected
#: visit count (|z| = 11.9 for 12 expected visits was seen at this commit).
VALIDATE_MIN_VISITS = 300

#: a faithful op at the default seed fails when a rate differs from the
#: recorded reference by more than this many combined standard errors
FAITHFUL_REF_SIGMAS = 5.0

#: absolute tolerances against the recorded reference outputs
EVALUATE_REF_ATOL = 1e-9
SWEEP_RATE_ATOL = 1e-6

#: inputs generated per run; ops cycle through them in order
POOL_SIZE = {"sweep": len(RHO_GRID) * len(SWEEP_CELLS), "evaluate": 1024,
             "validate": 180, "faithful": 180}

#: leading pool entries whose outputs are recorded at the default seed
REFERENCE_COUNT = {"evaluate": 256, "faithful": 16}


@dataclass(frozen=True)
class Setting:
    """The preset and its search grid, shared by every workload."""

    params: Any
    grid: optimizer.GridSpec


def load_setting() -> Setting:
    doc = load_preset(PRESET)
    grid_doc = doc["grid"]
    grid = optimizer.GridSpec(tau_min=float(grid_doc["tau_min"]),
                              lambda_count=int(grid_doc["lambda_count"]))
    return Setting(params=params_from_dict(doc), grid=grid)


def harvest_mode(params, mode: str):
    """Single-source modes zero the other source, as the CLI sweep does."""
    if mode == "nature":
        return with_overrides(params, eta=0.0)
    if mode == "rf":
        return with_overrides(params, lambda_e=0.0)
    return params


def _checked(params):
    problems = validate(params)
    if problems:
        raise ValueError("generated parameters invalid: " + "; ".join(problems))
    return params


def polytope_policy(rng, params, tau: float, threshold: float) -> Policy:
    """Uniform draw over the policy polytope (beta1 + beta2 <= 1 per level).

    Reflecting the pair through the anti-diagonal maps the upper triangle of
    the unit square onto the lower one, so the draw stays uniform.
    """
    alpha_range, beta_range = action_ranges(params, tau)
    b1 = rng.random(len(beta_range))
    b2 = rng.random(len(beta_range))
    over = b1 + b2 > 1.0
    b1[over], b2[over] = 1.0 - b1[over], 1.0 - b2[over]
    return Policy(alpha=rng.random(len(alpha_range)), beta1=b1, beta2=b2,
                  tau=tau, threshold=threshold)


def shaped_policy(shape: str, params, tau: float, threshold: float) -> Policy:
    """One of the five criterion-4 policy shapes."""
    if shape == "idle":
        return Policy.idle(params, tau, threshold)
    if shape == "blind":
        return Policy.constant(params, tau, threshold, 1.0, 1.0, 0.0)
    if shape == "sense":
        return Policy.constant(params, tau, threshold, 0.0, 0.0, 1.0)
    if shape == "mixed":
        return Policy.constant(params, tau, threshold, 0.5, 0.3, 0.5)
    alpha_range, beta_range = action_ranges(params, tau)
    return Policy(alpha=np.linspace(0.2, 0.6, len(alpha_range)),
                  beta1=np.linspace(0.1, 0.4, len(beta_range)),
                  beta2=np.linspace(0.5, 0.2, len(beta_range)),
                  tau=tau, threshold=threshold)


def mixed_policy(rng, params, tau: float, threshold: float, mix: str) -> Policy:
    """Random policy whose action probabilities lean towards ``mix``.

    ``idle``: every action rare; ``blind``: blind access dominant; ``sense``:
    sensing dominant; ``mixed``: uniform over the polytope.
    """
    if mix == "mixed":
        return polytope_policy(rng, params, tau, threshold)
    alpha_range, beta_range = action_ranges(params, tau)
    na, nb = len(alpha_range), len(beta_range)
    if mix == "idle":
        alpha = rng.uniform(0.0, 0.15, na)
        beta1 = rng.uniform(0.0, 0.1, nb)
        beta2 = rng.uniform(0.0, 0.1, nb)
    elif mix == "blind":
        alpha = rng.uniform(0.7, 1.0, na)
        beta1 = rng.uniform(0.7, 0.9, nb)
        beta2 = rng.uniform(0.0, 0.1, nb)
    else:
        alpha = rng.uniform(0.0, 0.3, na)
        beta2 = rng.uniform(0.7, 1.0, nb)
        beta1 = rng.uniform(0.0, 1.0, nb) * (1.0 - beta2) * 0.5
    return Policy(alpha=alpha, beta1=beta1, beta2=beta2, tau=tau,
                  threshold=threshold)


def _sensing_taus(setting: Setting) -> list[float]:
    """Grid sensing times at which the battery can fund sense-and-transmit."""
    params = setting.params
    return [tau for tau in setting.grid.tau_values(params)
            if len(action_ranges(params, tau)[1]) > 0]


def _threshold(rng, setting: Setting, params, tau: float) -> float:
    m = round(tau * params.W)
    lambdas = setting.grid.lambda_grid(m)
    return float(lambdas[rng.integers(len(lambdas))])


# ---------------------------------------------------------------------------
# input generators: seed -> list of op inputs
# ---------------------------------------------------------------------------

def sweep_inputs(setting: Setting, rng) -> list[tuple[float, str, str]]:
    """All 36 acceptance cells; op k takes cell k % 4 at the (k % 9)-th rho
    of a seeded permutation (9 and 4 are coprime, so 36 ops visit each pair
    once).

    A run of a few ops therefore sees the same cell mix (LP-everywhere cells
    and one half-bypassed sensing-only cell) spread over as many rho values
    as it has ops.
    """
    order = rng.permutation(len(RHO_GRID))
    return [(RHO_GRID[order[k % len(RHO_GRID)]],
             *SWEEP_CELLS[k % len(SWEEP_CELLS)])
            for k in range(len(RHO_GRID) * len(SWEEP_CELLS))]


def evaluate_inputs(setting: Setting, rng) -> list[tuple[Any, Policy]]:
    """Stratified so every run sees the same mix of chain sizes and modes.

    Index i fixes the battery size (i % 3), the harvest mode (i // 3 % 3) and
    whether the policy is a named shape or a polytope draw (i // 9 % 8);
    rho, tau, threshold and the random policy come from the seed.
    """
    bases = {n_max: _checked(with_overrides(setting.params, N_max=n_max))
             for n_max in set(EVALUATE_N_MAX)}
    inputs = []
    for i in range(POOL_SIZE["evaluate"]):
        n_max = EVALUATE_N_MAX[i % len(EVALUATE_N_MAX)]
        mode = HARVEST_MODES[i // 3 % 3]
        rho = RHO_GRID[rng.integers(len(RHO_GRID))]
        params = harvest_mode(with_overrides(bases[n_max], rho=rho), mode)
        taus = setting.grid.tau_values(params)
        tau = taus[rng.integers(len(taus))]
        threshold = _threshold(rng, setting, params, tau)
        slot = i // 9 % 8
        if slot < len(SHAPES):
            policy = shaped_policy(SHAPES[slot], params, tau, threshold)
        else:
            policy = polytope_policy(rng, params, tau, threshold)
        inputs.append((params, policy))
    return inputs


def _simulation_inputs(setting: Setting, rng, mixes: tuple[str, ...],
                       rhos: tuple[float, ...], count: int, slots: int,
                       mode: str):
    """Stratified like evaluate_inputs: index i fixes the action mix, rho
    (i % len(rhos)) and the sensing time (i // len(rhos)), which set the
    per-slot cost; the threshold, the policy and the simulation seed come
    from the seed."""
    taus = _sensing_taus(setting)
    inputs = []
    for i in range(count):
        mix = mixes[i % len(mixes)]
        params = with_overrides(setting.params, rho=rhos[i % len(rhos)])
        tau = taus[i // len(rhos) % len(taus)]
        threshold = _threshold(rng, setting, params, tau)
        policy = mixed_policy(rng, params, tau, threshold, mix)
        sim = simulator.SimConfig(slots=slots, seed=int(rng.integers(2**31)),
                                  correlation_mode=mode)
        inputs.append((params, policy, sim))
    return inputs


def validate_inputs(setting: Setting, rng):
    return _simulation_inputs(setting, rng, ("idle", "blind", "sense", "mixed"),
                              RHO_GRID, POOL_SIZE["validate"], VALIDATE_SLOTS,
                              "decorrelated")


def faithful_inputs(setting: Setting, rng):
    """Sense-heavy policies at the preset's rho only: the share of PU-active
    slots scales the Marcum work per slot about ninefold across RHO_GRID,
    which would make the op times multi-modal and their median unsteady
    (validate covers the rho range)."""
    return _simulation_inputs(setting, rng, ("sense",), (setting.params.rho,),
                              POOL_SIZE["faithful"], FAITHFUL_SLOTS,
                              "faithful")


# ---------------------------------------------------------------------------
# operations: input -> output; the only code inside the timed region
# ---------------------------------------------------------------------------

def sweep_op(setting: Setting, item):
    rho, scheme, mode = item
    params = harvest_mode(with_overrides(setting.params, rho=rho), mode)
    return params, optimizer.optimize(params, setting.grid, scheme)


def evaluate_op(setting: Setting, item):
    params, policy = item
    return performance.evaluate(params, policy)


def validate_op(setting: Setting, item):
    params, policy, sim = item
    return simulator.compare(params, policy, sim)


def faithful_op(setting: Setting, item):
    params, policy, sim = item
    return simulator.run(params, policy, sim)


# ---------------------------------------------------------------------------
# outputs: work done, reference records, correctness checks
# ---------------------------------------------------------------------------

def status_counts(records) -> dict[str, int]:
    """Grid points per status in one optimizer log."""
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec.status] = counts.get(rec.status, 0) + 1
    return counts


def _rates_in_unit_interval(named: dict[str, float]) -> list[str]:
    return [f"{name}={value!r} outside [0, 1]" for name, value in named.items()
            if not 0.0 <= value <= 1.0]


def sweep_record(item, output) -> dict:
    _, (solution, records) = output
    return {
        "tau_star": solution.tau, "lambda_star": solution.threshold,
        "mu_s": solution.report.mu_s, "mu_p": solution.report.mu_p,
        "points": status_counts(records),
    }


def sweep_key(item) -> str:
    rho, scheme, mode = item
    return f"{rho!r}/{scheme}/{mode}"


def sweep_check(item, output, reference) -> list[str]:
    params, (solution, records) = output
    report = solution.report
    errors = _rates_in_unit_interval({
        "mu_s": report.mu_s, "mu_p": report.mu_p,
        "p_sense": report.p_sense, "p_access": report.p_access})
    if report.mu_p < params.mu_th - FEASIBILITY_TOL:
        errors.append(f"winner mu_p={report.mu_p!r} below mu_th={params.mu_th}")
    got = sweep_record(item, output)
    want = reference.get(sweep_key(item)) if reference else None
    if want is None:
        return errors + [f"no reference for cell {sweep_key(item)}"]
    if got["points"] != want["points"]:
        errors.append(f"grid statuses {got['points']} != reference {want['points']}")
    for key in ("tau_star", "lambda_star"):
        if not math.isclose(got[key], want[key], rel_tol=1e-9):
            errors.append(f"{key}={got[key]!r} != reference {want[key]!r}")
    for key in ("mu_s", "mu_p"):
        if abs(got[key] - want[key]) > SWEEP_RATE_ATOL:
            errors.append(f"{key}={got[key]!r} != reference {want[key]!r}")
    return errors


def evaluate_record(item, output) -> dict:
    return {"mu_p": output.mu_p, "mu_s": output.mu_s,
            "p_sense": output.p_sense, "p_access": output.p_access}


def evaluate_check(item, output, reference) -> list[str]:
    params, _ = item
    got = evaluate_record(item, output)
    errors = _rates_in_unit_interval(got)
    if got["p_sense"] + got["p_access"] > 1.0 + 1e-12:
        errors.append("p_sense + p_access exceeds 1")
    if got["mu_s"] > got["p_sense"] + got["p_access"] + 1e-12:
        errors.append("mu_s exceeds the transmit probability")
    pi = output.stationary.pi
    if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-9:
        errors.append("stationary law is not a probability vector")
    if output.feasible != (output.mu_p >= params.mu_th - FEASIBILITY_TOL):
        errors.append("feasible flag disagrees with mu_p and mu_th")
    if reference is not None:
        for key, value in got.items():
            if abs(value - reference[key]) > EVALUATE_REF_ATOL:
                errors.append(f"{key}={value!r} != reference {reference[key]!r}")
    return errors


def _sim_invariants(report, slots: int) -> list[str]:
    errors = _rates_in_unit_interval({
        "mu_p": report.mu_p, "mu_s": report.mu_s,
        "p_sense": report.p_sense, "p_access": report.p_access})
    if int(report.battery_histogram.sum()) != slots:
        errors.append(f"occupancy histogram sums to "
                      f"{int(report.battery_histogram.sum())}, not {slots}")
    if sum(report.action_counts.values()) != slots:
        errors.append("action counts do not sum to the slot count")
    return errors


def validate_check(item, output, reference) -> list[str]:
    _, _, sim = item
    errors = _sim_invariants(output.empirical, sim.slots)
    gated = [row for row in output.rows if not row.metric.startswith("pi_")
             or row.analytic * sim.slots >= VALIDATE_MIN_VISITS]
    worst = max(gated, key=lambda row: abs(row.zscore))
    if not abs(worst.zscore) <= VALIDATE_Z_BOUND:
        errors.append(f"{worst.metric}: |z|={abs(worst.zscore):.2f} exceeds "
                      f"{VALIDATE_Z_BOUND}")
    return errors


_SIM_RATES = ("mu_p", "mu_s", "p_sense", "p_access")


def faithful_record(item, output) -> dict:
    return {key: [getattr(output, key), getattr(output, key + "_se")]
            for key in _SIM_RATES}


def faithful_check(item, output, reference) -> list[str]:
    _, _, sim = item
    errors = _sim_invariants(output, sim.slots)
    if reference is not None:
        for key in _SIM_RATES:
            value, se = getattr(output, key), getattr(output, key + "_se")
            ref_value, ref_se = reference[key]
            allowed = FAITHFUL_REF_SIGMAS * math.hypot(se, ref_se)
            if not abs(value - ref_value) <= allowed:
                errors.append(f"{key}={value!r} differs from reference "
                              f"{ref_value!r} by more than {allowed:.3g}")
    return errors


@dataclass(frozen=True)
class Workload:
    """How one workload makes inputs, runs an op and judges its output.

    ``work`` counts the units ``work_per_s`` is measured in; ``record`` gives
    the reference entry of one output and ``check`` lists what is wrong with
    an output (given its reference entry, or None when there is none).
    """

    unit_name: str
    make_inputs: Callable
    op: Callable
    work: Callable
    check: Callable
    record: Callable | None
    sim_report: Callable | None = None


WORKLOADS = {
    "sweep": Workload(
        unit_name="points_per_s", make_inputs=sweep_inputs, op=sweep_op,
        work=lambda output: len(output[1][1]),
        check=sweep_check, record=sweep_record),
    "evaluate": Workload(
        unit_name="policies_per_s", make_inputs=evaluate_inputs,
        op=evaluate_op, work=lambda output: 1,
        check=evaluate_check, record=evaluate_record),
    "validate": Workload(
        unit_name="slots_per_s", make_inputs=validate_inputs, op=validate_op,
        work=lambda output: output.empirical.slots,
        check=validate_check, record=None,
        sim_report=lambda output: output.empirical),
    "faithful": Workload(
        unit_name="slots_per_s", make_inputs=faithful_inputs, op=faithful_op,
        work=lambda output: output.slots,
        check=faithful_check, record=faithful_record,
        sim_report=lambda output: output),
}
