"""Batch command-line front end.

Four subcommands: ``optimize`` (one constrained policy search), ``sweep``
(optimize across an occupancy grid, schemes and harvest modes), ``simulate``
(run the Monte Carlo engine under a fixed policy) and ``validate`` (z-score
the analytical model against a simulation).  All results are written as
UTF-8 CSV with a header row and nine significant digits; identical inputs
and seeds produce byte-identical output.

Exit codes: 0 success, 1 usage or configuration error (any input the
library refuses with a ``ValueError``, and a battery chain with no unique
stationary law, included) or out of memory, each with one ``error:`` line
on stderr, 2 infeasible optimization, 3 validation flags raised.  A reader
that closes standard output early also gives 1, with nothing on stderr.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import simulator
from .chain import AmbiguousChainError, Policy
from .optimizer import (
    SCHEMES,
    GridSpec,
    InfeasibleGridError,
    OptimalSolution,
    optimize,
)
from .presets import PRESET_NAMES, load_preset
from .system_model import (
    ConfigurationError,
    SystemParams,
    config_number,
    params_from_dict,
    validate,
    with_overrides,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3

HARVEST_MODES = ("nature", "rf", "mixed")

OPTIMIZE_COLUMNS = ("rho", "scheme", "tau_star", "lambda_star",
                    "mu_s", "mu_p", "p_S", "p_A", "tau_bar")
SWEEP_COLUMNS = ("rho", "scheme", "harvest_mode", "status") + OPTIMIZE_COLUMNS[2:]
SIMULATE_COLUMNS = ("metric", "value", "stderr")
VALIDATE_COLUMNS = ("metric", "analytic", "empirical", "stderr", "zscore",
                    "flagged", "note")


class CliError(Exception):
    """Usage or configuration failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`CliError`, not as argparse's
    usage dump and exit code 2 (the code of an infeasible optimization)."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".9g")
    return str(value)


def _write_csv(path: str | None, header: Sequence[str],
               rows: Sequence[Sequence[Any]]) -> None:
    def emit(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if path is None or path == "-":
        emit(sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            emit(stream)
    except OSError as exc:
        raise CliError(f"cannot write output {path!r}: {exc.strerror or exc}") from exc


def _checked(params: SystemParams) -> SystemParams:
    """``params`` if admissible; loaded files and overrides both pass here."""
    problems = validate(params)
    if problems:
        raise CliError("invalid parameters: " + "; ".join(problems))
    return params


def _with_rho(params: SystemParams, rho: float | None) -> SystemParams:
    """``params`` under a ``--rho`` override, checked, when one is given."""
    return params if rho is None else _checked(with_overrides(params, rho=rho))


@dataclass(frozen=True)
class LoadedConfig:
    params: SystemParams
    grid: GridSpec
    sim_defaults: dict[str, Any]


def _numbers(value: Any, name: str) -> list[float]:
    """``value`` as floats when it is a list of JSON numbers."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return [config_number(v, f"{name} entry") for v in value]


def _load_config(source: str) -> LoadedConfig:
    """Load a configuration file path or a named preset."""
    path = Path(source)
    if path.is_file():
        try:
            doc = json.loads(path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read configuration {source!r}: {exc}") from exc
    elif source in PRESET_NAMES:
        doc = load_preset(source)
    else:
        raise CliError(
            f"configuration {source!r} is neither a readable file nor one of "
            f"the presets {PRESET_NAMES}"
        )
    if not isinstance(doc, dict):
        raise CliError(f"configuration must be a JSON object, "
                       f"got {type(doc).__name__}")
    try:
        params = params_from_dict(doc)
    except (TypeError, ValueError) as exc:  # ConfigurationError included
        raise CliError(str(exc)) from exc
    _checked(params)
    grid_doc, sim_doc = doc.get("grid", {}), doc.get("sim", {})
    for name, section, keys in (
            ("grid", grid_doc, ("tau_min", "lambdas", "lambda_count")),
            ("sim", sim_doc, ("slots", "seed"))):
        if not isinstance(section, dict):
            raise CliError(f"invalid {name}: the section must be an object, "
                           f"got {section!r}")
        unknown = [key for key in section if key not in keys]
        if unknown:
            raise CliError(f"invalid {name}: unknown keys {unknown}, "
                           f"expected some of {list(keys)}")
    try:
        grid = GridSpec(
            tau_min=config_number(grid_doc.get("tau_min", 1.0 / params.W),
                                  "tau_min"),
            lambda_values=(tuple(_numbers(grid_doc["lambdas"], "'lambdas'"))
                           if "lambdas" in grid_doc else None),
            # GridSpec's own default count applies when the file sets none
            **{k: v for k, v in grid_doc.items() if k == "lambda_count"},
        )
        grid.tau_values(params)  # T and W fix the sensing times; no override changes them
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"invalid grid: {exc}") from exc
    return LoadedConfig(params=params, grid=grid,
                        sim_defaults=dict(sim_doc))


def _load_policy(path: str, params: SystemParams) -> Policy:
    """Read a policy JSON: number lists alpha, beta1, beta2; numbers tau, lambda."""
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read policy {path!r}: {exc}") from exc
    try:
        policy = Policy(alpha=_numbers(doc["alpha"], "alpha"),
                        beta1=_numbers(doc["beta1"], "beta1"),
                        beta2=_numbers(doc["beta2"], "beta2"),
                        tau=config_number(doc["tau"], "tau"),
                        threshold=config_number(doc["lambda"], "lambda"))
        policy.validate_against(params)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"invalid policy document {path!r}: {exc}") from exc
    return policy


def _harvest_params(params: SystemParams, mode: str) -> SystemParams:
    """Apply a harvest mode: single-source modes zero the other source."""
    if mode == "nature":
        return with_overrides(params, eta=0.0)
    if mode == "rf":
        return with_overrides(params, lambda_e=0.0)
    return params  # mixed: both sources


def _solution_cells(solution: OptimalSolution) -> tuple:
    report = solution.report
    return (solution.tau, solution.threshold, report.mu_s, report.mu_p,
            report.p_sense, report.p_access, report.expected_sensing_time)


def _cmd_optimize(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    params = _with_rho(config.params, args.rho)
    try:
        solution, _ = optimize(params, config.grid, args.scheme)
    except InfeasibleGridError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    row = (params.rho, args.scheme) + _solution_cells(solution)
    _write_csv(args.out, OPTIMIZE_COLUMNS, [row])
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if args.param != "rho":
        raise CliError(f"sweepable parameters: rho (got {args.param!r})")
    for flag, bound in (("--from", args.sweep_from), ("--to", args.sweep_to)):
        if not math.isfinite(bound):
            raise CliError(f"sweep {flag} must be finite, got {bound}")
    if not args.sweep_from < args.sweep_to:
        raise CliError("sweep requires from < to")
    if args.steps < 2:
        raise CliError("sweep requires at least 2 steps")
    schemes = list(dict.fromkeys(args.scheme or SCHEMES))  # each once, in order
    values = [float(v) for v in np.linspace(args.sweep_from, args.sweep_to, args.steps)]
    swept = [(value, _checked(with_overrides(config.params, rho=value)))
             for value in values]
    rows = []
    any_ok = False
    for value, rho_params in swept:
        for scheme in schemes:
            for mode in HARVEST_MODES:
                params = _harvest_params(rho_params, mode)
                try:
                    solution, _ = optimize(params, config.grid, scheme)
                except InfeasibleGridError:
                    rows.append((value, scheme, mode, "infeasible") + ("",) * 7)
                    continue
                except (ValueError, AmbiguousChainError) as exc:
                    print(f"rho={value} {scheme}/{mode}: {exc}", file=sys.stderr)
                    rows.append((value, scheme, mode, "error") + ("",) * 7)
                    continue
                any_ok = True
                rows.append((value, scheme, mode, "ok") + _solution_cells(solution))
    _write_csv(args.out, SWEEP_COLUMNS, rows)
    return EXIT_OK if any_ok else EXIT_INFEASIBLE


def _sim_config(args: argparse.Namespace,
                defaults: dict[str, Any]) -> simulator.SimConfig:
    # SimConfig checks that both are integers; a config file may hold anything
    slots = args.slots if args.slots is not None else defaults.get("slots", 100_000)
    seed = args.seed if args.seed is not None else defaults.get("seed", 0)
    try:
        return simulator.SimConfig(slots=slots, seed=seed, initial_battery=args.initial_battery,
                                   correlation_mode=args.mode)
    except ValueError as exc:
        raise CliError(f"invalid simulation settings: {exc}") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    params = _with_rho(config.params, args.rho)
    policy = _load_policy(args.policy, params)
    report = simulator.run(params, policy, _sim_config(args, config.sim_defaults))
    rows = [
        ("mu_p", report.mu_p, report.mu_p_se),
        ("mu_s", report.mu_s, report.mu_s_se),
        ("p_S", report.p_sense, report.p_sense_se),
        ("p_A", report.p_access, report.p_access_se),
        ("pu_active_slots", report.pu_active_slots, ""),
        ("su_tx_slots", report.su_tx_slots, ""),
    ]
    for level, fraction in enumerate(report.occupancy):
        rows.append((f"occupancy_{level}", float(fraction),
                     float(report.occupancy_se[level])))
    _write_csv(args.out, SIMULATE_COLUMNS, rows)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    params = _with_rho(config.params, args.rho)
    policy = _load_policy(args.policy, params)
    sim = _sim_config(args, config.sim_defaults)
    comparison = simulator.compare(params, policy, sim,
                                   min_samples=args.min_samples)
    rows = [(r.metric, r.analytic, r.empirical, r.stderr, r.zscore,
             int(r.flagged), "") for r in comparison.rows]
    for warning in comparison.warnings:
        rows.append(("warning", "", "", "", "", "", warning))
    _write_csv(args.out, VALIDATE_COLUMNS, rows)
    return EXIT_VALIDATION if comparison.flagged else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ehcr",
        description="Energy-harvesting cognitive-radio MAC: analysis, "
                    "optimization and Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, rho: bool = True) -> None:
        p.add_argument("--config", required=True,
                       help="configuration JSON path or preset name "
                            f"{PRESET_NAMES}")
        if rho:
            p.add_argument("--rho", type=float, default=None,
                           help="override the configured occupancy prior")
        p.add_argument("--out", default=None,
                       help="output CSV path (default: stdout)")

    p_opt = sub.add_parser("optimize", help="solve the constrained policy search")
    common(p_opt)
    p_opt.add_argument("--scheme", choices=SCHEMES, default="probabilistic")
    p_opt.set_defaults(func=_cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="optimize across an occupancy grid")
    common(p_sweep, rho=False)
    p_sweep.add_argument("--param", default="rho",
                         help="swept parameter (rho)")
    p_sweep.add_argument("--from", dest="sweep_from", type=float, required=True)
    p_sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--scheme", action="append", choices=SCHEMES,
                         default=None,
                         help="scheme(s) to run; repeatable, default both")
    p_sweep.set_defaults(func=_cmd_sweep)

    def sim_common(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument("--policy", required=True,
                       help="policy JSON: alpha, beta1, beta2, tau, lambda")
        p.add_argument("--slots", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=simulator.CORRELATION_MODES,
                       default="decorrelated")
        p.add_argument("--initial-battery", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="run the slot-level simulator")
    sim_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_val = sub.add_parser("validate",
                           help="cross-check analytics against simulation")
    sim_common(p_val)
    p_val.add_argument("--min-samples", type=int,
                       default=simulator.DEFAULT_MIN_SAMPLES,
                       help="slots required before disagreement is flagged")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit stays quiet too (the recipe of the Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (CliError, AmbiguousChainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # any other input the library refuses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
