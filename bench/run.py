"""Benchmark of the ehcr package: four closed-loop workloads, one command.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the same ops untraced and then traced and reports per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the full
report (environment stamp, workload-specific metric names, sample counts and
checks).  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import os

# One BLAS thread: the LAPACK calls here (the stationary least-squares solve)
# are on matrices of at most 62 x 61, and a pinned count keeps runs on a
# shared machine steady.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: fresh processes timed for setup_s; the reported value is their median
SETUP_SAMPLES = 3

#: probe samples a setup process times after setting up, for its scale
SETUP_PROBES = 5

#: the workload seed whose outputs reference.json records
DEFAULT_SEED = 0

#: op_s_p90 is reported only with at least this many ops in the run
P90_MIN_OPS = 100


def _import_program():
    """Put ``src/`` on the path and import the package, or exit non-zero."""
    if not (ROOT / "src" / "ehcr" / "__init__.py").is_file():
        sys.exit(f"bench: no ehcr package under {ROOT / 'src'}; run from a "
                 f"full checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (imported here so setup_s counts it)
    import ehcr  # noqa: F401
    import workloads
    return workloads


def _load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        sys.exit(f"bench: missing {REFERENCE_PATH.name}")
    return json.loads(REFERENCE_PATH.read_text("utf-8"))


def setup(workload_name: str, seed: int):
    """Everything before the first timed op: imports, preset, inputs."""
    workloads = _import_program()
    import numpy as np
    reference = _load_reference()
    setting = workloads.load_setting()
    workload = workloads.WORKLOADS[workload_name]
    inputs = workload.make_inputs(setting, np.random.default_rng(seed))
    return workloads, reference, setting, workload, inputs


def time_setup(args) -> tuple[list[float], list[float]]:
    """Wall and rescaled times of fresh processes that only run :func:`setup`.

    Each process ends by timing the speed probe and printing the scale
    factor, so the rescaling uses the core state of the setup itself.
    """
    walls, scaled = [], []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        done = subprocess.run(command, check=True, cwd=ROOT,
                              capture_output=True, text=True)
        walls.append(time.perf_counter() - started)
        scaled.append(walls[-1] * float(done.stdout))
    return walls, scaled


def _reference_entry(workload_name: str, reference: dict, seed: int,
                     index: int):
    if workload_name == "sweep":
        return reference["sweep"]
    if seed != reference["default_seed"]:
        return None
    entries = reference.get(workload_name, [])
    return entries[index] if index < len(entries) else None


@dataclass
class Measured:
    """What one pass of the loop measured."""

    times: list[float] = field(default_factory=list)   # wall, per op
    scaled: list[float] = field(default_factory=list)  # rescaled, per op
    work: int = 0                                      # units of succeeded ops
    outputs: list = field(default_factory=list)        # if kept
    failed: int = 0


class Loop:
    """Closed loop over the input pool: next op starts when one returns."""

    def __init__(self, workload_name, reference, setting, workload, inputs,
                 seed):
        self.name = workload_name
        self.reference = reference
        self.setting = setting
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.errors: list[str] = []

    def run(self, count: int | None = None, seconds: float | None = None,
            probe=None, keep_outputs: bool = False) -> "Measured":
        """Run ``count`` ops, or as many as start within ``seconds``.

        With a running :class:`speed.SpeedProbe`, probe time inside an op is
        taken out of its wall time and each op also gets a rescaled time.
        Outputs are kept only on request, so that memory does not grow with
        the number of ops a timed run completes.
        """
        result = Measured()
        deadline = time.perf_counter() + seconds if seconds is not None else None
        index = 0
        while (count is None or index < count) and (
                deadline is None or time.perf_counter() < deadline):
            pool_index = index % len(self.inputs)
            item = self.inputs[pool_index]
            if probe is not None:
                first, probed = len(probe.samples), probe.total
            started = time.perf_counter()
            try:
                output = self.workload.op(self.setting, item)
            except Exception as exc:  # an op failure is a result, not a crash
                output = None
                self._note(f"op {index}: {type(exc).__name__}: {exc}")
            wall = time.perf_counter() - started
            if probe is not None:
                wall -= probe.total - probed
                result.scaled.append(wall * probe.scale(first))
            result.times.append(wall)
            index += 1
            if output is None:
                result.failed += 1
                continue
            expected = _reference_entry(self.name, self.reference, self.seed,
                                        pool_index)
            problems = self.workload.check(item, output, expected)
            if problems:
                result.failed += 1
                self._note(f"op {index - 1}: " + "; ".join(problems))
            else:
                result.work += self.workload.work(output)
                if keep_outputs:
                    result.outputs.append(output)
        return result

    def _note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)
            print(f"bench: {self.name} {message}", file=sys.stderr)


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(load_at_start: tuple[float, float, float]) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "loadavg_at_start": list(load_at_start),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def _time_metrics(setup: list[float], times: list[float], work: int,
                  unit_name: str) -> dict[str, tuple[float, str]]:
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "work_per_s": (work / sum(times), "1/s"),
        unit_name: (work / sum(times), "1/s"),
    }
    if len(times) >= P90_MIN_OPS:
        metrics["op_s_p90"] = (
            statistics.quantiles(times, n=10, method="inclusive")[-1], "s")
    return metrics


def untraced(args, loop: Loop):
    """End-to-end metrics with times rescaled to the reference speed
    (speed.py); the report also gives the wall-clock ones (``wall_metrics``).
    """
    import speed
    setup_wall, setup_scaled = time_setup(args)
    probe = speed.SpeedProbe()
    with probe:
        measured = loop.run(seconds=args.seconds, probe=probe)
    rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    unit_name = loop.workload.unit_name
    named = _time_metrics(setup_scaled, measured.scaled, measured.work,
                          unit_name)
    named["peak_rss_mb"] = rss
    wall = _time_metrics(setup_wall, measured.times, measured.work, unit_name)
    metrics = {name: named[name]
               for name in ("setup_s", "peak_rss_mb", "op_s_p50", "work_per_s")}
    details = {
        "samples": {"ops": len(measured.times), "setup": len(setup_wall),
                    "probes": len(probe.samples)},
        "wall_metrics": {name: {"value": value, "unit": unit}
                         for name, (value, unit) in wall.items()},
        "probe_s": {"reference": speed.REFERENCE_S,
                    "median": statistics.median(probe.samples)},
    }
    return metrics, named, details, len(measured.times), measured.failed


def _points(outputs) -> dict[str, int]:
    """Grid-point statuses summed over the returned optimizer logs."""
    import workloads
    totals = {"optimal": 0, "infeasible": 0, "sensing_unreachable": 0,
              "unsupported_m": 0}
    for _, (_, records) in outputs:
        for status, count in workloads.status_counts(records).items():
            totals[status] += count
    return totals


def traced(args, loop: Loop):
    """Per-layer metrics: ops run untraced for half of ``--seconds``, then
    the same ops run again under the tracer."""
    import speed
    import tracing
    with speed.SpeedProbe() as probe:
        plain = loop.run(seconds=args.seconds / 2.0, probe=probe)
        count = len(plain.times)
        with tracing.Tracer() as tracer:
            traced_run = loop.run(count=count, probe=probe,
                                  keep_outputs=True)
    outputs = traced_run.outputs
    layers = tracer.summary()
    metrics = {}
    for metric, values in layers.items():
        metrics[f"{metric}.calls"] = (values["calls"], "count")
        metrics[f"{metric}.busy_s"] = (values["busy_s"], "s")
        metrics[f"{metric}.self_s"] = (values["self_s"], "s")

    points = _points(outputs if loop.name == "sweep" else [])
    for status, value in points.items():
        metrics[f"optimizer.points.{status}"] = (value, "count")
    total_points = sum(points.values())
    metrics["optimizer.optimal_ratio"] = (
        points["optimal"] / total_points if total_points else 0.0, "ratio")

    actions = {"idle": 0, "blind": 0, "sense": 0}
    slots = 0
    if loop.workload.sim_report is not None:
        for output in outputs:
            report = loop.workload.sim_report(output)
            slots += report.slots
            for action in actions:
                actions[action] += report.action_counts[action]
    metrics["simulator.slots"] = (slots, "count")
    metrics["simulator.us_per_slot"] = (
        1e6 * layers["simulator.run"]["busy_s"] / slots if slots else 0.0, "us")
    for action, value in actions.items():
        metrics[f"simulator.actions.{action}"] = (value, "count")
    metrics["simulator.sense_share"] = (
        actions["sense"] / slots if slots else 0.0, "ratio")
    metrics["trace_overhead_ratio"] = (
        sum(traced_run.scaled) / sum(plain.scaled), "ratio")
    calls = {metric: values["calls"] for metric, values in layers.items()}
    checks = bypass_checks(loop.name, calls)
    details = {"samples": {"ops_untraced": count,
                           "ops_traced": len(traced_run.times)},
               "bypass_checks": checks}
    return metrics, details, 2 * count, plain.failed + traced_run.failed


#: workloads on which a layer must never be entered
BYPASS = {
    "numerics.solve_lp.calls": ("evaluate", "validate", "faithful"),
    "numerics.marcum_q.calls": ("sweep", "evaluate", "validate"),
    "simulator.run.calls": ("sweep", "evaluate"),
}


def bypass_checks(workload_name: str, calls: dict[str, int]) -> dict[str, dict]:
    """The zero-call predictions for this workload, with what was seen."""
    checks = {}
    for metric, names in BYPASS.items():
        if workload_name in names:
            seen = calls[metric.rsplit(".", 1)[0]]
            checks[metric] = {"expected": 0, "seen": seen, "holds": seen == 0}
    return checks


def record_reference(args) -> None:
    """Rewrite this workload's entries of reference.json at the default seed."""
    workloads, reference, setting, workload, inputs = setup(args.workload,
                                                            DEFAULT_SEED)
    if workload.record is None:
        sys.exit(f"bench: {args.workload} has no reference outputs")
    if args.workload == "sweep":
        reference["sweep"] = {
            workloads.sweep_key(item): workload.record(
                item, workload.op(setting, item))
            for item in inputs}
    else:
        count = workloads.REFERENCE_COUNT[args.workload]
        reference[args.workload] = [
            workload.record(item, workload.op(setting, item))
            for item in inputs[:count]]
    reference["default_seed"] = DEFAULT_SEED
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", "utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "evaluate", "validate", "faithful"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json entries for this workload "
                             "at the default seed, then exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_at_start = os.getloadavg()
    if args.record:
        record_reference(args)
        return 0
    state = setup(args.workload, args.seed)
    if args.setup_only:
        import speed
        probe = speed.SpeedProbe()
        probe.sample()  # warms the kernel up
        times = [probe.sample() for _ in range(SETUP_PROBES)]
        print(speed.REFERENCE_S / statistics.median(times))
        return 0
    _, reference, setting, workload, inputs = state
    loop = Loop(args.workload, reference, setting, workload, inputs, args.seed)

    if args.trace:
        metrics, details, attempted, failed = traced(args, loop)
        named = metrics
    else:
        metrics, named, details, attempted, failed = untraced(args, loop)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(load_at_start),
        "ops": attempted,
        "ops_failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in named.items()},
        **details,
        "errors": loop.errors,
    }
    print(json.dumps(report, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
