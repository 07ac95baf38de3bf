"""Energy-harvesting cognitive-radio MAC: analytical model, policy
optimization, and slot-level Monte Carlo cross-validation.  The package
exports the library side of the CLI; the closed forms stay in their modules."""

from .chain import AmbiguousChainError, Policy
from .optimizer import GridSpec, InfeasibleGridError, OptimalSolution, optimize
from .performance import PerformanceReport, evaluate
from .simulator import ComparisonReport, SimConfig, SimReport, compare, run
from .system_model import ConfigurationError, SystemParams, params_from_dict, validate

__version__ = "0.1.0"

__all__ = [
    "AmbiguousChainError",
    "ComparisonReport",
    "ConfigurationError",
    "GridSpec",
    "InfeasibleGridError",
    "OptimalSolution",
    "PerformanceReport",
    "Policy",
    "SimConfig",
    "SimReport",
    "SystemParams",
    "compare",
    "evaluate",
    "optimize",
    "params_from_dict",
    "run",
    "validate",
]
