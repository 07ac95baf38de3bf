"""Energy-harvesting cognitive-radio MAC: analytical model, policy
optimization, and slot-level Monte Carlo cross-validation."""

from .chain import (
    AmbiguousChainError,
    Policy,
    StationaryDistribution,
    action_ranges,
    stationary_distribution,
)
from .harvesting import HarvestPmf, combined_distribution, nature_distribution, rf_distribution
from .numerics import marcum_q, regularized_upper_gamma_int
from .optimizer import GridSpec, InfeasibleGridError, OptimalSolution, optimize
from .outage import OutageBundle, bundle, no_outage_direct, no_outage_interfered
from .performance import PerformanceReport, evaluate
from .sensing import SensingConfig, detection_avg, detection_instant, false_alarm
from .simulator import ComparisonReport, SimConfig, SimReport, compare, run
from .system_model import (
    ConfigurationError,
    DerivedQuantities,
    LinkParams,
    LinkSet,
    SystemParams,
    derive,
    params_from_dict,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousChainError",
    "ComparisonReport",
    "ConfigurationError",
    "DerivedQuantities",
    "GridSpec",
    "HarvestPmf",
    "InfeasibleGridError",
    "LinkParams",
    "LinkSet",
    "OptimalSolution",
    "OutageBundle",
    "PerformanceReport",
    "Policy",
    "SensingConfig",
    "SimConfig",
    "SimReport",
    "StationaryDistribution",
    "SystemParams",
    "action_ranges",
    "bundle",
    "combined_distribution",
    "compare",
    "derive",
    "detection_avg",
    "detection_instant",
    "evaluate",
    "false_alarm",
    "marcum_q",
    "nature_distribution",
    "no_outage_direct",
    "no_outage_interfered",
    "optimize",
    "params_from_dict",
    "regularized_upper_gamma_int",
    "rf_distribution",
    "run",
    "stationary_distribution",
    "validate",
]
