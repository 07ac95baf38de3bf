"""The package namespace is the library side of the four CLI commands:
configure a scenario, optimize, evaluate, simulate and compare, with their
inputs, results and errors.  Every other name is imported from its module,
so each name has one import path."""
import importlib

import ehcr

WORKFLOW = {
    "params_from_dict", "validate", "SystemParams", "ConfigurationError",
    "GridSpec", "optimize", "OptimalSolution", "InfeasibleGridError",
    "AmbiguousChainError", "Policy", "evaluate", "PerformanceReport",
    "SimConfig", "run", "SimReport", "compare", "ComparisonReport",
}


def test_all_lists_the_workflow_once():
    assert sorted(ehcr.__all__) == sorted(WORKFLOW)
    assert len(ehcr.__all__) == len(WORKFLOW) == 17


def test_each_name_is_its_module_binding():
    for name in ehcr.__all__:
        value = getattr(ehcr, name)
        module = importlib.import_module(value.__module__)
        assert module.__name__.startswith("ehcr.")
        assert getattr(module, name) is value, name


def test_star_import_binds_exactly_the_workflow():
    namespace = {}
    exec("from ehcr import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == WORKFLOW
