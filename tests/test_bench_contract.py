"""The benchmark's view of the program still resolves.

``bench/tracing.py`` wraps functions of ``ehcr`` by module and name, and
``bench/workloads.py`` imports names from it at load time; a simplification
that drops one of them would break ``bench/run.py`` and fail no other test.
Both files are loaded read-only from the repository: no bytecode is written
next to them.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench_module(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_names_resolve(monkeypatch):
    traced = load_bench_module("tracing", monkeypatch).TRACED
    for metric, targets in traced.items():
        for module_name, attr in targets:
            assert module_name.split(".")[0] == "ehcr", metric
            target = getattr(importlib.import_module(module_name), attr, None)
            assert callable(target), (metric, module_name, attr)
    workloads = load_bench_module("workloads", monkeypatch)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared["workloads"]}
