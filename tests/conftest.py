import copy
import sys
import warnings

import pytest
from hypothesis import settings

from ehcr.presets import load_preset
from ehcr.system_model import SystemParams, params_from_dict

# Property tests run inside the ordinary test command: fixed examples, no
# wall-clock deadline (the first call pays for imports), a bounded count, and
# no example database left behind.
settings.register_profile("ehcr", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("ehcr")

# When a property test fails, the hypothesis plugin imports its patch writer,
# whose libcst import triggers a mypy_extensions DeprecationWarning; under the
# suite's filterwarnings = ["error"] that ends the session with INTERNALERROR
# and no report.  Importing it here, with only that warning silenced, keeps
# every other warning an error.  (A module= filter would not match: the
# warning is attributed to libcst's frame.)
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated")
    import hypothesis.extra._patching  # noqa: F401

pytest_plugins = ["pytester"]


def loaded_memos() -> list:
    """Every memoized module-level function (one with ``cache_clear``) of
    the ``ehcr`` modules loaded so far; a module not loaded holds no memo."""
    return [value for name, module in list(sys.modules.items())
            if name == "ehcr" or name.startswith("ehcr.")
            for value in vars(module).values()
            if callable(getattr(value, "cache_clear", None))
            and getattr(value, "__module__", None) == name]


def clear_memos():
    for memo in loaded_memos():
        memo.cache_clear()


@pytest.fixture(autouse=True)
def fresh_memos():
    """No memo filled by an earlier test (harvest laws, grid scans, LP
    options or any memo added later), so a test that replaces a builder
    (``derive``, a detector) sees every column built through it, and a call
    count starts from a cold memo."""
    clear_memos()


@pytest.fixture(scope="session")
def table1_params() -> SystemParams:
    return params_from_dict(load_preset("paper_table1"))


@pytest.fixture(scope="session")
def testbench_params() -> SystemParams:
    return params_from_dict(load_preset("testbench"))


@pytest.fixture
def make_params():
    """Factory: testbench document with scalar/link overrides applied."""

    def _make(**overrides) -> SystemParams:
        doc = copy.deepcopy(load_preset("testbench"))
        links = overrides.pop("links", None)
        doc.update(overrides)
        if links:
            for name, entry in links.items():
                doc["links"][name].update(entry)
        return params_from_dict(doc)

    return _make
