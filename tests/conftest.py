import copy

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
