"""The suite's own configuration: a failing property test is reported as a
failure under ``filterwarnings = ["error"]``, not as an INTERNALERROR, and
no memo of ``ehcr`` carries state from one test to the next."""
from pathlib import Path

from conftest import clear_memos, loaded_memos
from test_optimizer import FAST_GRID

from ehcr import harvesting, numerics, optimizer
from ehcr.system_model import with_overrides

TESTS = Path(__file__).resolve().parent


def test_failing_property_test_is_reported(pytester, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(TESTS.parent / "src"))
    pytester.makeconftest((TESTS / "conftest.py").read_text("utf-8"))
    pytester.makeini('[pytest]\nfilterwarnings =\n    error\n')
    pytester.makepyfile(test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_after():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()


def test_fresh_memos_empties_every_memo(testbench_params):
    # the autouse fixture ran before this test; a tied search, whose LPs
    # numerics._solve_rung solves, fills the memos again (the rung options
    # and the threads' solvers among them), and the fixture's clearing
    # empties them
    memos = loaded_memos()
    known = [harvesting._laws, optimizer._scan, numerics._rung_options,
             numerics._solvers]
    assert set(known) <= set(memos)
    assert all(memo.cache_info().currsize == 0 for memo in memos)
    optimizer.optimize(with_overrides(testbench_params, rho=0.1), FAST_GRID,
                       "probabilistic")
    assert all(memo.cache_info().currsize > 0 for memo in known)
    clear_memos()
    assert all(memo.cache_info().currsize == 0 for memo in memos)
