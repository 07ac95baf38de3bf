"""The suite's own configuration: a failing property test is reported as a
failure under ``filterwarnings = ["error"]``, not as an INTERNALERROR."""
from pathlib import Path

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
