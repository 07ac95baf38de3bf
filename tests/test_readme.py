"""The README's library example runs as written, so a change to the public
surface that breaks it fails the suite."""
import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block after the README's "Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    tau, threshold, mu_s, flagged = out.getvalue().split()
    assert 0.0 < float(tau) < 0.01 and float(threshold) > 0.0
    assert 0.0 < float(mu_s) <= 1.0
    assert flagged in ("True", "False")
