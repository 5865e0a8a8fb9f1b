"""Each demo script runs to the end and prints its narrative, the same on
every run."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert [d.name for d in DEMOS] == [
        "certified_arithmetic.py",
        "equilateral_constructions.py",
        "feasibility_boundary.py",
    ]


def run_demo(demo: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        runpy.run_path(str(demo), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    assert run_demo(demo).strip()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_repeats(demo):
    assert run_demo(demo) == run_demo(demo)
