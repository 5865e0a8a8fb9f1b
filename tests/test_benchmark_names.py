"""The names benchmarks/spans.py looks up on equisum still resolve.

The traced benchmark run (`benchmarks/run.py --trace 1`) wraps functions by
module and name, reads two lru_caches and counts `Enclosure` instances
through `__post_init__`.  Deleting any of these breaks that run; this test
says so in milliseconds.  Nothing under benchmarks/ is edited.
"""

import importlib
import sys
from pathlib import Path

import pytest

import equisum

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_traced_functions_resolve(spans):
    for module in spans.MODULES:
        importlib.import_module(f"equisum.{module}")
    missing = [
        f"{module}.{name}"
        for module, name in spans.TRACED
        if not callable(getattr(getattr(equisum, module), name, None))
    ]
    assert missing == []


def test_counters_resolve():
    assert callable(equisum.feasibility.f_enclosure.cache_info)
    assert callable(equisum.feasibility.g_enclosure.cache_info)
    assert callable(equisum.realnum.Enclosure.__post_init__)
