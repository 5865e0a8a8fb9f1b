"""The sweep and `check` read one verdict: for the same pair, the sweep
record and the `check` JSON give the same kind and the same margin strings."""

import contextlib
import io
import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from equisum import cli
from equisum.feasibility import derive_parameters
from equisum.sweep import evaluate_pair

FAILING = [(28, 40)] + [(29, b) for b in range(39, 45)] + [(30, b) for b in range(40, 48)]
GOLDEN_CHECK = [(28, 40), (28, 41), (29, 39), (29, 44), (30, 47), (27, 39)]


def check_json(a: int, b: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["check", "--a", str(a), "--b", str(b)]) == cli.EXIT_OK
    return json.loads(out.getvalue())


def assert_same_verdict(a: int, b: int) -> None:
    rec = evaluate_pair(a, b)
    assert rec.margin_lo is not None and rec.margin_hi is not None
    fields = ("kind", "margin_lo", "margin_hi")
    expected = dict(zip(fields, (rec.verdict, rec.margin_lo, rec.margin_hi)))
    assert {k: check_json(a, b)[k] for k in fields} == expected
    # the swapped pair resolves to the same verdict
    assert {k: check_json(b, a)["resolved"][k] for k in fields} == expected


def test_fifteen_failing_pairs():
    assert len(FAILING) == 15
    for a, b in FAILING:
        assert evaluate_pair(a, b).verdict == "InequalityFails"
        assert_same_verdict(a, b)


@pytest.mark.parametrize("a, b", GOLDEN_CHECK)
def test_golden_check_pairs(a, b):
    assert_same_verdict(a, b)


@st.composite
def decided_pairs(draw):
    """(a, b) with 2 <= a <= 60, a < b < a^2 + a and beta not in {0, 1, a}:
    the pairs the sweep decides itself."""
    a = draw(st.integers(3, 60))
    b = draw(st.integers(a + 1, a * a + a - 1))
    assume(derive_parameters(a, b).beta not in (0, 1, a))
    return a, b


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pair=decided_pairs())
def test_main_case_pairs(pair):
    assert_same_verdict(*pair)
