"""The names `equisum` exports, and where the reference arithmetic lives."""

import equisum
from equisum import realnum


def test_all_is_the_seven_names():
    assert equisum.__all__ == [
        "Sign",
        "check_inequality",
        "construct",
        "derive_parameters",
        "mixed_distance",
        "run_sweep",
        "verify_equilateral",
    ]
    assert all(callable(getattr(equisum, name)) for name in equisum.__all__)


def test_reference_arithmetic_resolves_in_realnum():
    for name in ("Enclosure", "enclose_sqrt", "sign_with_enclosure"):
        assert callable(getattr(realnum, name))
        assert name not in equisum.__all__
