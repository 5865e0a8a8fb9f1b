"""Equilateral sets in l1 sums of Euclidean spaces.

Explicit constructions of a+b+1 equidistant points in E^a (+)_1 E^b,
binary64 verification, and certified exact-arithmetic decisions of the
feasibility inequality that governs the main construction.  The names
below are the public API; everything else is importable from its module,
such as the reference Enclosure arithmetic in `equisum.realnum`.
"""

from .constructions import construct
from .feasibility import check_inequality, derive_parameters
from .mixednorm import mixed_distance, verify_equilateral
from .realnum import Sign
from .sweep import run_sweep

__all__ = [
    "Sign",
    "check_inequality",
    "construct",
    "derive_parameters",
    "mixed_distance",
    "run_sweep",
    "verify_equilateral",
]

__version__ = "0.1.0"
