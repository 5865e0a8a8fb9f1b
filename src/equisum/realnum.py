"""Exact rational arithmetic and certified interval enclosures.

Every quantity here is either a `fractions.Fraction` (exact) or an
`Enclosure`, a closed rational interval guaranteed to contain a real value.
Because the endpoints are exact rationals, interval arithmetic needs no
rounding step: endpoint arithmetic is itself exact, so containment is
preserved by construction.  Sign decisions about irrational expressions are
made by shrinking enclosures until zero is excluded; only a true zero ever
reaches the precision floor, and that is reported as Indeterminate rather
than guessed.  `sign_with_enclosure` decides so for any enclosure producer;
`feasibility` runs the same schedule and floor on integers, and the tests
hold its decisions to this reference.

A square root is bracketed by one integer square root, on the grid of
spacing 1/(d 2^j): sqrt(n/d) lies in [k, k+1]/(d 2^j) with k = isqrt(n d 4^j).
This is the midpoint-radius idea of Arb (Johansson, IEEE TC 66(8), 2017)
reduced to exact integers.  `sqrt_bracket` returns the integers, so that a
caller can combine several roots over one common denominator and build a
`Fraction` only for the result.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable

# Default refinement schedule: start at 2^-20 and halve per round.  The
# precision floor exists only so that a true equality terminates; every sign
# decision actually exercised by this package resolves far above it.
DEFAULT_EPS_START = Fraction(1, 2**20)
DEFAULT_EPS_FLOOR = Fraction(1, 2**200)


class Sign(enum.Enum):
    """Outcome of a certified sign decision."""

    POSITIVE = 1
    NEGATIVE = -1
    INDETERMINATE = 0


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] with exact rational endpoints.

    Invariant: lo <= hi, and the represented real value r satisfies
    lo <= r <= hi.  All operations return enclosures that contain the exact
    result of the corresponding real operation applied to any reals drawn
    from the operands.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"invalid enclosure: lo={self.lo} > hi={self.hi}")

    @classmethod
    def point(cls, value: Fraction | int) -> Enclosure:
        """Degenerate enclosure of an exactly known rational."""
        v = Fraction(value)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value: Fraction | int) -> bool:
        return self.lo <= value <= self.hi

    def __add__(self, other: Enclosure) -> Enclosure:
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: Enclosure) -> Enclosure:
        return Enclosure(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> Enclosure:
        return Enclosure(-self.hi, -self.lo)

    def __mul__(self, other: Enclosure) -> Enclosure:
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Enclosure(min(products), max(products))

    def scale(self, factor: Fraction | int) -> Enclosure:
        """Exact multiplication by a rational scalar."""
        f = Fraction(factor)
        if f >= 0:
            return Enclosure(self.lo * f, self.hi * f)
        return Enclosure(self.hi * f, self.lo * f)

    def square(self) -> Enclosure:
        """Tight interval square (unlike self * self when 0 is inside)."""
        if self.lo >= 0:
            return Enclosure(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Enclosure(self.hi * self.hi, self.lo * self.lo)
        return Enclosure(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def __repr__(self) -> str:
        return f"Enclosure({self.lo}, {self.hi})"


def sqrt_bracket(q: Fraction, m: int) -> tuple[int, int, int]:
    """Integers (lo, hi, D) with lo/D <= sqrt(q) <= hi/D and D >= m >= 1.

    D = d 2^j for q = n/d in lowest terms, with j >= 0 the smallest level at
    which d 2^j >= m, so the bracket is the coarsest of the grids 1/(d 2^j)
    that is at least as fine as 1/m.  lo = isqrt(n d 4^j), so lo/D is the
    largest grid point whose square is <= q; hi = lo + 1, or hi = lo when q
    is the square of a grid point.
    """
    if q < 0:
        raise ValueError(f"sqrt_bracket: negative radicand {q}")
    n, d = q.numerator, q.denominator
    j = (-(-m // d) - 1).bit_length()  # smallest j >= 0 with 2^j >= ceil(m/d)
    scaled = n * d << 2 * j
    lo = isqrt(scaled)
    return lo, lo if lo * lo == scaled else lo + 1, d << j


def enclose_sqrt(q: Fraction | int, eps: Fraction | int) -> Enclosure:
    """Enclosure of sqrt(q) with nonnegative endpoints and width <= eps.

    The enclosure is `sqrt_bracket` at m = ceil(1/eps): the grid 1/(d 2^j)
    with the largest spacing <= eps, and on it the two neighbouring points
    around the root.  Soundness, lo^2 <= q <= hi^2, is a property of the
    integer square root, so it holds without any rounding argument.  This is
    exactly the interval that bisecting [isqrt(nd)/d, (isqrt(nd)+1)/d] until
    its width is <= eps would return.  Perfect squares (including 0) collapse
    to a zero-width enclosure.
    """
    q = Fraction(q)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"enclose_sqrt: eps must be positive, got {eps}")
    lo, hi, den = sqrt_bracket(q, -(-eps.denominator // eps.numerator))
    return Enclosure(Fraction(lo, den), Fraction(hi, den))


def sign_with_enclosure(
    value_at: Callable[[Fraction], Enclosure],
    eps_floor: Fraction | int = DEFAULT_EPS_FLOOR,
    eps_start: Fraction | int = DEFAULT_EPS_START,
) -> tuple[Sign, Enclosure]:
    """Certified sign of a real given an enclosure producer.

    `value_at(eps)` must return an enclosure of one fixed real whose width
    shrinks toward zero as eps does.  The request precision is halved per
    round until zero is excluded; if the enclosure width drops below
    `eps_floor` with zero still inside, the answer is Indeterminate together
    with the final (tiny) enclosure as evidence.
    """
    eps = Fraction(eps_start)
    floor = Fraction(eps_floor)
    if eps <= 0 or floor <= 0:
        raise ValueError("eps_start and eps_floor must be positive")
    while True:
        enc = value_at(eps)
        # a Fraction's denominator is positive: its sign is its numerator's
        if enc.lo.numerator > 0:
            return Sign.POSITIVE, enc
        if enc.hi.numerator < 0:
            return Sign.NEGATIVE, enc
        if enc.width < floor:
            return Sign.INDETERMINATE, enc
        eps = eps / 2
