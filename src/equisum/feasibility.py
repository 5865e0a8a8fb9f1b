"""Parameter derivation and certified feasibility decisions.

For b > a >= 2 put c = floor(1 + b/(a+1)), beta = b mod (a+1) and
alpha = a + 1 - beta.  The block construction needs, inside E^a, a regular
(alpha-1)-simplex of side f(c-1) and a regular (beta-1)-simplex of side
f(c) whose cross distances all equal g(c), where

    f(n) = 1 - sqrt(n/(n+1))
    g(c) = 1 - sqrt((1/2) ((c-1)/c + c/(c+1)))

That configuration exists iff

    d_{alpha-1}^2 f(c-1)^2 + d_{beta-1}^2 f(c)^2 <= g(c)^2,

with d_m^2 = m/(2m+2) the exact squared circumradius.  The d^2 factors are
exact rationals, so deciding the inequality reduces to the certified sign
of a rational combination of three square-root enclosures.  The sweep's
decisions (the inequality and the threshold lemma) evaluate that
combination on integers over one common denominator; the proof-step checks
compose `Enclosure`s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .geometry import circumradius_sq
from .realnum import (
    DEFAULT_EPS_FLOOR,
    Enclosure,
    Sign,
    enclose_sqrt,
    sign_with_enclosure,
    sqrt_bracket,
)


class IndeterminateSignError(Exception):
    """A certified comparison reached the precision floor undecided."""


class VerdictKind(enum.Enum):
    PROP1 = "Prop1"
    PROP2 = "Prop2"
    SWAP_AND_RECURSE = "SwapAndRecurse"
    BETA_TRIVIAL = "BetaTrivial"
    INEQUALITY_HOLDS = "InequalityHolds"
    INEQUALITY_FAILS = "InequalityFails"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Parameters:
    """Derived block parameters of a pair b > a >= 2; `derive_parameters`
    builds them, and tests check its identities over every sweep-60 pair."""

    a: int
    b: int
    c: int
    alpha: int
    beta: int


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Classification of a pair (a, b), with certified margin where relevant.

    `margin` encloses g(c)^2 minus the left-hand side; INEQUALITY_HOLDS is
    only issued on a certified strictly positive margin (a certified zero
    would surface as INDETERMINATE, never as a guess).
    """

    kind: VerdictKind
    params: Parameters | None = None
    margin: Enclosure | None = None

    @property
    def conclusive(self) -> bool:
        return self.kind is not VerdictKind.INDETERMINATE


def derive_parameters(a: int, b: int) -> Parameters:
    if not (b > a >= 2):
        raise ValueError(f"derive_parameters requires b > a >= 2, got a={a} b={b}")
    c = 1 + b // (a + 1)
    beta = b % (a + 1)
    return Parameters(a=a, b=b, c=c, alpha=a + 1 - beta, beta=beta)


# benchmarks/spans.py looks up this name and reads its cache
@lru_cache(maxsize=None)
def f_enclosure(n: int, eps: Fraction) -> Enclosure:
    """Enclosure of f(n) = 1 - sqrt(n/(n+1)) with width <= eps."""
    if n < 1:
        raise ValueError(f"f_enclosure: n must be >= 1, got {n}")
    return Enclosure.point(1) - enclose_sqrt(Fraction(n, n + 1), eps)


def g_radicand(c: int) -> Fraction:
    """Exact radicand (1/2)((c-1)/c + c/(c+1)) of g(c)."""
    return Fraction(1, 2) * (Fraction(c - 1, c) + Fraction(c, c + 1))


# benchmarks/spans.py looks up this name and reads its cache
@lru_cache(maxsize=None)
def g_enclosure(c: int, eps: Fraction) -> Enclosure:
    """Enclosure of g(c) with width <= eps; the radicand is exact."""
    if c < 2:
        raise ValueError(f"g_enclosure: c must be >= 2, got {c}")
    return Enclosure.point(1) - enclose_sqrt(g_radicand(c), eps)


def _one_minus_sqrt_squared(q: Fraction, m: int) -> tuple[int, int, int]:
    """(lo^2, hi^2, D^2) for the enclosure [lo, hi]/D of 1 - sqrt(q) that
    `Enclosure.point(1) - enclose_sqrt(q, eps)` gives when m = ceil(1/eps).

    Requires 0 <= q < 1: then the root's upper bracket is <= D, so lo >= 0
    and squaring the endpoints squares the interval.
    """
    s_lo, s_hi, den = sqrt_bracket(q, m)
    return (den - s_hi) ** 2, (den - s_lo) ** 2, den * den


# Integer forms of f_enclosure and g_enclosure for the sweep.  They are
# keyed on the integer accuracy m (2^(k+3) at schedule step eps = 2^-k), so a
# lookup hashes integers: hashing a Fraction costs as much as the arithmetic.
@lru_cache(maxsize=None)
def _f_squared(n: int, m: int) -> tuple[int, int, int]:
    return _one_minus_sqrt_squared(Fraction(n, n + 1), m)


@lru_cache(maxsize=None)
def _g_squared(c: int, m: int) -> tuple[int, int, int]:
    return _one_minus_sqrt_squared(g_radicand(c), m)


def _squares_margin(
    g: tuple[int, int, int], terms: tuple[tuple[int, int, tuple[int, int, int]], ...]
) -> Enclosure:
    """Enclosure of g^2 - sum of w f^2 over one common integer denominator.

    g and each f are (lo^2, hi^2, D^2) of nonnegative enclosures; each term
    is (num, den, f) with weight w = num/den >= 0.  The endpoints equal, as
    rationals, those of the `Enclosure` composition g.square() minus each
    f.square().scale(w); only the two final endpoints become Fractions.
    """
    lo, hi, den = g
    for num, w_den, (f_lo, f_hi, f_den) in terms:
        t = w_den * f_den
        lo = lo * t - num * f_hi * den
        hi = hi * t - num * f_lo * den
        den *= t
    return Enclosure(Fraction(lo, den), Fraction(hi, den))


def inequality_margin(p: Parameters, eps: Fraction) -> Enclosure:
    """Enclosure of g(c)^2 - d_{alpha-1}^2 f(c-1)^2 - d_{beta-1}^2 f(c)^2.

    Component enclosures are requested at eps/8; the squares and the exact
    rational scalings keep the combined width below eps for all arguments
    this package evaluates.  d_m^2 = m/(2m+2), so d_{alpha-1}^2 is
    (alpha-1)/(2 alpha); with beta in {0, 1} the second simplex is empty or
    a point and has no term.
    """
    m = -(-8 * eps.denominator // eps.numerator)  # ceil(1/(eps/8))
    terms = ((p.alpha - 1, 2 * p.alpha, _f_squared(p.c - 1, m)),)
    if p.beta > 1:
        terms += ((p.beta - 1, 2 * p.beta, _f_squared(p.c, m)),)
    return _squares_margin(_g_squared(p.c, m), terms)


def check_inequality(
    p: Parameters, eps_floor: Fraction | int = DEFAULT_EPS_FLOOR
) -> FeasibilityVerdict:
    """Certified decision of the feasibility inequality for parameters p.

    Equality would come back INDETERMINATE (and is reported as such); it is
    never silently coerced to holds or fails.
    """
    sign, enc = sign_with_enclosure(lambda eps: inequality_margin(p, eps), eps_floor)
    if sign is Sign.POSITIVE:
        kind = VerdictKind.INEQUALITY_HOLDS
    elif sign is Sign.NEGATIVE:
        kind = VerdictKind.INEQUALITY_FAILS
    else:
        kind = VerdictKind.INDETERMINATE
    return FeasibilityVerdict(kind=kind, params=p, margin=enc)


def classify(
    a: int, b: int, eps_floor: Fraction | int = DEFAULT_EPS_FLOOR
) -> FeasibilityVerdict:
    """Dispatch a pair (a, b) to the construction that covers it.

    a = 1 or b = 1 -> PROP1; a = b -> PROP2; a > b -> SWAP_AND_RECURSE
    (the space is isometric to the swapped one, so callers rebuild for
    (b, a)); beta in {0, 1, a} -> BETA_TRIVIAL; otherwise the certified
    inequality decides.
    """
    if a < 1 or b < 1:
        raise ValueError(f"classify requires a, b >= 1, got a={a} b={b}")
    if a == 1 or b == 1:
        return FeasibilityVerdict(kind=VerdictKind.PROP1)
    if a == b:
        return FeasibilityVerdict(kind=VerdictKind.PROP2)
    if a > b:
        return FeasibilityVerdict(kind=VerdictKind.SWAP_AND_RECURSE)
    p = derive_parameters(a, b)
    if p.beta in (0, 1, a):
        return FeasibilityVerdict(kind=VerdictKind.BETA_TRIVIAL, params=p)
    return check_inequality(p, eps_floor)


def lemma_applies(a: int, b: int) -> bool:
    """True when b >= a^2 + a, the regime the threshold lemma covers."""
    if not (b > a >= 2):
        raise ValueError(f"lemma_applies requires b > a >= 2, got a={a} b={b}")
    return b >= a * a + a


def d2_pair_bound_holds(a: int) -> bool:
    """Exact check: d_{alpha-1}^2 + d_{beta-1}^2 <= (a-1)/(a+1) for all
    beta in [2, a-1] with alpha = a + 1 - beta.

    Pure rational arithmetic; equality is attained at beta = (a+1)/2 when
    a is odd, so the comparison must be <=.
    """
    if a < 2:
        raise ValueError(f"d2_pair_bound_holds: a must be >= 2, got {a}")
    bound = Fraction(a - 1, a + 1)
    return all(
        circumradius_sq(a - beta) + circumradius_sq(beta - 1) <= bound
        for beta in range(2, a)
    )


def lemma_certificate(a: int, eps_floor: Fraction | int = DEFAULT_EPS_FLOOR) -> bool:
    """Certify the two facts behind the b >= a^2 + a threshold.

    (i)  ((a-1)/(a+1)) f(a-1)^2 < g(a)^2, via enclosures;
    (ii) the exact d^2 pair bound of `d2_pair_bound_holds`.
    Raises IndeterminateSignError if (i) reaches the precision floor.
    """
    if a < 2:
        raise ValueError(f"lemma_certificate: a must be >= 2, got {a}")

    def margin(eps: Fraction) -> Enclosure:
        m = -(-8 * eps.denominator // eps.numerator)  # components at eps/8
        return _squares_margin(_g_squared(a, m), ((a - 1, a + 1, _f_squared(a - 1, m)),))

    sign, _ = sign_with_enclosure(margin, eps_floor)
    if sign is Sign.INDETERMINATE:
        raise IndeterminateSignError(f"lemma_certificate undecided at a={a}")
    return sign is Sign.POSITIVE and d2_pair_bound_holds(a)


def certified_f_decreasing(n: int, eps_floor: Fraction | int = DEFAULT_EPS_FLOOR) -> bool:
    """Certify f(n) > f(n+1) by separating the two enclosures."""
    if n < 1:
        raise ValueError(f"certified_f_decreasing: n must be >= 1, got {n}")

    def diff(eps: Fraction) -> Enclosure:
        return f_enclosure(n, eps / 2) - f_enclosure(n + 1, eps / 2)

    sign, _ = sign_with_enclosure(diff, eps_floor)
    if sign is Sign.INDETERMINATE:
        raise IndeterminateSignError(f"f monotonicity undecided at n={n}")
    return sign is Sign.POSITIVE


def certified_ratio_increasing(c: int, eps_floor: Fraction | int = DEFAULT_EPS_FLOOR) -> bool:
    """Certify (g(c+1)/f(c))^2 > (g(c)/f(c-1))^2.

    Cross-multiplied to g(c+1)^2 f(c-1)^2 - g(c)^2 f(c)^2 > 0 so only
    products of enclosures are needed.  The consecutive difference scales
    like 1/c^5, so refinement starts there instead of at the default.
    """
    if c < 2:
        raise ValueError(f"certified_ratio_increasing: c must be >= 2, got {c}")

    def diff(eps: Fraction) -> Enclosure:
        e = eps / 16
        lhs = g_enclosure(c + 1, e).square() * f_enclosure(c - 1, e).square()
        rhs = g_enclosure(c, e).square() * f_enclosure(c, e).square()
        return lhs - rhs

    sign, _ = sign_with_enclosure(diff, eps_floor, eps_start=Fraction(1, 8 * c**5))
    if sign is Sign.INDETERMINATE:
        raise IndeterminateSignError(f"ratio monotonicity undecided at c={c}")
    return sign is Sign.POSITIVE


def certified_apex_inequality(c: int, eps_floor: Fraction | int = DEFAULT_EPS_FLOOR) -> bool:
    """Certify f(c-1)^2 < 2 g(c)^2, the solvability of the single-apex
    offset in the beta in {1, a} constructions.

    The margin behaves like 1/(4 c^2), hence the c-dependent starting
    precision; the halving schedule below it is unchanged.
    """
    if c < 2:
        raise ValueError(f"certified_apex_inequality: c must be >= 2, got {c}")

    def diff(eps: Fraction) -> Enclosure:
        e = eps / 8
        return g_enclosure(c, e).square().scale(2) - f_enclosure(c - 1, e).square()

    sign, _ = sign_with_enclosure(diff, eps_floor, eps_start=Fraction(1, 8 * c * c))
    if sign is Sign.INDETERMINATE:
        raise IndeterminateSignError(f"apex inequality undecided at c={c}")
    return sign is Sign.POSITIVE
