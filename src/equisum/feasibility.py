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
of a rational combination of three square-root enclosures.  Every
certified decision here (the inequality, the threshold lemma and the
proof-step checks) evaluates its margin as integers (lo, hi, D) over one
common denominator and resolves its sign in one integer loop, `_refine`,
against the fixed precision floor `realnum.DEFAULT_EPS_FLOOR`.
`check_inequality` is the one entry for the inequality: its verdict carries
the deciding margin as those integers, and the sweep, `check` and
`construct` all read it.  No decision builds an `Enclosure`, and none a
`Fraction` beyond the radicand of each cached square root.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .geometry import circumradius_sq
from .realnum import DEFAULT_EPS_FLOOR, DEFAULT_EPS_START, Enclosure, Sign, enclose_sqrt, sqrt_bracket

Margin = tuple[int, int, int]  # (lo, hi, D): the enclosure [lo/D, hi/D], D > 0
_START, _FLOOR = DEFAULT_EPS_START.denominator, DEFAULT_EPS_FLOOR.denominator  # both numerators are 1


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


class Parameters(NamedTuple):
    """Derived block parameters of a pair b > a >= 2; `derive_parameters`
    builds them, and tests check its identities over every sweep-60 pair."""

    a: int
    b: int
    c: int
    alpha: int
    beta: int


class FeasibilityVerdict(NamedTuple):
    """Classification of a pair (a, b), with certified margin where relevant.

    `margin` is the integer triple (lo, hi, D), D > 0, on which the
    decision was made: [lo/D, hi/D] encloses g(c)^2 minus the left-hand
    side.  INEQUALITY_HOLDS is only issued on a certified strictly positive
    margin (a certified zero would surface as INDETERMINATE, never as a
    guess).
    """

    kind: VerdictKind
    params: Parameters | None = None
    margin: Margin | None = None

    @property
    def conclusive(self) -> bool:
        return self.kind is not VerdictKind.INDETERMINATE


def derive_parameters(a: int, b: int) -> Parameters:
    if not (b > a >= 2):
        raise ValueError(f"derive_parameters requires b > a >= 2, got a={a} b={b}")
    c = 1 + b // (a + 1)
    beta = b % (a + 1)
    return Parameters(a, b, c, a + 1 - beta, beta)


# f_enclosure and g_enclosure decide nothing: benchmarks/spans.py looks up
# their names and reads their caches, and the tests compose them as the
# reference for the integer margins below.
@lru_cache(maxsize=None)
def f_enclosure(n: int, eps: Fraction) -> Enclosure:
    """Enclosure of f(n) = 1 - sqrt(n/(n+1)) with width <= eps."""
    if n < 1:
        raise ValueError(f"f_enclosure: n must be >= 1, got {n}")
    return Enclosure.point(1) - enclose_sqrt(Fraction(n, n + 1), eps)


def g_radicand(c: int) -> Fraction:
    """Exact radicand (1/2)((c-1)/c + c/(c+1)) of g(c)."""
    return Fraction(1, 2) * (Fraction(c - 1, c) + Fraction(c, c + 1))


@lru_cache(maxsize=None)
def g_enclosure(c: int, eps: Fraction) -> Enclosure:
    """Enclosure of g(c) with width <= eps; the radicand is exact."""
    if c < 2:
        raise ValueError(f"g_enclosure: c must be >= 2, got {c}")
    return Enclosure.point(1) - enclose_sqrt(g_radicand(c), eps)


def _one_minus_sqrt_squared(q: Fraction, m: int) -> Margin:
    """(lo^2, hi^2, D^2) for the enclosure [lo, hi]/D of 1 - sqrt(q) that
    `Enclosure.point(1) - enclose_sqrt(q, eps)` gives when m = ceil(1/eps).

    Requires 0 <= q < 1: then the root's upper bracket is <= D, so lo >= 0
    and squaring the endpoints squares the interval.
    """
    s_lo, s_hi, den = sqrt_bracket(q, m)
    return (den - s_hi) ** 2, (den - s_lo) ** 2, den * den


# Integer forms of f_enclosure and g_enclosure for every decision.  They are
# keyed on the integer accuracy m (2^(k+3) for the sweep's step eps = 2^-k),
# so a lookup hashes integers: hashing a Fraction costs as much as the
# arithmetic.
@lru_cache(maxsize=None)
def _f_squared(n: int, m: int) -> Margin:
    return _one_minus_sqrt_squared(Fraction(n, n + 1), m)


@lru_cache(maxsize=None)
def _g_squared(c: int, m: int) -> Margin:
    return _one_minus_sqrt_squared(g_radicand(c), m)


def _squares_margin(x: Margin, terms: tuple[tuple[int, int, Margin], ...]) -> Margin:
    """(lo, hi, D) of x - sum of w y over one common integer denominator.

    x and each y are margins (lo, hi, D); each term is (num, den, y) with
    weight w = num/den >= 0.  lo/D and hi/D equal, as rationals, the
    endpoints of the `Enclosure` composition x minus each y.scale(w); nothing
    is reduced, so no gcd is taken.
    """
    lo, hi, den = x
    for num, w_den, (y_lo, y_hi, y_den) in terms:
        t = w_den * y_den
        lo = lo * t - num * y_hi * den
        hi = hi * t - num * y_lo * den
        den *= t
    return lo, hi, den


def _refine(margin: Callable[..., Margin], arg: object, m: int) -> tuple[Sign, int, int, int]:
    """Sign of the real that margin(arg, m) encloses, and the deciding margin.
    m = parts * N for a start eps = 1/N and doubles per round: on integers,
    `sign_with_enclosure` halving eps, with the same tests in the same order."""
    while True:
        lo, hi, den = margin(arg, m)
        if lo > 0:
            return Sign.POSITIVE, lo, hi, den
        if hi < 0:
            return Sign.NEGATIVE, lo, hi, den
        if (hi - lo) * _FLOOR < den:  # width < DEFAULT_EPS_FLOOR
            return Sign.INDETERMINATE, lo, hi, den
        m *= 2


def _product(x: Margin, y: Margin) -> Margin:
    """(lo, hi, D) of the product of two nonnegative enclosures."""
    return x[0] * y[0], x[1] * y[1], x[2] * y[2]


def _accuracy(eps: Fraction, parts: int) -> int:
    """ceil(parts/eps): the `sqrt_bracket` accuracy m at which each
    component enclosure has width <= eps/parts."""
    return -(-parts * eps.denominator // eps.numerator)


def _inequality_margin(p: Parameters, m: int) -> Margin:
    """g(c)^2 - d_{alpha-1}^2 f(c-1)^2 - d_{beta-1}^2 f(c)^2 at accuracy m.

    d_m^2 = m/(2m+2), so d_{alpha-1}^2 is (alpha-1)/(2 alpha); with beta in
    {0, 1} the second simplex is empty or a point and has no term.
    """
    terms = ((p.alpha - 1, 2 * p.alpha, _f_squared(p.c - 1, m)),)
    if p.beta > 1:
        terms += ((p.beta - 1, 2 * p.beta, _f_squared(p.c, m)),)
    return _squares_margin(_g_squared(p.c, m), terms)


# inequality_margin decides nothing: benchmarks/spans.py traces its name and
# the tests compare it with the Enclosure composition.
def inequality_margin(p: Parameters, eps: Fraction) -> Enclosure:
    """Enclosure of the inequality's margin with components at eps/8; the
    squares and exact scalings keep its width below eps."""
    lo, hi, den = _inequality_margin(p, _accuracy(eps, 8))
    return Enclosure(Fraction(lo, den), Fraction(hi, den))


_KIND = {Sign.POSITIVE: VerdictKind.INEQUALITY_HOLDS, Sign.NEGATIVE: VerdictKind.INEQUALITY_FAILS}


def check_inequality(p: Parameters) -> FeasibilityVerdict:
    """Certified decision of the feasibility inequality for parameters p,
    with the margin (lo, hi, D) it was decided on.  Equality would come back
    INDETERMINATE; it is never silently coerced to holds or fails.
    """
    sign, lo, hi, den = _refine(_inequality_margin, p, 8 * _START)
    return FeasibilityVerdict(_KIND.get(sign, VerdictKind.INDETERMINATE), p, (lo, hi, den))


def classify(a: int, b: int) -> FeasibilityVerdict:
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
    return check_inequality(p)


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


def _certify(margin: Callable[[int, int], Margin], k: int, parts: int, start: int = _START) -> bool:
    """Certified sign of the real that margin(k, m) encloses at accuracy m.

    Components are requested at eps/parts on the refinement schedule from
    eps = 1/start.  True when the margin is certified positive, False when
    negative; a margin still undecided at the precision floor raises
    IndeterminateSignError.
    """
    sign = _refine(margin, k, parts * start)[0]
    if sign is Sign.INDETERMINATE:
        raise IndeterminateSignError(f"{margin.__name__} undecided at {k}")
    return sign is Sign.POSITIVE


def _lemma_margin(a: int, m: int) -> Margin:
    """g(a)^2 - ((a-1)/(a+1)) f(a-1)^2."""
    return _squares_margin(_g_squared(a, m), ((a - 1, a + 1, _f_squared(a - 1, m)),))


def _f_step_margin(n: int, m: int) -> Margin:
    """f(n)^2 - f(n+1)^2; both f are positive, so its sign is that of
    f(n) - f(n+1)."""
    return _squares_margin(_f_squared(n, m), ((1, 1, _f_squared(n + 1, m)),))


def _ratio_margin(c: int, m: int) -> Margin:
    """g(c+1)^2 f(c-1)^2 - g(c)^2 f(c)^2."""
    lhs = _product(_g_squared(c + 1, m), _f_squared(c - 1, m))
    return _squares_margin(lhs, ((1, 1, _product(_g_squared(c, m), _f_squared(c, m))),))


def _apex_margin(c: int, m: int) -> Margin:
    """g(c)^2 - (1/2) f(c-1)^2."""
    return _squares_margin(_g_squared(c, m), ((1, 2, _f_squared(c - 1, m)),))


def lemma_certificate(a: int) -> bool:
    """Certify the two facts behind the b >= a^2 + a threshold.

    (i)  ((a-1)/(a+1)) f(a-1)^2 < g(a)^2, via enclosures;
    (ii) the exact d^2 pair bound of `d2_pair_bound_holds`.
    Raises IndeterminateSignError if (i) reaches the precision floor.
    """
    if a < 2:
        raise ValueError(f"lemma_certificate: a must be >= 2, got {a}")
    return _certify(_lemma_margin, a, 8) and d2_pair_bound_holds(a)


def certified_f_decreasing(n: int) -> bool:
    """Certify f(n) > f(n+1) by separating the enclosures of their squares."""
    if n < 1:
        raise ValueError(f"certified_f_decreasing: n must be >= 1, got {n}")
    return _certify(_f_step_margin, n, 2)


def certified_ratio_increasing(c: int) -> bool:
    """Certify (g(c+1)/f(c))^2 > (g(c)/f(c-1))^2.

    Cross-multiplied to g(c+1)^2 f(c-1)^2 - g(c)^2 f(c)^2 > 0 so only
    products of nonnegative enclosures are needed.  The consecutive
    difference scales like 1/c^5, so refinement starts there instead of at
    the default.
    """
    if c < 2:
        raise ValueError(f"certified_ratio_increasing: c must be >= 2, got {c}")
    return _certify(_ratio_margin, c, 16, 8 * c**5)


def certified_apex_inequality(c: int) -> bool:
    """Certify f(c-1)^2 < 2 g(c)^2, the solvability of the single-apex
    offset in the beta in {1, a} constructions.

    The margin behaves like 1/(8 c^2), hence the c-dependent starting
    precision; the halving schedule below it is unchanged.
    """
    if c < 2:
        raise ValueError(f"certified_apex_inequality: c must be >= 2, got {c}")
    return _certify(_apex_margin, c, 8, 8 * c * c)
