"""The integer sqrt kernel and the integer margins against the Fraction
reference they replaced: equal enclosures, equal signs, equal artifacts."""

import hashlib
from fractions import Fraction
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from equisum.feasibility import (
    derive_parameters,
    f_enclosure,
    g_enclosure,
    inequality_margin,
    lemma_certificate,
)
from equisum.geometry import circumradius_sq
from equisum.realnum import Enclosure, Sign, enclose_sqrt, sign_with_enclosure, sqrt_bracket
from equisum.sweep import emit_report_csv, emit_report_json, run_sweep


def bisection_sqrt(q, eps) -> Enclosure:
    """Reference: the isqrt bracket of width 1/d halved until width <= eps."""
    q = Fraction(q)
    eps = Fraction(eps)
    if q == 0:
        return Enclosure.point(0)
    n, d = q.numerator, q.denominator
    s = isqrt(n * d)
    if s * s == n * d:
        return Enclosure.point(Fraction(s, d))
    lo = Fraction(s, d)
    hi = Fraction(s + 1, d)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if mid * mid <= q:
            lo = mid
        else:
            hi = mid
    return Enclosure(lo, hi)


def composed_margin(p, eps) -> Enclosure:
    """Reference: the inequality margin as a composition of Enclosures."""
    e = eps / 8
    margin = g_enclosure(p.c, e).square()
    margin = margin - f_enclosure(p.c - 1, e).square().scale(circumradius_sq(p.alpha - 1))
    if p.beta >= 1:
        margin = margin - f_enclosure(p.c, e).square().scale(circumradius_sq(p.beta - 1))
    return margin


def composed_lemma_sign(a: int) -> Sign:
    """Reference: the sign of part (i) of the lemma certificate."""

    def margin(eps):
        e = eps / 8
        lhs = f_enclosure(a - 1, e).square().scale(Fraction(a - 1, a + 1))
        return g_enclosure(a, e).square() - lhs

    return sign_with_enclosure(margin)[0]


class TestEncloseSqrtMatchesBisection:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        q=st.fractions(min_value=0, max_value=10**12, max_denominator=10**12),
        eps=st.fractions(min_value=Fraction(1, 2**80), max_value=10, max_denominator=2**80),
    )
    def test_arbitrary_rationals(self, q, eps):
        assert enclose_sqrt(q, eps) == bisection_sqrt(q, eps)

    def test_schedule_and_proof_step_starts(self):
        # the refinement schedule 2^-k and the non-dyadic starts 1/(8c^5)
        # and 1/(8c^2) of the proof-step checks, on the radicands they use
        for c in range(2, 40):
            radicands = (Fraction(c - 1, c), Fraction(c, c + 1), Fraction(2 * c * c - 1, 2 * c * (c + 1)))
            starts = (Fraction(1, 2**20), Fraction(1, 8 * c**5), Fraction(1, 8 * c * c))
            for q in radicands:
                for start in starts:
                    for k in (3, 4, 5, 9):
                        eps = start / 2**k
                        assert enclose_sqrt(q, eps) == bisection_sqrt(q, eps)

    def test_bracket_is_tight_and_exact_on_squares(self):
        lo, hi, den = sqrt_bracket(Fraction(1, 2), 2**30)
        assert (hi - lo, den) == (1, 2**30)  # 2 * 2^29 >= 2^30
        assert lo * lo * 2 < den * den < hi * hi * 2
        assert sqrt_bracket(Fraction(9, 16), 100) == (96, 96, 128)


class TestIntegerMarginMatchesComposition:
    EPSILONS = (Fraction(1, 2**20), Fraction(1, 2**21), Fraction(1, 2**48), Fraction(1, 3 * 2**20))

    def test_main_case_sample(self):
        checked = 0
        for a in range(2, 61, 3):
            for b in range(a + 1, a * a + a, 7):
                p = derive_parameters(a, b)
                if p.beta in (0, 1, a):
                    continue
                for eps in self.EPSILONS:
                    assert inequality_margin(p, eps) == composed_margin(p, eps)
                    checked += 1
        assert checked > 1000

    def test_boundary_pairs(self):
        for a, b in [(28, 40), (28, 41), (29, 39), (29, 44), (30, 47), (27, 39)]:
            p = derive_parameters(a, b)
            assert inequality_margin(p, Fraction(1, 2**20)) == composed_margin(p, Fraction(1, 2**20))

    def test_beta_zero_and_one_terms(self):
        for a, b in [(2, 3), (2, 4), (4, 9), (3, 7), (5, 11), (5, 12)]:
            p = derive_parameters(a, b)
            assert p.beta in (0, 1, a)
            assert inequality_margin(p, Fraction(1, 2**48)) == composed_margin(p, Fraction(1, 2**48))

    def test_lemma_certificate_sign(self):
        for a in range(2, 61):
            assert lemma_certificate(a) == (composed_lemma_sign(a) is Sign.POSITIVE)


class TestGoldenSweep:
    def test_sweep_2_30_digests(self):
        # digests of the Fraction-bisection implementation's artifacts; a
        # change to a verdict, a margin or the refinement schedule shows here
        report = run_sweep(2, 30)
        csv = hashlib.sha256(emit_report_csv(report).encode()).hexdigest()
        js = hashlib.sha256(emit_report_json(report).encode()).hexdigest()
        assert csv == "485117750d26776e23a613c7812e504162f3103e4331dc491498ee86009a97e8"
        assert js == "a5586c624435dc3f6c84d2bc767751ca825484d5acfbb034a3cd7f11f0f0a7d0"
