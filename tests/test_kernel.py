"""The integer sqrt kernel and the integer margins against the Fraction
reference they replaced: equal enclosures, equal signs, equal artifacts."""

import hashlib
from fractions import Fraction
from math import isqrt

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pytest

from equisum.feasibility import (
    IndeterminateSignError,
    VerdictKind,
    _accuracy,
    _apex_margin,
    _certify,
    _f_squared,
    _f_step_margin,
    _inequality_margin,
    _lemma_margin,
    _ratio_margin,
    _refine,
    _squares_margin,
    check_inequality,
    derive_parameters,
    f_enclosure,
    g_enclosure,
    inequality_margin,
    lemma_applies,
    lemma_certificate,
)
from equisum.geometry import circumradius_sq
from equisum.realnum import DEFAULT_EPS_FLOOR, Enclosure, Sign, enclose_sqrt, sign_with_enclosure, sqrt_bracket
from equisum.sweep import (
    _decimal_str,
    emit_report_csv,
    emit_report_json,
    evaluate_pair,
    fraction_to_decimal_str,
    run_sweep,
)


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


def as_enclosure(margin) -> Enclosure:
    """The enclosure [lo/D, hi/D] of an integer margin (lo, hi, D)."""
    lo, hi, den = margin
    return Enclosure(Fraction(lo, den), Fraction(hi, den))


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


class TestProofStepMarginsMatchComposition:
    """Each integer margin equals, as rationals, the same margin composed
    from f_enclosure/g_enclosure with components at eps/parts, over the
    ranges of acceptance criteria 3 and 6."""

    @staticmethod
    def epsilons(start):
        # the check's own start (not dyadic for most arguments) and 2^-20
        return (start, Fraction(1, 2**20))

    def test_lemma(self):
        for a in range(2, 61):
            for eps in self.epsilons(Fraction(1, 3 * 2**20)):
                e = eps / 8
                lhs = f_enclosure(a - 1, e).square().scale(Fraction(a - 1, a + 1))
                composed = g_enclosure(a, e).square() - lhs
                assert as_enclosure(_lemma_margin(a, _accuracy(eps, 8))) == composed

    def test_apex(self):
        for c in range(2, 10**4 + 1):
            for eps in self.epsilons(Fraction(1, 8 * c * c)):
                e = eps / 8
                lhs = f_enclosure(c - 1, e).square().scale(Fraction(1, 2))
                composed = g_enclosure(c, e).square() - lhs
                assert as_enclosure(_apex_margin(c, _accuracy(eps, 8))) == composed

    def test_f_step(self):
        for n in range(1, 101):
            for eps in self.epsilons(Fraction(1, 3 * 2**20)):
                e = eps / 2
                composed = f_enclosure(n, e).square() - f_enclosure(n + 1, e).square()
                assert as_enclosure(_f_step_margin(n, _accuracy(eps, 2))) == composed

    def test_ratio(self):
        for c in range(2, 101):
            for eps in self.epsilons(Fraction(1, 8 * c**5)):
                e = eps / 16
                lhs = g_enclosure(c + 1, e).square() * f_enclosure(c - 1, e).square()
                rhs = g_enclosure(c, e).square() * f_enclosure(c, e).square()
                assert as_enclosure(_ratio_margin(c, _accuracy(eps, 16))) == lhs - rhs

    def test_exact_zero_margin_raises(self):
        def zero_margin(k, m):
            return 0, 0, 1

        with pytest.raises(IndeterminateSignError, match="zero_margin undecided at 5"):
            _certify(zero_margin, 5, 8)


KIND_OF_SIGN = {
    Sign.POSITIVE: VerdictKind.INEQUALITY_HOLDS,
    Sign.NEGATIVE: VerdictKind.INEQUALITY_FAILS,
    Sign.INDETERMINATE: VerdictKind.INDETERMINATE,
}


@st.composite
def main_case_pairs(draw):
    """Parameters of (a, b) with b > a >= 2, a <= 200 and beta not in
    {0, 1, a}, on both sides of the lemma threshold a^2 + a."""
    a = draw(st.integers(3, 200))
    p = derive_parameters(a, draw(st.integers(a + 1, 2 * (a * a + a))))
    assume(p.beta not in (0, 1, a))
    return p


class TestIntegerDecisionMatchesReference:
    """The integer refinement loop and the rendering of unreduced integers
    against `sign_with_enclosure` over the Fraction composition of
    f_enclosure/g_enclosure and `fraction_to_decimal_str` on the reduced
    endpoints: the same verdict, the same deciding enclosure, the same
    strings."""

    @staticmethod
    def assert_same(kind, lo, hi, den, sign, enc):
        assert kind is KIND_OF_SIGN[sign]
        assert as_enclosure((lo, hi, den)) == enc
        rendered = (_decimal_str(lo, den), _decimal_str(hi, den))
        assert rendered == (fraction_to_decimal_str(enc.lo), fraction_to_decimal_str(enc.hi))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(p=main_case_pairs())
    def test_decision_and_strings(self, p):
        sign, enc = sign_with_enclosure(lambda eps: composed_margin(p, eps))
        verdict = check_inequality(p)
        self.assert_same(verdict.kind, *verdict.margin, sign, enc)
        assert (verdict.kind, as_enclosure(verdict.margin)) == (KIND_OF_SIGN[sign], enc)
        if not lemma_applies(p.a, p.b):
            rec = evaluate_pair(p.a, p.b)
            strings = (fraction_to_decimal_str(enc.lo), fraction_to_decimal_str(enc.hi))
            assert (rec.verdict, rec.margin_lo, rec.margin_hi) == (verdict.kind.value, *strings)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(p=main_case_pairs())
    def test_coarse_start_refines(self, p):
        # at eps = 1/4 (m = 32) every margin straddles zero, so the loop
        # doubles m at least once before it decides
        first = _inequality_margin(p, 8 * 4)
        assert first[0] <= 0 <= first[1]
        sign, lo, hi, den = _refine(_inequality_margin, p, 8 * 4)
        assert den > first[2]
        ref_sign, enc = sign_with_enclosure(lambda eps: composed_margin(p, eps), eps_start=Fraction(1, 4))
        self.assert_same(KIND_OF_SIGN[sign], lo, hi, den, ref_sign, enc)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        n=st.integers(-(10**60), 10**60),
        d=st.integers(1, 10**60),
        k=st.integers(1, 10**40),
    )
    @example(n=-7, d=4, k=1)
    @example(n=-7, d=4, k=2**150)
    @example(n=1, d=3, k=9)
    @example(n=0, d=5, k=3)
    @example(n=1, d=10**12, k=6)
    @example(n=10**45, d=3, k=7)
    def test_unreduced_rendering(self, n, d, k):
        assert _decimal_str(k * n, k * d) == fraction_to_decimal_str(Fraction(n, d))

    def test_short_exact_results_stay_short(self):
        assert _decimal_str(-14, 8) == "-1.75"
        assert _decimal_str(3 * 2**100, 2**102) == "0.75"

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(n=st.integers(1, 10**6))
    def test_exact_zero_reaches_the_floor(self, n):
        # f(n)^2 - f(n)^2 is exactly 0: its enclosure shrinks around zero
        # until the integer floor test stops it, at the reference's round
        def zero(k, m):
            return _squares_margin(_f_squared(k, m), ((1, 1, _f_squared(k, m)),))

        sign, lo, hi, den = _refine(zero, n, 2 * 2**20)
        assert sign is Sign.INDETERMINATE and lo < 0 < hi
        assert Fraction(hi - lo, den) < DEFAULT_EPS_FLOOR

        def composed(eps):
            square = f_enclosure(n, eps / 2).square()
            return square - square

        ref_sign, enc = sign_with_enclosure(composed)
        assert ref_sign is Sign.INDETERMINATE
        assert as_enclosure((lo, hi, den)) == enc


class TestGoldenSweep:
    def test_sweep_2_30_digests(self):
        # digests of the Fraction-bisection implementation's artifacts; a
        # change to a verdict, a margin or the refinement schedule shows here
        report = run_sweep(2, 30)
        csv = hashlib.sha256(emit_report_csv(report).encode()).hexdigest()
        js = hashlib.sha256(emit_report_json(report).encode()).hexdigest()
        assert csv == "485117750d26776e23a613c7812e504162f3103e4331dc491498ee86009a97e8"
        assert js == "a5586c624435dc3f6c84d2bc767751ca825484d5acfbb034a3cd7f11f0f0a7d0"
