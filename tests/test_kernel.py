"""The integer sqrt kernel and the integer margins against the Fraction
reference they replaced: equal enclosures, equal signs, equal artifacts."""

import hashlib
from fractions import Fraction
from math import isqrt

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equisum import feasibility
from equisum.feasibility import (
    VerdictKind,
    _accuracy,
    _apex_margin,
    _f_step_margin,
    _inequality_margin,
    _lemma_margin,
    _ratio_margin,
    _refine,
    _squares,
    certified_apex_inequality,
    certified_f_decreasing,
    certified_ratio_increasing,
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
    emit_report_csv,
    emit_report_json,
    evaluate_pair,
    fraction_to_decimal_str,
    margin_strings,
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

    def test_exact_zero_margin_is_false(self, monkeypatch):
        # a margin the floor cannot separate from zero certifies nothing:
        # every certificate answers False, and none raises
        certificates = {
            "_f_step_margin": certified_f_decreasing,
            "_ratio_margin": certified_ratio_increasing,
            "_apex_margin": certified_apex_inequality,
            "_lemma_margin": lemma_certificate.__wrapped__,
        }
        for margin, certificate in certificates.items():
            assert certificate(5) is True
            with monkeypatch.context() as patch:
                patch.setattr(feasibility, margin, lambda k, m: (0, 0, 1))
                assert certificate(5) is False


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
        rendered = margin_strings((lo, hi, den))
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
    @example(p=derive_parameters(57, 172))  # decided at m = 32: (1191444480, ...)
    @example(p=derive_parameters(4, 17))  # straddles zero at m = 32
    def test_coarse_start_refines(self, p):
        # from eps = 1/4 (m = 32) the loop doubles m while the margin
        # straddles zero; some margins are already decided at that start
        first = _inequality_margin(p, 8 * 4)
        sign, lo, hi, den = _refine(_inequality_margin, p, 8 * 4)
        if first[0] <= 0 <= first[1]:
            assert den > first[2]
        else:
            assert (lo, hi, den) == first
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
        reduced = fraction_to_decimal_str(Fraction(n, d))
        assert margin_strings((k * n, k * n, k * d)) == (reduced, reduced)

    def test_short_exact_results_stay_short(self):
        assert margin_strings((-14, -14, 8)) == ("-1.75", "-1.75")
        assert margin_strings((3 * 2**100, 3 * 2**100, 2**102)) == ("0.75", "0.75")

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(n=st.integers(1, 10**6))
    def test_exact_zero_reaches_the_floor(self, n):
        # f(n)^2 - f(n)^2 is exactly 0: its enclosure shrinks around zero
        # until the integer floor test stops it, at the reference's round
        def zero(k, m):
            _, _, lo, hi, _, _, den = _squares(k + 1, m)  # f(k)^2 over L(k+1)
            return lo - hi, hi - lo, den

        sign, lo, hi, den = _refine(zero, n, 2 * 2**20)
        assert sign is Sign.INDETERMINATE and lo < 0 < hi
        assert Fraction(hi - lo, den) < DEFAULT_EPS_FLOOR

        def composed(eps):
            square = f_enclosure(n, eps / 2).square()
            return square - square

        ref_sign, enc = sign_with_enclosure(composed)
        assert ref_sign is Sign.INDETERMINATE
        assert as_enclosure((lo, hi, den)) == enc


@st.composite
def wide_main_case_pairs(draw):
    """Parameters of (a, b) with b > a >= 2, a <= 10^6 and beta not in
    {0, 1, a}, on both sides of the lemma threshold a^2 + a."""
    a = draw(st.integers(3, 10**6))
    p = derive_parameters(a, draw(st.integers(a + 1, 2 * (a * a + a))))
    assume(p.beta not in (0, 1, a))
    return p


class TestMarginOverTheLcm:
    """Every margin sits over the lcm L of one table's three squared bracket
    denominators (the inequality's times 2 alpha beta, the ratio's over two
    tables): the Enclosure composition's rational, in integers the product
    of those denominators would overflow."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(p=wide_main_case_pairs())
    @example(p=derive_parameters(28, 40))
    @example(p=derive_parameters(10**6, 10**12 + 3 * 10**6 + 5))
    def test_same_rational_over_a_small_denominator(self, p):
        c, alpha, beta = p.c, p.alpha, p.beta
        for k in (2, 20, 40, 120, 200):
            m = 8 * 2**k  # components at eps/8 for eps = 2^-k
            margin = _inequality_margin(p, m)
            assert as_enclosure(margin) == composed_margin(p, Fraction(1, 2**k))
            assert margin[2] <= 2 * alpha * beta * (4 * c * (c + 1) * m) ** 2
            assert _inequality_margin(p, m) == margin  # read back from the (c, m) cache

    # the lemma and proof-step margins read the same (c, m) tables; each sits
    # over at most a small multiple of m^2 (m^4 for the ratio's two tables)
    ARGUMENTS = st.integers(2, 10**6)

    @staticmethod
    def accuracies():
        # m = 8 * 2^k with the squared Enclosures f(n)^2 and g(c)^2 at
        # eps = 1/m, the accuracy at which the margin reads its table
        for k in (2, 20, 40, 120, 200):
            m = 8 * 2**k
            e = Fraction(1, m)
            yield m, lambda n, e=e: f_enclosure(n, e).square(), lambda c, e=e: g_enclosure(c, e).square()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(a=ARGUMENTS)
    @example(a=2)
    @example(a=28)
    def test_lemma(self, a):
        for m, f2, g2 in self.accuracies():
            margin = _lemma_margin(a, m)
            assert as_enclosure(margin) == g2(a) - f2(a - 1).scale(Fraction(a - 1, a + 1))
            assert margin[2] <= (a + 1) * (4 * a * (a + 1) * m) ** 2

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(c=ARGUMENTS)
    @example(c=2)
    @example(c=10**4)
    def test_apex(self, c):
        for m, f2, g2 in self.accuracies():
            margin = _apex_margin(c, m)
            assert as_enclosure(margin) == g2(c) - f2(c - 1).scale(Fraction(1, 2))
            assert margin[2] <= 2 * (4 * c * (c + 1) * m) ** 2

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(n=st.integers(1, 10**6))
    @example(n=1)
    @example(n=100)
    def test_f_step(self, n):
        for m, f2, _ in self.accuracies():
            margin = _f_step_margin(n, m)
            assert as_enclosure(margin) == f2(n) - f2(n + 1)
            assert margin[2] <= (4 * (n + 1) * (n + 2) * m) ** 2

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(c=ARGUMENTS)
    @example(c=2)
    @example(c=100)
    def test_ratio(self, c):
        for m, f2, g2 in self.accuracies():
            margin = _ratio_margin(c, m)
            assert as_enclosure(margin) == g2(c + 1) * f2(c - 1) - g2(c) * f2(c)
            assert margin[2] <= (4 * c * (c + 1) * m) ** 2 * (4 * (c + 1) * (c + 2) * m) ** 2


class TestGoldenSweep:
    def test_sweep_2_30_digests(self):
        # digests of the Fraction-bisection implementation's artifacts; a
        # change to a verdict, a margin or the refinement schedule shows here
        report = run_sweep(2, 30)
        csv = hashlib.sha256(emit_report_csv(report).encode()).hexdigest()
        js = hashlib.sha256(emit_report_json(report).encode()).hexdigest()
        assert csv == "485117750d26776e23a613c7812e504162f3103e4331dc491498ee86009a97e8"
        assert js == "a5586c624435dc3f6c84d2bc767751ca825484d5acfbb034a3cd7f11f0f0a7d0"
