"""Tests for parameter derivation and certified feasibility decisions."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equisum.feasibility import (
    VerdictKind,
    _squares,
    certified_apex_inequality,
    certified_f_decreasing,
    certified_ratio_increasing,
    check_inequality,
    classify,
    d2_pair_bound_holds,
    decide,
    derive_parameters,
    f_enclosure,
    g_enclosure,
    g_radicand,
    lemma_applies,
    lemma_certificate,
)
from equisum.geometry import circumradius_sq

# Frozen from an mpmath evaluation at 60 decimal digits.
F1 = Fraction("0.2928932188134524755991556378951509607152")
F2 = Fraction("0.183503419072273967267571975098036202678")
G2 = Fraction("0.2362373841740266655686588010453319185026")
G3 = Fraction("0.158374588469826837219717840244199940783")

TINY = Fraction(1, 2**40)


class TestDeriveParameters:
    @pytest.mark.parametrize(
        "a,b,c,alpha,beta",
        [
            (28, 40, 2, 18, 11),
            (2, 3, 2, 3, 0),
            (5, 8, 2, 4, 2),
            (3, 7, 2, 1, 3),
        ],
    )
    def test_hand_evaluated(self, a, b, c, alpha, beta):
        p = derive_parameters(a, b)
        assert (p.c, p.alpha, p.beta) == (c, alpha, beta)

    def test_out_of_scope_rejected(self):
        with pytest.raises(ValueError):
            derive_parameters(5, 5)
        with pytest.raises(ValueError):
            derive_parameters(1, 9)

    def test_identities_over_range(self):
        # every pair with a, b <= 500, then every sweep-60 pair
        # (a in [2, 60], a < b < a^2 + a)
        pairs = [(a, b) for a in range(2, 501) for b in range(a + 1, 501)]
        pairs += [(a, b) for a in range(2, 61) for b in range(a + 1, a * a + a)]
        for a, b in pairs:
            p = derive_parameters(a, b)
            assert (p.a, p.b) == (a, b)
            assert p.c == 1 + b // (a + 1)
            assert p.beta == b % (a + 1)
            assert p.alpha == a + 1 - p.beta
            assert p.alpha * (p.c - 1) + p.beta * p.c == b
            assert p.alpha * p.c + p.beta * (p.c + 1) == a + b + 1
            assert p.c >= 2 and p.alpha >= 1 and 0 <= p.beta <= a


class TestEnclosures:
    def test_f1(self):
        enc = f_enclosure(1, TINY)
        assert enc.width <= TINY
        assert enc.contains(F1)

    def test_f2(self):
        enc = f_enclosure(2, TINY)
        assert enc.contains(F2)

    def test_f_decreasing_certified_by_disjointness(self):
        assert f_enclosure(2, TINY).hi < f_enclosure(1, TINY).lo

    def test_g2_exact_radicand(self):
        assert g_radicand(2) == Fraction(7, 12)
        enc = g_enclosure(2, TINY)
        assert enc.width <= TINY
        assert enc.contains(G2)

    def test_g3(self):
        assert g_radicand(3) == Fraction(17, 24)
        assert g_enclosure(3, TINY).contains(G3)

    def test_g_between_f_pair(self):
        # the g radicand is the average of the two f radicands, so
        # f(c) < g(c) < f(c-1); certify for c = 2 by disjoint enclosures
        assert f_enclosure(2, TINY).hi < g_enclosure(2, TINY).lo
        assert g_enclosure(2, TINY).hi < f_enclosure(1, TINY).lo

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_enclosure(0, TINY)
        with pytest.raises(ValueError):
            g_enclosure(1, TINY)


def float_margin(a: int, b: int) -> float:
    """Plain binary64 oracle for the feasibility margin, no intervals."""
    p = derive_parameters(a, b)
    f = lambda n: 1.0 - math.sqrt(n / (n + 1))
    g = 1.0 - math.sqrt(0.5 * ((p.c - 1) / p.c + p.c / (p.c + 1)))
    d2a = float(circumradius_sq(p.alpha - 1))
    d2b = float(circumradius_sq(p.beta - 1)) if p.beta >= 1 else 0.0
    return g * g - d2a * f(p.c - 1) ** 2 - d2b * f(p.c) ** 2


class TestCheckInequality:
    @pytest.mark.parametrize(
        "a,b,kind",
        [
            (28, 40, VerdictKind.INEQUALITY_FAILS),
            (5, 8, VerdictKind.INEQUALITY_HOLDS),
            (30, 47, VerdictKind.INEQUALITY_FAILS),
            (28, 41, VerdictKind.INEQUALITY_HOLDS),
        ],
    )
    def test_known_pairs(self, a, b, kind):
        v = check_inequality(derive_parameters(a, b))
        assert v.kind is kind
        assert v.margin is not None
        lo, hi, den = v.margin
        assert den > 0
        if kind is VerdictKind.INEQUALITY_HOLDS:
            assert lo > 0
        else:
            assert hi < 0

    def test_margin_contains_float_estimate(self):
        v = check_inequality(derive_parameters(5, 8))
        est = float_margin(5, 8)  # ~ 0.0558 - 0.0406
        lo, hi, den = v.margin
        assert Fraction(lo, den) <= Fraction(est).limit_denominator(10**15) <= Fraction(hi, den)
        assert 0.0151 < est < 0.0153

    def test_agreement_with_float_oracle_small_range(self):
        for a in range(2, 9):
            for b in range(a + 1, a * a + a + 1):
                p = derive_parameters(a, b)
                v = check_inequality(p)
                assert v.kind is not VerdictKind.INDETERMINATE
                certified_holds = v.kind is VerdictKind.INEQUALITY_HOLDS
                assert certified_holds == (float_margin(a, b) >= 0.0)


class TestClassify:
    @pytest.mark.parametrize(
        "a,b,kind",
        [
            (1, 7, VerdictKind.PROP1),
            (7, 1, VerdictKind.PROP1),
            (4, 4, VerdictKind.PROP2),
            (7, 3, VerdictKind.SWAP_AND_RECURSE),
            (2, 3, VerdictKind.BETA_TRIVIAL),
            (2, 4, VerdictKind.BETA_TRIVIAL),
            (2, 5, VerdictKind.BETA_TRIVIAL),
            (5, 8, VerdictKind.INEQUALITY_HOLDS),
            (28, 40, VerdictKind.INEQUALITY_FAILS),
            (5, 40, VerdictKind.INEQUALITY_HOLDS),
        ],
    )
    def test_dispatch(self, a, b, kind):
        assert classify(a, b).kind is kind

    def test_lemma_covered_pair_has_no_margin(self):
        # (5, 40) is past the lemma line: decided by the lemma, as in the sweep
        assert classify(5, 40) == (VerdictKind.INEQUALITY_HOLDS, derive_parameters(5, 40), None)

    def test_beta_trivial_reports_beta(self):
        v = classify(2, 3)
        assert v.params is not None and v.params.beta == 0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            classify(0, 5)


@st.composite
def runs(draw):
    """(a, b_lo, b_hi) with a in [2, 40] and a < b_lo <= b_hi; half of the
    runs start within 80 of the lemma line a^2 + a, so many cross it."""
    a = draw(st.integers(2, 40))
    line = a * a + a
    b_lo = draw(st.integers(a + 1, line + 20) | st.integers(max(a + 1, line - 80), line))
    return a, b_lo, draw(st.integers(b_lo, b_lo + 100))


class TestDecideRun:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(run=runs())
    @example(run=(5, 6, 40))  # every b of a = 5 up to the line and past it
    @example(run=(28, 40, 40))  # the run of one failing pair
    def test_run_is_classify_pair_by_pair(self, run):
        a, b_lo, b_hi = run
        verdicts = list(decide(a, b_lo, b_hi))
        assert verdicts == [classify(a, b) for b in range(b_lo, b_hi + 1)]
        # the inline derivation, against the checked one
        assert [v.params for v in verdicts] == [derive_parameters(a, b) for b in range(b_lo, b_hi + 1)]

    def test_run_past_the_line_asks_the_lemma_not_the_inequality(self, monkeypatch):
        calls = []
        monkeypatch.setattr("equisum.feasibility.check_inequality", calls.append)
        verdicts = list(decide(5, 30, 60))  # 30 = 5^2 + 5
        assert calls == [] and all(v.margin is None for v in verdicts)
        assert {v.kind for v in verdicts} == {VerdictKind.BETA_TRIVIAL, VerdictKind.INEQUALITY_HOLDS}


class TestCacheBounds:
    """`_squares` and `lemma_certificate` keep their last 1,024 entries.
    Unbounded, `classify` over 20,000 distinct a left 19,998 certificates
    and 118,562 tables in them."""

    def test_lemma_loop_holds_at_most_1024_of_each(self):
        for a in range(2, 2200):
            lemma_certificate(a)
        assert lemma_certificate.cache_info().currsize <= 1024
        assert _squares.cache_info().currsize <= 1024

    def test_inequality_loop_holds_at_most_1024_tables(self):
        # c = 2, ..., 2200 at a = 3000, beta = 2
        for c in range(2, 2201):
            check_inequality(derive_parameters(3000, (c - 1) * 3001 + 2))
        assert _squares.cache_info().currsize <= 1024


class TestLemma:
    @pytest.mark.parametrize("a,b,expected", [(5, 30, True), (5, 29, False), (28, 812, True)])
    def test_threshold(self, a, b, expected):
        assert lemma_applies(a, b) is expected

    def test_certificate_small_and_large(self):
        assert lemma_certificate(2)
        assert lemma_certificate(28)

    def test_certificate_undecided_at_the_floor_is_false(self):
        # fact (i) cannot be separated from zero at 2^-200 from about a = 9.8e19
        assert lemma_certificate(10**19) is True
        assert lemma_certificate(10**20) is False

    def test_certificate_computed_once_per_a(self):
        # the main-case pairs with a + b <= 60 past the lemma line have a in
        # [3, 6] (at a = 2 every beta is in {0, 1, a}); 45 of the pairs ask
        lemma_certificate.cache_clear()
        for a in range(1, 60):
            for b in range(1, 61 - a):
                classify(a, b)
        info = lemma_certificate.cache_info()
        assert (info.misses, info.hits + info.misses) == (4, 45)

    def test_uncertified_lemma_falls_back_to_the_inequality(self):
        b = 10**40 + 10**20 + 7  # past the lemma line, beta = 7
        assert lemma_applies(10**20, b)
        v = classify(10**20, b)
        assert v.kind is VerdictKind.INEQUALITY_HOLDS and v.margin is not None

    def test_d2_bound_equality_case(self):
        # a = 5, beta = 3 (alpha = 3): 1/3 + 1/3 equals (a-1)/(a+1) exactly
        assert circumradius_sq(2) + circumradius_sq(2) == Fraction(5 - 1, 5 + 1)
        assert d2_pair_bound_holds(5)

    def test_d2_bound_over_range(self):
        assert all(d2_pair_bound_holds(a) for a in range(2, 101))

    def test_d2_bound_middle_beta_is_the_maximum(self):
        # the reference: the loop over every beta in [2, a-1]; the sum is
        # 1 - 1/(2 alpha) - 1/(2 beta), so no beta exceeds the middle one
        for a in range(2, 400):
            bound = Fraction(a - 1, a + 1)
            sums = [circumradius_sq(a - beta) + circumradius_sq(beta - 1) for beta in range(2, a)]
            assert d2_pair_bound_holds(a) is all(s <= bound for s in sums)
            if sums:
                assert max(sums) == circumradius_sq(a - (a + 1) // 2) + circumradius_sq((a + 1) // 2 - 1)


class TestProofStepInequalities:
    def test_f_decreasing_prefix(self):
        assert all(certified_f_decreasing(n) for n in range(1, 21))

    def test_ratio_increasing_prefix(self):
        assert all(certified_ratio_increasing(c) for c in range(2, 21))

    def test_apex_inequality_prefix(self):
        assert all(certified_apex_inequality(c) for c in range(2, 51))

    def test_proof_steps_leave_no_table_in_the_cache(self):
        # each step starts at an accuracy no other decision reads, so a
        # cached table of theirs would never be read again
        _squares.cache_clear()
        for c in range(2, 21):
            assert certified_f_decreasing(c) and certified_ratio_increasing(c) and certified_apex_inequality(c)
        assert _squares.cache_info().currsize == 0
