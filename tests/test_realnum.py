"""Tests for exact enclosures and certified sign decisions."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisum.realnum import (
    DEFAULT_EPS_FLOOR,
    Enclosure,
    Sign,
    enclose_sqrt,
    sign_with_enclosure,
)

# Computed independently with mpmath at 60 decimal digits.
SQRT_HALF_40 = Fraction("0.7071067811865475244008443621048490392848")


def newton_sqrt(q: Fraction, tol: Fraction) -> Fraction:
    """Independent oracle: Newton iteration for x^2 = q over exact rationals."""
    x = Fraction(max(1, q.numerator // q.denominator))
    while abs(x * x - q) > tol:
        x = (x + q / x) / 2
    return x


class TestEncloseSqrt:
    def test_perfect_square_collapses(self):
        assert enclose_sqrt(Fraction(1, 4), Fraction(1, 1000)) == Enclosure.point(Fraction(1, 2))

    def test_zero(self):
        assert enclose_sqrt(0, Fraction(1, 7)) == Enclosure.point(0)

    def test_integer_perfect_square(self):
        assert enclose_sqrt(9, Fraction(1, 10)) == Enclosure.point(3)

    def test_sqrt_half_versus_newton_oracle(self):
        eps = Fraction(1, 10**6)
        enc = enclose_sqrt(Fraction(1, 2), eps)
        assert enc.width <= eps
        ref = newton_sqrt(Fraction(1, 2), Fraction(1, 10**30))
        assert enc.lo <= ref <= enc.hi
        assert abs(ref - SQRT_HALF_40) < Fraction(1, 10**14)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            enclose_sqrt(Fraction(-1, 3), Fraction(1, 10))

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            enclose_sqrt(Fraction(1, 3), 0)

    @settings(max_examples=200, derandomize=True)
    @given(
        q=st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
        eps=st.fractions(min_value=Fraction(1, 2**60), max_value=1, max_denominator=2**60),
    )
    def test_soundness_everywhere(self, q, eps):
        enc = enclose_sqrt(q, eps)
        assert enc.lo >= 0
        assert enc.lo * enc.lo <= q <= enc.hi * enc.hi
        assert enc.width <= eps

    def test_deterministic(self):
        args = (Fraction(17, 23), Fraction(1, 2**40))
        assert enclose_sqrt(*args) == enclose_sqrt(*args)


class TestIntervalOps:
    def test_add(self):
        assert Enclosure(1, 2) + Enclosure(3, 4) == Enclosure(4, 6)

    def test_square_spanning_zero(self):
        assert Enclosure(-1, 2).square() == Enclosure(0, 4)

    def test_subtract_dependency_free(self):
        assert Enclosure(0, 1) - Enclosure(0, 1) == Enclosure(-1, 1)

    def test_scale_negative_flips(self):
        assert Enclosure(1, 2).scale(Fraction(-3)) == Enclosure(-6, -3)

    def test_mul_mixed_signs(self):
        assert Enclosure(-2, 3) * Enclosure(-1, 4) == Enclosure(-8, 12)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Enclosure(1, 0)

    def test_outward_containment_bulk(self):
        # 1e5 sampled exact operations, all contained in the interval results
        rng = Random(20240817)

        def rand_frac():
            return Fraction(rng.randint(-999, 999), rng.randint(1, 99))

        def sample_in(enc):
            t = Fraction(rng.randint(0, 64), 64)
            return enc.lo + (enc.hi - enc.lo) * t

        checks = 0
        while checks < 100_000:
            a, b = sorted((rand_frac(), rand_frac()))
            c, d = sorted((rand_frac(), rand_frac()))
            x_enc, y_enc = Enclosure(a, b), Enclosure(c, d)
            x, y = sample_in(x_enc), sample_in(y_enc)
            scale = rand_frac()
            results = (
                (x_enc + y_enc, x + y),
                (x_enc - y_enc, x - y),
                (x_enc * y_enc, x * y),
                (x_enc.square(), x * x),
                (x_enc.scale(scale), x * scale),
            )
            for enc, exact in results:
                assert enc.contains(exact)
            checks += len(results)


class TestCertifiedSign:
    def test_constant_positive(self):
        assert sign_with_enclosure(lambda eps: Enclosure(Fraction(1, 3), Fraction(1, 2)))[0] is Sign.POSITIVE

    def test_constant_negative(self):
        assert sign_with_enclosure(lambda eps: Enclosure(-2, -1))[0] is Sign.NEGATIVE

    def test_true_zero_is_indeterminate(self):
        # sqrt(2) - sqrt(2) through two independent enclosures: refined all
        # the way to the default floor, then reported, never guessed
        sign, enc = sign_with_enclosure(
            lambda eps: enclose_sqrt(2, eps / 2) - enclose_sqrt(2, eps / 2)
        )
        assert sign is Sign.INDETERMINATE
        assert enc.width < DEFAULT_EPS_FLOOR
        assert enc.contains(0)

    def test_narrow_positive_needs_refinement(self):
        # value 2^-40 but the first rounds cannot separate it from zero
        target = Fraction(1, 2**40)

        def value_at(eps):
            return Enclosure(target - eps / 2, target + eps / 2)

        assert sign_with_enclosure(value_at)[0] is Sign.POSITIVE

    def test_agrees_with_100_digit_reference(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 100
        cases = [
            (Fraction(2, 1), Fraction(3, 2)),   # sqrt(2) - 3/2 < 0
            (Fraction(2, 1), Fraction(7, 5)),   # sqrt(2) - 7/5 > 0
            (Fraction(17, 24), Fraction(5, 6)), # sqrt(17/24) - 5/6 > 0
        ]
        for q, shift in cases:
            sign = sign_with_enclosure(lambda eps: enclose_sqrt(q, eps) - Enclosure.point(shift))[0]
            ref = mp.sqrt(mp.mpf(q.numerator) / q.denominator) - mp.mpf(
                shift.numerator
            ) / shift.denominator
            assert sign is (Sign.POSITIVE if ref > 0 else Sign.NEGATIVE)
