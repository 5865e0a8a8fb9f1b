#!/usr/bin/env python3
"""How the certified sign decisions work.

Shows square-root enclosures with exact rational endpoints, the refinement
loop narrowing an interval until zero is excluded, and the honest
Indeterminate outcome on a true zero.
"""

from fractions import Fraction

from equisum import Sign, check_inequality, derive_parameters
from equisum.realnum import Enclosure, enclose_sqrt, sign_with_enclosure


def main():
    print("Square-root enclosures: exact rational brackets of irrationals.")
    for eps_bits in (4, 10, 20, 40):
        eps = Fraction(1, 2**eps_bits)
        enc = enclose_sqrt(Fraction(1, 2), eps)
        print(f"  sqrt(1/2) to 2^-{eps_bits:<3}: [{float(enc.lo):.12f}, {float(enc.hi):.12f}]"
              f"  width {float(enc.width):.2e}")
    print(f"  perfect squares collapse: sqrt(9/16) -> {enclose_sqrt(Fraction(9, 16), Fraction(1, 8))}")

    print("\nEndpoint arithmetic is exact, so containment never erodes:")
    x = enclose_sqrt(2, Fraction(1, 2**30))
    print(f"  sqrt(2)^2 = {float(x.square().lo):.12f}..{float(x.square().hi):.12f} contains 2:",
          x.square().contains(2))

    print("\nA tight feasibility decision: the pair (28, 41) holds by ~4e-6.")
    verdict = check_inequality(derive_parameters(28, 41))
    print(f"  verdict: {verdict.kind.value}")
    lo, hi, den = verdict.margin
    print(f"  certified margin: [{lo / den:.3e}, {hi / den:.3e}]")

    print("\nIts neighbour (28, 40) fails by ~8e-6, certified on the other side.")
    verdict = check_inequality(derive_parameters(28, 40))
    print(f"  verdict: {verdict.kind.value}")
    lo, hi, den = verdict.margin
    print(f"  certified margin: [{lo / den:.3e}, {hi / den:.3e}]")

    print("\nA true zero can never be signed; the refinement loop reports it.")
    sign, enc = sign_with_enclosure(
        lambda eps: enclose_sqrt(2, eps / 2) - enclose_sqrt(2, eps / 2),
        eps_floor=Fraction(1, 2**80),
    )
    assert sign is Sign.INDETERMINATE
    print(f"  sqrt(2) - sqrt(2): {sign.name} with final width {float(enc.width):.2e}")

    print("\nFor contrast, a value of 2^-40 is separated after refinement:")
    target = Fraction(1, 2**40)
    sign, enc = sign_with_enclosure(lambda eps: Enclosure(target - eps / 2, target + eps / 2))
    print(f"  sign: {sign.name}, enclosure [{float(enc.lo):.2e}, {float(enc.hi):.2e}]")


if __name__ == "__main__":
    main()
