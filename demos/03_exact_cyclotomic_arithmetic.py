#!/usr/bin/env python3
"""Exact arithmetic with prime-power roots of unity.

The value domain of all character computations: Q(zeta_{p^N}) in the power
basis with rational coefficients. No floating point is involved anywhere.
"""

from fractions import Fraction

from metacyclic import CyclotomicElement, galois_apply, minimal_level, root_power

z9 = root_power(3, 2, 1)
z3 = root_power(3, 1, 1)

print("Canonical reduced forms")
print("=" * 50)
print(f"  z3^2        = {root_power(3, 1, 2)!r}   (since 1 + z3 + z3^2 = 0)")
print(f"  z9^3        = {z9 ** 3!r}")
print(f"  z9^3 == z3  : {z9 ** 3 == z3}")
print(f"  z9^9        = {z9 ** 9!r}")

print("\nArithmetic is exact, including rational scalars")
print("=" * 50)
x = z9 + 2 * z9 ** 5 - Fraction(1, 3)
print(f"  x           = {x!r}")
print(f"  x * x       = {x * x!r}")

print("\nVanishing orbit sums (the reason induced characters vanish off <a^p>)")
print("=" * 50)
total = CyclotomicElement.rational(3, 0)
for i in range(3):
    e = pow(10, i, 27)
    total = total + root_power(3, 3, e)
    print(f"  + z27^{e}")
print(f"  sum = {total!r}")

print("\nGalois action and character fields")
print("=" * 50)
y = z9 + z9 ** 8
print(f"  y             = {y!r}")
for alpha in (2, 4, 7):
    print(f"  sigma_{alpha}(y)    = {galois_apply(y, alpha)!r}")
print(f"  minimal level of z9^3: {minimal_level(z9 ** 3)} (lives in Q(zeta_3))")
trace = root_power(3, 3, 1) + root_power(3, 3, 10) + root_power(3, 3, 19)
print(f"  z27 + z27^10 + z27^19 = {trace!r} -> level {minimal_level(trace)}")
