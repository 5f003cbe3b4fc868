"""Number-theoretic primitives: valuations, totients, unit generators, r-splitting.

Everything here is exact integer arithmetic on small inputs. Trial
division is fast enough by construction: `check_odd_prime`, the one check
on p, bounds p before `is_prime` runs, and p - 1 is factored up to its root.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .errors import InternalInconsistencyError, SizeBoundError, ValidationError

# Cap on p and |G|: closed-form paths stay exact well past it, but the point
# of the bound is predictable desk-scale behaviour, not generality.
FORMULA_ORDER_BOUND = 10 ** 7


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x % 2 == 0:
        return x == 2
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def check_odd_prime(p: int) -> None:
    """The one check on p, cheapest first: p is bounded before `is_prime`
    can take long, then it must be prime, then odd."""
    if p > FORMULA_ORDER_BOUND:
        raise SizeBoundError(
            f"p = {p} exceeds the supported bound {FORMULA_ORDER_BOUND} on |G|"
        )
    if not is_prime(p):
        raise ValidationError(f"p must be prime, got {p}")
    if p == 2:
        raise ValidationError("p = 2 is out of scope (odd primes only)")


def check_power_bound(p: int, e: int, name: str) -> None:
    """Reject p^e > FORMULA_ORDER_BOUND before p^e is computed; `name`
    says what p^e is in the message ("|G|", "p^level")."""
    # 2^bit_length > bound, so a longer exponent exceeds it for every p
    if e > FORMULA_ORDER_BOUND.bit_length() or p ** e > FORMULA_ORDER_BOUND:
        raise SizeBoundError(
            f"{name} = {p}^{e} exceeds the supported bound {FORMULA_ORDER_BOUND}"
        )


def phi_pk(p: int, exp: int) -> int:
    """Euler phi of p^exp for prime p, with phi(p^0) = 1. No validation."""
    if exp == 0:
        return 1
    return p ** exp - p ** (exp - 1)


def p_adic_valuation(x: int, p: int) -> int:
    """w_p(x): the exact exponent of p in x for odd prime p; rejects x = 0."""
    check_odd_prime(p)
    if x == 0:
        raise ValidationError("p-adic valuation of 0 is undefined")
    return _valuation(x, p)


def _valuation(x: int, p: int) -> int:
    """w_p(x) for x != 0 and p >= 2: the one valuation loop, unchecked."""
    w = 0
    while x % p == 0:
        x //= p
        w += 1
    return w


@lru_cache(maxsize=64)
def unit_group_generator(p: int, exp: int) -> int:
    """A generator of the cyclic group (Z/p^exp)^* for an odd prime p, exp >= 1.

    The least primitive root g mod p, tested against the prime factors of
    p - 1 found by trial division up to sqrt(p - 1), replaced by g + p when
    g^(p-1) = 1 mod p^2; such a g generates (Z/p^exp)^* for every exp.
    """
    check_odd_prime(p)
    if exp < 1:
        raise ValidationError(f"exponent must be >= 1, got {exp}")
    factors, x = [], p - 1
    for q in range(2, isqrt(p - 1) + 1):
        if x % q == 0:  # q is prime: its smaller factors are divided out
            factors.append(q)
            while x % q == 0:
                x //= q
    if x > 1:  # one prime factor above sqrt(p - 1) is left
        factors.append(x)
    g = next(
        g for g in range(2, p)
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors)
    )
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g % p ** exp


def split_r(r: int, p: int, n: int) -> tuple[int, int]:
    """Decompose r = 1 + k * p^(n-s) mod p^n with 1 <= k < p^s, gcd(k, p) = 1.

    The multiplicative order of such r mod p^n is exactly p^s; that is
    re-checked before returning. r = 1 mod p^n (the abelian case) and
    r != 1 mod p (order not a p-power) are rejected.
    """
    check_odd_prime(p)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    q = p ** n
    r = r % q
    if (r - 1) % p != 0:
        raise ValidationError(
            f"r={r} is not 1 mod {p}: its order mod {p}^{n} is not a p-power"
        )
    if r == 1:
        raise ValidationError("r = 1 mod p^n is the abelian case")
    d = r - 1  # 0 < d < p^n
    w = p_adic_valuation(d, p)  # 1 <= w < n
    s = n - w
    k = d // p ** w
    if not (1 <= k < p ** s) or k % p == 0:
        raise InternalInconsistencyError(f"bad split r={r}: k={k}, s={s}")
    # the order divides p^s but not p^(s-1), so it is p^s
    if pow(r, p ** s, q) != 1 or pow(r, p ** (s - 1), q) == 1:
        raise InternalInconsistencyError(
            f"order of r={r} mod {p}^{n} is not p^{s}"
        )
    return k, s
