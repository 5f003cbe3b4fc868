import cmath
import random
from fractions import Fraction

import pytest

from metacyclic.cyclotomic import (
    CyclotomicElement,
    galois_apply,
    minimal_level,
    root_power,
)
from metacyclic.errors import ValidationError


def random_element(rng, p, max_level=3):
    level = rng.randrange(0, max_level + 1)
    phi = 1 if level == 0 else p ** level - p ** (level - 1)
    vec = [rng.randint(-3, 3) for _ in range(phi)]
    return CyclotomicElement.from_power_vector(p, level, vec)


def test_root_power_basics():
    one = root_power(3, 1, 0)
    assert one == 1
    # 1 + z3 + z3^2 = 0 forces z3^2 = -1 - z3
    z3 = root_power(3, 1, 1)
    assert root_power(3, 1, 2) == -1 - z3
    assert root_power(3, 2, 9) == 1  # exponent reduced mod 9


def test_add_mul_relations():
    z3 = root_power(3, 1, 1)
    assert z3 + root_power(3, 1, 2) == -1
    assert root_power(3, 2, 3) * root_power(3, 2, 6) == 1
    # vanishing orbit sum: z27 + z27^10 + z27^(10^2 mod 27)
    total = sum(
        (root_power(3, 3, pow(10, i, 27)) for i in range(3)),
        CyclotomicElement.rational(3, 0),
    )
    assert total == 0


def test_root_of_unity_exact_order():
    for e in range(0, 19):
        value = root_power(3, 2, e)
        assert (value == 1) == (e % 9 == 0)


def test_mixed_level_and_scalar_arithmetic():
    z9 = root_power(3, 2, 1)
    z3 = root_power(3, 1, 1)
    assert z9 ** 3 == z3
    assert 2 * z3 - z3 == z3
    assert (z3 + Fraction(1, 2)) - z3 == Fraction(1, 2)
    assert z9 ** 9 == 1
    with pytest.raises(ValidationError):
        root_power(3, 1, 1) * root_power(5, 1, 1)
    # rationals are prime-agnostic
    assert CyclotomicElement.rational(3, 7) == CyclotomicElement.rational(5, 7)
    assert CyclotomicElement.rational(5, 2) + root_power(3, 1, 1) == 2 + z3
    # an int or Fraction scales the coefficients: the same canonical element
    # as reducing the scaled raw vector
    rng = random.Random(7)
    for p in (3, 5):
        for level in range(4):
            vec = [rng.randint(-3, 3) for _ in range(p ** level)]
            x = CyclotomicElement.from_power_vector(p, level, vec)
            for c in (0, 1, -1, p ** 2, Fraction(-2, 7)):
                general = CyclotomicElement.from_power_vector(
                    p, level, [c * v for v in vec]
                )
                for product in (c * x, x * c):
                    assert product == general
                    assert (product.p, product.level, product.coeffs) == (
                        general.p, general.level, general.coeffs
                    )


def test_ring_axioms_random():
    rng = random.Random(0xC0FFEE)
    for p in (3, 5):
        for _ in range(60):
            x = random_element(rng, p)
            y = random_element(rng, p)
            z = random_element(rng, p)
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x + y == y + x
            # every coefficient stays a Fraction, whether built or passed on
            for value in (x, x + y, x * y, root_power(p, 2, rng.randrange(9))):
                assert all(type(c) is Fraction for c in value.coeffs)


def test_galois_apply_basics():
    z9 = root_power(3, 2, 1)
    x = z9 + 2 * z9 ** 5
    assert galois_apply(x, 1) == x
    assert galois_apply(z9, 4) == z9 ** 4
    assert galois_apply(CyclotomicElement.rational(3, 5), 2) == 5
    with pytest.raises(ValidationError):
        galois_apply(z9, 6)


def test_galois_composition():
    rng = random.Random(7)
    for p in (3, 5):
        q = p ** 3
        units = [a for a in range(1, q) if a % p]
        for _ in range(40):
            x = random_element(rng, p)
            alpha, beta = rng.choice(units), rng.choice(units)
            lhs = galois_apply(galois_apply(x, alpha), beta)
            assert lhs == galois_apply(x, alpha * beta % q)


def test_galois_permutes_primitive_roots_and_fixes_rationals():
    p, level = 3, 2
    q = p ** level
    primitive = {e for e in range(q) if e % p}
    for alpha in (2, 4, 5, 7, 8):
        images = {galois_apply(root_power(p, level, e), alpha) for e in primitive}
        assert images == {root_power(p, level, e) for e in primitive}
        assert galois_apply(CyclotomicElement.rational(p, Fraction(5, 3)), alpha) == Fraction(5, 3)


def test_minimal_level():
    assert minimal_level(CyclotomicElement.rational(3, 7)) == 0
    assert minimal_level(root_power(3, 2, 3)) == 1  # z9^3 = z3
    assert minimal_level(root_power(3, 3, 1) + root_power(3, 3, 2)) == 3
    assert minimal_level(root_power(3, 3, 3)) == 2
    zero = CyclotomicElement.rational(3, 0)
    assert minimal_level(zero) == 0


def test_relative_orbit_trace_drops_level():
    # z27 + z27^10 + z27^19: the three conjugates over Q(zeta_9); the float
    # embedding confirms the exact sum independently
    exponents = (1, 10, 19)
    total = sum(
        (root_power(3, 3, e) for e in exponents),
        CyclotomicElement.rational(3, 0),
    )
    approx = sum(cmath.exp(2j * cmath.pi * e / 27) for e in exponents)
    assert abs(approx) < 1e-9
    assert total == 0
    assert minimal_level(total) == 0


def test_float_embedding_tracks_exact_arithmetic():
    rng = random.Random(99)
    for _ in range(20):
        x = random_element(rng, 3)
        y = random_element(rng, 3)
        exact = (x * y).approx_complex()
        floated = x.approx_complex() * y.approx_complex()
        assert abs(exact - floated) < 1e-6


def test_orbit_sums_vanish_small():
    # sum_{i<p^S} zeta^((1+k p^(M-S))^i) = 0, element-by-element route
    for p in (3, 5):
        for big in range(1, 4):
            q = p ** big
            for small in range(1, big):
                for k in range(1, p ** small):
                    if k % p == 0:
                        continue
                    base = 1 + k * p ** (big - small)
                    total = CyclotomicElement.rational(p, 0)
                    for i in range(p ** small):
                        total = total + root_power(p, big, pow(base, i, q))
                    assert total == 0


def test_multiplication_against_polynomial_remainder():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def cyclo_poly(p, level):
        step = p ** (level - 1)
        coeffs = {j * step: 1 for j in range(p)}
        top = max(coeffs)
        return sympy.Poly(
            [coeffs.get(e, 0) for e in range(top, -1, -1)], x, domain="QQ"
        )

    rng = random.Random(31337)
    for p in (3, 5):
        for level in (1, 2, 3):
            phi = p ** level - p ** (level - 1)
            modulus = cyclo_poly(p, level)
            for _ in range(15):
                a = [rng.randint(-4, 4) for _ in range(phi)]
                b = [rng.randint(-4, 4) for _ in range(phi)]
                prod = (
                    CyclotomicElement.from_power_vector(p, level, a)
                    * CyclotomicElement.from_power_vector(p, level, b)
                )
                pa = sympy.Poly(list(reversed(a)), x, domain="QQ")
                pb = sympy.Poly(list(reversed(b)), x, domain="QQ")
                want = (pa * pb).rem(modulus)
                got = sympy.Poly(list(reversed(prod._lift(level))), x, domain="QQ")
                assert got == want, (p, level, a, b)


def test_hash_consistent_with_eq():
    assert hash(root_power(3, 2, 3)) == hash(root_power(3, 1, 1))
    assert hash(CyclotomicElement.rational(3, 4)) == hash(CyclotomicElement.rational(5, 4))
    values = {root_power(3, 2, 3), root_power(3, 1, 1), root_power(3, 2, 1)}
    assert len(values) == 2


def test_immutable_and_round_trips_through_pickle_and_deepcopy():
    import copy
    import pickle

    x = root_power(5, 2, 7) + Fraction(1, 3)
    for name in ("p", "level", "coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert (x.p, x.level) == (5, 2)
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is CyclotomicElement
        assert (y.p, y.level, y.coeffs) == (x.p, x.level, x.coeffs)
        assert y == x and hash(y) == hash(x)
        assert all(type(c) is Fraction for c in y.coeffs)


def test_reduce_power_vector_checks_level_before_allocating():
    from metacyclic.cyclotomic import reduce_power_vector

    assert reduce_power_vector(3, 1, [1, 2, 3]) == [-2, -1]
    for call in (
        lambda: reduce_power_vector(3, -1, [1]),
        lambda: CyclotomicElement.from_power_vector(3, -1, [1]),
        lambda: root_power(3, -1, 0),
    ):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == "level must be >= 0, got -1"
