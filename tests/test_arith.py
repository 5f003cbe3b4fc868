import pytest

from metacyclic.arith import (
    multiplicative_order,
    p_adic_valuation,
    phi_pk,
    split_r,
    unit_group_generator,
)
from metacyclic.errors import SizeBoundError, ValidationError


def brute_order(r, q):
    x = r % q
    e = 1
    while x != 1:
        x = x * r % q
        e += 1
    return e


def test_prime_power_validation():
    assert multiplicative_order(1, 3, 1) == 1
    assert multiplicative_order(2, 3, 1) == 2
    with pytest.raises(ValidationError):
        multiplicative_order(1, 2, 3)
    with pytest.raises(ValidationError):
        multiplicative_order(1, 9, 1)
    with pytest.raises(ValidationError):
        multiplicative_order(1, 5, -1)


def test_multiplicative_order_examples():
    assert multiplicative_order(10, 3, 4) == 9
    assert multiplicative_order(1, 3, 4) == 1
    assert multiplicative_order(4, 3, 3) == 9


def test_multiplicative_order_matches_brute_force():
    for p, n in [(3, 3), (5, 2), (7, 2)]:
        q = p ** n
        for r in range(1, q):
            if r % p == 0:
                continue
            assert multiplicative_order(r, p, n) == brute_order(r, q)


def test_multiplicative_order_rejects_non_units():
    with pytest.raises(ValidationError):
        multiplicative_order(6, 3, 2)
    with pytest.raises(ValidationError):
        multiplicative_order(5, 3, 0)  # modulus 1: exponent < 1


def test_p_adic_valuation():
    assert p_adic_valuation(9, 3) == 2
    assert p_adic_valuation(10, 3) == 0
    assert p_adic_valuation(4 ** 3 - 1, 3) == 2  # w_3(4-1) + w_3(3) = 1 + 1
    assert p_adic_valuation(-54, 3) == 3
    with pytest.raises(ValidationError):
        p_adic_valuation(0, 3)
    with pytest.raises(ValidationError):
        p_adic_valuation(12, 6)


def test_valuation_of_power_minus_one():
    # for a coprime to p of order f mod p and f | m:
    # w_p(a^m - 1) = w_p(a^f - 1) + w_p(m)
    for p in (3, 5):
        for a in range(2, 50):
            if a % p == 0:
                continue
            f = brute_order(a, p)
            for m in range(1, 101):
                if m % f:
                    continue
                assert p_adic_valuation(a ** m - 1, p) == (
                    p_adic_valuation(a ** f - 1, p) + p_adic_valuation(m, p)
                )


def test_euler_phi_prime_power():
    assert phi_pk(3, 0) == 1
    assert phi_pk(3, 2) == 6
    assert phi_pk(5, 3) == 100


def test_split_r_examples():
    assert split_r(10, 3, 4) == (1, 2)
    assert split_r(4, 3, 2) == (1, 1)
    # 51 = 1 + 2 * 25: brute-force confirms order 5 mod 125
    assert brute_order(51, 125) == 5
    assert split_r(51, 5, 3) == (2, 1)


def test_split_r_roundtrip():
    for p, n in [(3, 4), (5, 3), (7, 2)]:
        q = p ** n
        for r in range(2, q):
            if (r - 1) % p or r == 1:
                continue
            k, s = split_r(r, p, n)
            assert (1 + k * p ** (n - s)) % q == r
            assert 1 <= k < p ** s and k % p


def test_split_r_rejections():
    with pytest.raises(ValidationError):
        split_r(2, 3, 2)  # 2 != 1 mod 3
    with pytest.raises(ValidationError):
        split_r(1, 3, 2)  # abelian
    with pytest.raises(ValidationError):
        split_r(82, 3, 4)  # 82 = 1 mod 81 after reduction


def test_order_of_canonical_twists():
    # order of 1 + k p^(n-s) mod p^n is exactly p^s
    for p, n_max in ((3, 6), (5, 6), (7, 6)):
        for n in range(2, n_max + 1):
            for s in range(1, n):
                for k in range(1, p ** s):
                    if k % p == 0:
                        continue
                    r = 1 + k * p ** (n - s)
                    assert multiplicative_order(r, p, n) == p ** s


def test_unit_group_generator_has_full_order():
    for p in (3, 5, 7, 11, 13):
        for exp in range(1, 7):
            g = unit_group_generator(p, exp)
            assert multiplicative_order(g, p, exp) == phi_pk(p, exp)
    # p = 23, 47, 997, ... leave a prime factor of p - 1 above sqrt(p - 1);
    # g is the least primitive root mod p, or that root + p
    for p in (p for p in range(3, 1000) if all(p % d for d in range(2, p))):
        g = unit_group_generator(p, 2)
        least = next(x for x in range(2, p) if brute_order(x, p) == p - 1)
        assert g % p == least and multiplicative_order(g, p, 2) == phi_pk(p, 2)
    with pytest.raises(ValidationError):
        unit_group_generator(9, 2)


def test_check_odd_prime_is_the_one_odd_prime_check(monkeypatch):
    from metacyclic import arith
    from metacyclic.arith import check_odd_prime
    from metacyclic.cli import parse_decomposition
    from metacyclic.components import assemble_components
    from metacyclic.cyclotomic import CyclotomicElement, reduce_power_vector, root_power
    from metacyclic.group import from_s, valid_parameter_sets, validate

    def entry_points(p):
        return (
            lambda: check_odd_prime(p),
            lambda: validate(p, 2, 1, 4),
            lambda: from_s(p, 2, 1, 1),
            lambda: list(valid_parameter_sets(p, 10 ** 4)),
            lambda: split_r(4, p, 2),
            lambda: multiplicative_order(1, p, 1),
            lambda: unit_group_generator(p, 1),
            lambda: p_adic_valuation(4, p),
            lambda: CyclotomicElement.rational(p, 0),
            lambda: CyclotomicElement.from_power_vector(p, 1, [1]),
            lambda: root_power(p, 1, 0),
            lambda: reduce_power_vector(p, 1, [1, 2]),
            lambda: assemble_components(p, [(1, 0, 1)]),
            lambda: parse_decomposition("Q + 4*Q(z3)", p),
        )

    cases = [(p, f"p must be prime, got {p}") for p in (-3, 0, 1, 9)]
    for p, message in cases + [(2, "p = 2 is out of scope (odd primes only)")]:
        for call in entry_points(p):
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == message
    check_odd_prime(3)

    # the bound comes before any trial division
    def no_trial_division(x):
        raise AssertionError(f"is_prime({x}) ran before the bound on p")

    monkeypatch.setattr(arith, "is_prime", no_trial_division)
    for p in (10 ** 7 + 19, 10 ** 14 + 31):
        for call in entry_points(p):
            with pytest.raises(SizeBoundError) as exc:
                call()
            assert str(exc.value) == f"p = {p} exceeds the supported bound 10000000 on |G|"
