import random

import pytest

from metacyclic.errors import SizeBoundError, ValidationError
from metacyclic.group import (
    GroupElement,
    GroupParams,
    check_oracle_bound,
    conjugacy_classes,
    conjugate,
    from_s,
    identity,
    inverse,
    multiply,
    power,
    validate,
)


def all_elements(params):
    qa, qb = params.p ** params.n, params.p ** params.m
    return [GroupElement(i, j) for i in range(qa) for j in range(qb)]


def test_validate_examples():
    g1 = validate(3, 4, 2, 10)
    assert (g1.s, g1.k, g1.order) == (2, 1, 729)
    g3 = validate(3, 2, 3, 4)
    assert (g3.s, g3.k, g3.order) == (1, 1, 243)
    with pytest.raises(ValidationError):
        validate(3, 2, 1, 2)  # order of 2 mod 9 is 6, not a 3-power


def test_validate_rejections():
    with pytest.raises(ValidationError):
        validate(2, 3, 1, 3)  # even p
    with pytest.raises(ValidationError):
        validate(9, 2, 1, 4)  # not prime
    with pytest.raises(ValidationError):
        validate(3, 3, 1, 4)  # s = 2 > m = 1
    with pytest.raises(ValidationError):
        validate(3, 2, 1, 3)  # r not coprime to p
    with pytest.raises(ValidationError):
        validate(3, 2, 1, 1)  # abelian without the flag
    with pytest.raises(ValidationError):
        validate(3, 2, 1, 4, abelian=True)  # flag with r != 1
    with pytest.raises(ValidationError):
        validate(3, 1, 1, 2)  # n < 2 in non-abelian mode
    with pytest.raises(SizeBoundError):
        validate(3, 10, 6, 4)  # 3^16 > 10^7


def test_size_checks_run_first_but_keep_the_exit_order():
    # p and n + m are bounded before is_prime or p^(n+m) can take long
    for args in ((3, 30_000_000, 2, 10), (10 ** 18 + 3, 2, 1, 4), (10 ** 18 + 4, 2, 1, 4)):
        with pytest.raises(SizeBoundError):
            validate(*args)
    with pytest.raises(SizeBoundError):
        from_s(3, 30_000_000, 2, 1)
    # for p <= 10^7 the range checks still come before the size check
    with pytest.raises(ValidationError):
        validate(3, 1, 30, 4)  # n < 2
    with pytest.raises(ValidationError):
        validate(4, 30, 2, 3)  # not prime
    with pytest.raises(ValidationError):
        from_s(3, 30, 0, 1)  # m < 1
    with pytest.raises(SizeBoundError):
        validate(3, 2, 30, 4)  # n + m > 24


def test_abelian_is_derived_from_s():
    assert from_s(3, 2, 2, 0).abelian
    assert not validate(3, 2, 1, 4).abelian
    assert "abelian" not in GroupParams._fields


def test_oracle_bound_is_one_check():
    from metacyclic.deep import DeepChecker
    from metacyclic.verify import cross_validate, decomposition_via_oracle

    check_oracle_bound(from_s(3, 7, 1, 1))  # 3^8 <= 10^4
    big = from_s(3, 8, 1, 1)  # 3^9 > 10^4
    small = cross_validate(from_s(3, 2, 1, 1))
    for call, arg in ((check_oracle_bound, big), (conjugacy_classes, big),
                      (decomposition_via_oracle, big), (cross_validate, big),
                      (DeepChecker, small._replace(params=big))):
        with pytest.raises(SizeBoundError) as exc:
            call(arg)
        assert str(exc.value) == "|G| = 19683 exceeds the oracle bound 10000"


def test_r_normalization():
    # r only matters mod p^n
    assert validate(3, 2, 3, 4 + 9).r == 4
    assert validate(3, 2, 3, 4 + 9).s == 1


def test_from_s():
    params = from_s(3, 2, 3, 1)
    assert params.r == 4 and params.s == 1
    assert from_s(3, 4, 2, 2).r == 10
    assert from_s(3, 2, 2, 0).abelian
    with pytest.raises(ValidationError):
        from_s(3, 2, 3, 2)  # s > n-1


def test_multiply_examples():
    params = validate(3, 2, 3, 4)
    g = GroupElement(5, 2)
    assert multiply(identity(), g, params) == g
    # b * a = a^r b
    assert multiply(GroupElement(0, 1), GroupElement(1, 0), params) == GroupElement(4, 1)
    assert power(GroupElement(1, 0), 9, params) == identity()


def test_presentation_relations():
    for params in (validate(3, 2, 3, 4), validate(3, 4, 2, 10), validate(5, 2, 1, 6)):
        a, b = GroupElement(1, 0), GroupElement(0, 1)
        assert power(a, params.p ** params.n, params) == identity()
        assert power(b, params.p ** params.m, params) == identity()
        assert conjugate(a, b, params) == GroupElement(params.r, 0)


def test_group_axioms_random():
    rng = random.Random(12345)
    for params in (validate(3, 2, 2, 4), validate(5, 2, 1, 6), validate(3, 3, 2, 4)):
        qa, qb = params.p ** params.n, params.p ** params.m
        for _ in range(200):
            g = GroupElement(rng.randrange(qa), rng.randrange(qb))
            h = GroupElement(rng.randrange(qa), rng.randrange(qb))
            x = GroupElement(rng.randrange(qa), rng.randrange(qb))
            assert multiply(multiply(g, h, params), x, params) == multiply(
                g, multiply(h, x, params), params
            )
            assert multiply(g, inverse(g, params), params) == identity()
            assert multiply(inverse(g, params), g, params) == identity()


def test_conjugacy_class_counts():
    # counts must be p^(n+m-s) + p^(n+m-s-1) - p^(n+m-2s-1)
    assert len(conjugacy_classes(validate(3, 4, 2, 10))) == 105  # 81 + 27 - 3
    assert len(conjugacy_classes(validate(3, 2, 3, 4))) == 99  # 81 + 27 - 9
    abelian = validate(3, 2, 1, 1, abelian=True)
    classes = conjugacy_classes(abelian)
    assert len(classes) == 27 and all(len(c) == 1 for c in classes)


def test_conjugacy_classes_partition_and_are_invariant():
    params = validate(3, 2, 2, 4)
    flat = conjugacy_classes(params)
    # sorted tuples of flat indices i * p^m + j, ordered by least element
    assert all(list(cls) == sorted(cls) for cls in flat)
    assert [cls[0] for cls in flat] == sorted(cls[0] for cls in flat)
    qb = params.p ** params.m
    classes = [[GroupElement(*divmod(g, qb)) for g in cls] for cls in flat]
    elements = all_elements(params)
    seen = [g for cls in classes for g in cls]
    assert sorted(seen) == sorted(elements)
    # closed under conjugation by everything, not just generators
    rng = random.Random(5)
    for cls in classes:
        members = set(cls)
        for _ in range(10):
            g = rng.choice(elements)
            assert conjugate(cls[0], g, params) in members


def test_conjugacy_size_bound():
    with pytest.raises(SizeBoundError):
        conjugacy_classes(from_s(3, 6, 4, 1))  # 3^10 > 10^4
