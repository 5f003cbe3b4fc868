import random
import time

import pytest

from metacyclic import complex_reps, rational
from metacyclic.complex_reps import (
    IrreducibleCharacter,
    character_value,
    enumerate_irreducibles,
)
from metacyclic.cyclotomic import galois_apply
from metacyclic.errors import InternalInconsistencyError, ValidationError
from metacyclic.group import GroupElement, valid_parameter_sets, validate
from metacyclic.rational import (
    GaloisClass,
    character_field_level,
    galois_classes,
    rational_counts_from_classes,
    sigma_on_character,
    wedderburn_from_classes,
)

G1 = validate(3, 4, 2, 10)
G2 = validate(3, 3, 3, 4)
G3 = validate(3, 2, 3, 4)

# frozen component multisets {(matrix_size, center_level): multiplicity}
G1_COMPONENTS = {(1, 0): 1, (1, 1): 4, (1, 2): 12, (3, 2): 3, (9, 2): 1}
G2_COMPONENTS = {(1, 0): 1, (1, 1): 4, (1, 2): 3, (1, 3): 3,
                 (3, 1): 3, (3, 2): 2, (9, 1): 3}
G3_COMPONENTS = {(1, 0): 1, (1, 1): 4, (1, 2): 3, (1, 3): 3,
                 (3, 1): 3, (3, 2): 2}


def oracle_decomposition(params):
    return wedderburn_from_classes(
        galois_classes(enumerate_irreducibles(params), params), params
    )


def test_character_field_levels():
    trivial = IrreducibleCharacter(0, 0, 0, 1)
    assert character_field_level(trivial, G1) == 0
    # G1 induced t=1 with omega of order 3 (= p^1 <= p^(n-s)): field Q(zeta_9)
    ch = next(
        c for c in enumerate_irreducibles(G1) if c.degree == 3 and c.u == 1
    )
    assert character_field_level(ch, G1) == 2
    # G3 induced t=1 with omega of order 9 > p^(n-s): field Q(zeta_9)
    ch = next(
        c for c in enumerate_irreducibles(G3) if c.degree == 3 and c.u % 3 == 1
    )
    assert character_field_level(ch, G3) == 2


def test_field_level_matches_value_minimal_level():
    from metacyclic.cyclotomic import minimal_level

    params = validate(3, 2, 2, 4)
    qa, qb = 9, 9
    for ch in enumerate_irreducibles(params):
        observed = 0
        for i in range(qa):
            for j in range(qb):
                value = character_value(ch, GroupElement(i, j), params)
                observed = max(observed, minimal_level(value))
        assert observed == character_field_level(ch, params)


def test_galois_class_structure_g1():
    chars = enumerate_irreducibles(G1)
    classes = galois_classes(chars, G1)
    # t = 1: 18 characters of degree 3 in 3 classes of size phi(9) = 6
    deg3 = [cls for cls in classes if cls.representative.degree == 3]
    assert len(deg3) == 3
    assert all(cls.size == 6 for cls in deg3)
    # identity automorphism fixes every member
    for cls in classes[:5]:
        for member in cls.members:
            assert sigma_on_character(member, 1, G1) == member
    # partition
    assert sum(cls.size for cls in classes) == len(chars)
    assert len(classes) == 21


def test_galois_classes_reject_incomplete_input():
    chars = enumerate_irreducibles(G3)
    with pytest.raises(ValidationError):
        galois_classes(chars[:-1], G3)


def test_class_sizes_match_field_degree():
    for params in (G3, validate(3, 2, 2, 4), validate(5, 2, 1, 6)):
        for cls in galois_classes(enumerate_irreducibles(params), params):
            phi = 1 if cls.field_level == 0 else (
                params.p ** cls.field_level - params.p ** (cls.field_level - 1)
            )
            assert cls.size == phi
            for member in cls.members:
                assert character_field_level(member, params) == cls.field_level


def test_parameter_action_matches_value_action_small():
    # character_value + galois_apply route, element by element
    params = validate(3, 2, 1, 4)
    chars = enumerate_irreducibles(params)
    units = [a for a in range(1, 9) if a % 3]
    for ch in chars:
        for alpha in units:
            image = sigma_on_character(ch, alpha, params)
            assert image in set(chars)
            for i in range(9):
                for j in range(3):
                    g = GroupElement(i, j)
                    lhs = galois_apply(character_value(ch, g, params), alpha)
                    assert lhs == character_value(image, g, params)


def test_sigma_keeps_t_and_degree():
    for params in (G1, G3, validate(5, 2, 1, 6), validate(3, 2, 2, 1, abelian=True)):
        chars = enumerate_irreducibles(params)
        listed = set(chars)
        units = [a for a in range(1, params.p ** max(params.n, params.m)) if a % params.p]
        for ch in chars:
            for alpha in units:
                image = sigma_on_character(ch, alpha, params)
                assert (image.t, image.degree) == (ch.t, ch.degree)
                assert image in listed


def test_galois_class_stores_only_members_and_level():
    assert GaloisClass._fields == ("members", "field_level")
    for cls in galois_classes(enumerate_irreducibles(G3), G3):
        assert cls.representative == cls.members[0] == min(cls.members)
        assert cls.size == len(cls.members)


def test_oracle_decompositions_match_frozen_goldens():
    assert oracle_decomposition(G1).as_multiset() == G1_COMPONENTS
    assert oracle_decomposition(G2).as_multiset() == G2_COMPONENTS
    assert oracle_decomposition(G3).as_multiset() == G3_COMPONENTS


def test_dimension_identity():
    for params in (G1, G2, G3):
        assert oracle_decomposition(params).dimension() == params.order


def test_rational_counts_from_classes():
    classes = galois_classes(enumerate_irreducibles(G1), G1)
    counts = rational_counts_from_classes(classes, G1)
    # top degree 9 * phi(9) = 54 occurs once
    assert counts == {1: 1, 2: 4, 6: 12, 18: 3, 54: 1}
    classes = galois_classes(enumerate_irreducibles(G3), G3)
    assert rational_counts_from_classes(classes, G3) == {1: 1, 2: 4, 6: 6, 18: 5}


def test_nonlinear_class_counts_follow_the_two_cases():
    # for each degree p^t: if n-s >= m-t there are p^(m-t) classes, all with
    # field level n-s; otherwise p^(n-s) classes at level n-s plus
    # phi(p^(n-s)) classes at each level n-s < L <= m-t
    from metacyclic.arith import phi_pk
    from metacyclic.group import from_s

    sets = [G1, G2, G3, validate(3, 2, 2, 4), validate(5, 3, 2, 26),
            from_s(3, 2, 5, 1), from_s(3, 4, 3, 3)]
    for params in sets:
        p, n, m, s = params.p, params.n, params.m, params.s
        classes = galois_classes(enumerate_irreducibles(params), params)
        for t in range(1, s + 1):
            histogram = {}
            for cls in classes:
                if cls.representative.degree == p ** t and cls.representative.t > 0:
                    histogram[cls.field_level] = histogram.get(cls.field_level, 0) + 1
            if n - s >= m - t:
                expected = {n - s: p ** (m - t)}
            else:
                expected = {n - s: p ** (n - s)}
                for level in range(n - s + 1, m - t + 1):
                    expected[level] = phi_pk(p, n - s)
            assert histogram == expected, (params, t, histogram, expected)


def test_class_members_share_values_up_to_galois():
    rng = random.Random(11)
    params = G3
    classes = galois_classes(enumerate_irreducibles(params), params)
    cls = next(c for c in classes if c.size == 6 and c.representative.degree == 3)
    rep = cls.representative
    for member in cls.members:
        # some unit alpha carries rep's values to member's values
        found = False
        for alpha in (a for a in range(1, 27) if a % 3):
            if sigma_on_character(rep, alpha, params) == member:
                found = True
                for _ in range(10):
                    g = GroupElement(rng.randrange(9), rng.randrange(27))
                    assert galois_apply(
                        character_value(rep, g, params), alpha
                    ) == character_value(member, g, params)
                break
        assert found


# the (p, n, m, s) grid with p^(n+m) <= 10^4, plus twists with k != 1
GRID = [q for p in (3, 5, 7) for q in valid_parameter_sets(p, 10 ** 4)] + [
    validate(3, 4, 2, 10), validate(5, 4, 2, 51), validate(7, 3, 2, 15)
]


def all_units_galois_classes(chars, params):
    """Reference: each class is the image set of every unit mod p^C."""
    p = params.p
    units = [a for a in range(1, p ** max(params.n, params.m)) if a % p]
    seen, classes = set(), []
    for ch in sorted(chars):
        if ch in seen:
            continue
        orbit = {sigma_on_character(ch, alpha, params) for alpha in units}
        members = tuple(sorted(orbit))
        seen |= orbit
        level = character_field_level(members[0], params)
        classes.append(GaloisClass(members, level))
    return classes


def test_generator_walk_equals_all_units_classes(monkeypatch):
    # the last two groups of GRID lie above the oracle bound, which
    # `enumerate_irreducibles` checks first: it is lifted here, where the
    # Galois walk on their characters is the point
    monkeypatch.setattr(complex_reps, "check_oracle_bound", lambda params: None)
    for params in GRID:
        chars = enumerate_irreducibles(params)
        assert galois_classes(chars, params) == all_units_galois_classes(chars, params), params
        # a plain tuple would compare equal in the classes above
        assert type(sigma_on_character(chars[-1], 2, params)) is IrreducibleCharacter


@pytest.mark.parametrize("escape", [False, True])
def test_broken_action_is_rejected_quickly(monkeypatch, escape):
    params = validate(3, 4, 2, 10)
    chars = enumerate_irreducibles(params)
    calls = []

    def broken(chars, alpha, params):
        # every image leaves the list, or sticks at chars[1] and never
        # returns to chars[0]
        calls.append(alpha)
        return [(0, -1, -1, 1) if escape else chars[1]] * len(chars)

    monkeypatch.setattr(rational, "_images", broken)
    start = time.perf_counter()
    with pytest.raises(InternalInconsistencyError) as exc:
        galois_classes(chars, params)
    assert time.perf_counter() - start < 2
    assert len(calls) == 1  # one bulk pass: the walk applies no action itself
    assert ("escapes" if escape else "exceeds phi(p^4) steps") in str(exc.value)


def test_galois_classes_reject_duplicates():
    # a copy of another character of the same degree keeps sum(deg^2) = |G|,
    # so only the duplicates check can reject the list
    chars = enumerate_irreducibles(G1)
    for degree in (1, 3):
        first, second = [k for k, ch in enumerate(chars) if ch.degree == degree][:2]
        copied = chars[:second] + [chars[first]] + chars[second + 1:]
        with pytest.raises(ValidationError, match="contains duplicates"):
            galois_classes(copied, G1)


@pytest.mark.parametrize("replaced", [(0, 2, 0, 1), (0, 1, 0, 1)])
def test_out_of_range_entry_is_diagnosed_as_an_escape(replaced):
    # u = 9 = p^m lies outside every enumerated range, so (0, 0, 9, 1) is
    # no duplicate of (0, 1, 0, 1); the preimage under sigma_2 of the
    # replaced entry, (0, 1, 0, 1) or (0, 5, 0, 1), then has no listed image
    chars = enumerate_irreducibles(G1)
    k = chars.index(replaced)
    changed = chars[:k] + [IrreducibleCharacter(0, 0, 9, 1)] + chars[k + 1:]
    with pytest.raises(InternalInconsistencyError, match="escapes"):
        galois_classes(changed, G1)


def test_image_keeps_the_degree():
    # swapping the degrees of a linear and a degree-3 character keeps
    # sum(deg^2) = |G|; the images of each swapped character keep its new
    # degree, so they are not in the list
    chars = enumerate_irreducibles(G1)
    k1 = next(k for k, ch in enumerate(chars) if ch.degree == 1 and ch.l == 1)
    k3 = next(k for k, ch in enumerate(chars) if ch.degree == 3)
    swapped = list(chars)
    swapped[k1] = chars[k1]._replace(degree=3)
    swapped[k3] = chars[k3]._replace(degree=1)
    with pytest.raises(InternalInconsistencyError, match="escapes"):
        galois_classes(swapped, G1)


def test_shuffled_input_gives_identical_classes():
    rng = random.Random(17)
    for params in (G1, G2, G3, validate(5, 2, 2, 6), validate(3, 2, 2, 1, abelian=True)):
        chars = enumerate_irreducibles(params)
        expected = galois_classes(chars, params)
        for _ in range(3):
            shuffled = list(chars)
            rng.shuffle(shuffled)
            assert galois_classes(shuffled, params) == expected
