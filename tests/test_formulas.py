from metacyclic.arith import phi_pk
from metacyclic.formulas import (
    complex_counts_closed_form,
    rational_counts_closed_form,
    wedderburn_closed_form,
)
from metacyclic.group import from_s, valid_parameter_sets, validate
from metacyclic.verify import cross_validate, decomposition_via_oracle

G1 = validate(3, 4, 2, 10)
G2 = validate(3, 3, 3, 4)
G3 = validate(3, 2, 3, 4)


def test_golden_decompositions():
    assert wedderburn_closed_form(G1).as_multiset() == {
        (1, 0): 1, (1, 1): 4, (1, 2): 12, (3, 2): 3, (9, 2): 1,
    }
    assert wedderburn_closed_form(G2).as_multiset() == {
        (1, 0): 1, (1, 1): 4, (1, 2): 3, (1, 3): 3,
        (3, 1): 3, (3, 2): 2, (9, 1): 3,
    }
    assert wedderburn_closed_form(G3).as_multiset() == {
        (1, 0): 1, (1, 1): 4, (1, 2): 3, (1, 3): 3, (3, 1): 3, (3, 2): 2,
    }


def test_golden_dimension_tallies():
    # G1: 1 + 4*2 + 12*6 + 3*9*6 + 81*6 = 729
    assert 1 + 4 * 2 + 12 * 6 + 3 * 9 * 6 + 81 * 6 == 729
    for params in (G1, G2, G3):
        assert wedderburn_closed_form(params).dimension() == params.order


def test_abelian_decomposition():
    cyclic = wedderburn_closed_form(from_s(3, 1, 0, 0))
    assert cyclic.as_multiset() == {(1, 0): 1, (1, 1): 1}  # QC_3 = Q + Q(z3)
    grid = wedderburn_closed_form(from_s(3, 2, 1, 0))
    assert grid.as_multiset() == {(1, 0): 1, (1, 1): 4, (1, 2): 3}
    assert grid.dimension() == 27


def _small_abelian(primes, max_order):
    """(p, n, m) with n + m >= 1 and p^(n+m) <= max_order, both orders."""
    for p in primes:
        for n in range(max_order.bit_length()):
            for m in range(max_order.bit_length()):
                if 0 < n + m and p ** (n + m) <= max_order:
                    yield p, n, m


def test_abelian_total_count_formula():
    for p, n, m in _small_abelian((3, 5), 5 ** 6):
        dec = wedderburn_closed_form(from_s(p, n, m, 0))
        total = sum(c.multiplicity for c in dec.components)
        expected = sum(
            (n + m + 1 - 2 * k) * phi_pk(p, k) for k in range(min(n, m) + 1)
        )
        assert total == expected, (p, n, m)


def brute_abelian_components(p, n, m):
    """Galois orbits of the character grid of C_{p^n} x C_{p^m}, directly."""
    qa, qb = p ** n, p ** m
    units = [a for a in range(1, p ** max(n, m)) if a % p] or [1]
    seen = set()
    components = {}
    for i in range(qa):
        for j in range(qb):
            if (i, j) in seen:
                continue
            orbit = {(alpha * i % qa, alpha * j % qb) for alpha in units}
            seen |= orbit
            li = 0 if i == 0 else n - _val(i, p)
            lj = 0 if j == 0 else m - _val(j, p)
            lam = max(li, lj)
            components[(1, lam)] = components.get((1, lam), 0) + 1
    return components


def _val(x, p):
    w = 0
    while x % p == 0:
        x //= p
        w += 1
    return w


def test_abelian_decomposition_matches_brute_force():
    # n < m, n = 0 and m = 0 included: the closed form is symmetric in n, m
    groups = list(_small_abelian((3, 5, 7), 729))
    assert (3, 0, 2) in groups and (5, 1, 3) in groups and (7, 3, 0) in groups
    for p, n, m in groups:
        dec = wedderburn_closed_form(from_s(p, n, m, 0))
        assert dec.as_multiset() == brute_abelian_components(p, n, m), (p, n, m)


def test_complex_counts():
    assert complex_counts_closed_form(G1) == {1: 81, 3: 18, 9: 6}
    assert complex_counts_closed_form(G2) == {1: 81, 3: 18, 9: 6}
    # s = m edge case
    edge = validate(3, 3, 1, 10)
    assert edge.s == 1
    assert complex_counts_closed_form(edge) == {1: 27, 3: 6}
    for params in (G1, G2, G3, edge):
        counts = complex_counts_closed_form(params)
        assert sum(d * d * c for d, c in counts.items()) == params.order


def test_rational_counts_closed_form():
    assert rational_counts_closed_form(G1).by_lambda == {0: 1, 1: 4, 2: 12, 3: 3, 4: 1}
    assert rational_counts_closed_form(G2).by_lambda == {0: 1, 1: 4, 2: 6, 3: 8}
    assert rational_counts_closed_form(G3).by_lambda == {0: 1, 1: 4, 2: 6, 3: 5}
    # by_degree keys are phi(p^lambda)
    assert rational_counts_closed_form(G1).by_degree == {1: 1, 2: 4, 6: 12, 18: 3, 54: 1}


def test_rational_totals_equal_component_counts():
    # per degree: a component (q, lam, mult) holds mult rational irreducibles
    # of degree q * phi(p^lam); every admitted group to 10^7, s = 0 included
    primes = (3, 5, 7, 11)
    groups = [g for p in primes for g in valid_parameter_sets(p, 10 ** 7)]
    groups += [
        validate(p, n, e - n, 1, abelian=True)
        for p in primes for e in range(1, 15) if p ** e <= 10 ** 7
        for n in range(e + 1)
    ]
    assert len(groups) == 575
    for params in groups:
        expected: dict[int, int] = {}
        for c in wedderburn_closed_form(params).components:
            degree = c.matrix_size * phi_pk(params.p, c.center_level)
            expected[degree] = expected.get(degree, 0) + c.multiplicity
        assert rational_counts_closed_form(params).by_degree == expected, params


def test_branch_routing_and_degenerate_ranges():
    # boundary n-s = m: min(n-s, m-t) = m-t and the lam-range is empty
    boundary = validate(3, 2, 1, 4)
    assert boundary.s == 1
    assert wedderburn_closed_form(boundary).as_multiset() == {
        (1, 0): 1, (1, 1): 4, (3, 1): 1,
    }
    # k = m-(n-s) = 1 <= s: at t = k the multiplicities p^(n-s) and p^(m-t)
    # coincide and the lam-range is empty
    k1 = validate(3, 2, 2, 4)
    assert wedderburn_closed_form(k1).as_multiset() == {
        (1, 0): 1, (1, 1): 4, (1, 2): 3, (3, 1): 3,
    }


def test_closed_form_equals_oracle_spot():
    for params in (G1, G2, G3, validate(5, 3, 2, 26), from_s(3, 5, 2, 2)):
        assert not cross_validate(params).diff
        assert wedderburn_closed_form(params) == decomposition_via_oracle(params)


def test_twist_coefficient_does_not_matter():
    # same (p, n, m, s), different k: identical decomposition
    for p, n, m, s in [(3, 4, 2, 2), (3, 3, 3, 2), (5, 3, 2, 1)]:
        base = wedderburn_closed_form(from_s(p, n, m, s))
        for k in range(2, min(p ** s, 6)):
            if k % p == 0:
                continue
            other = validate(p, n, m, 1 + k * p ** (n - s))
            assert other.s == s
            assert wedderburn_closed_form(other) == base


def test_abelian_params_route_through_closed_form():
    params = validate(3, 1, 2, 1, abelian=True)
    dec = wedderburn_closed_form(params)
    assert dec == wedderburn_closed_form(from_s(3, 2, 1, 0))


def test_counts_at_s0_are_abelian():
    # s = 0 runs the general formulas: every complex irreducible is linear,
    # and the rational counts are the degree counts of the decomposition
    # (n < m, n = 0 and m = 0 included)
    for p, n, m in ((3, 2, 2), (3, 1, 3), (5, 0, 2), (7, 2, 0), (3, 4, 1), (11, 0, 1)):
        params = validate(p, n, m, 1, abelian=True)
        assert complex_counts_closed_form(params) == {1: p ** (n + m)}
        expected: dict[int, int] = {}
        for c in wedderburn_closed_form(params).components:
            degree = phi_pk(p, c.center_level)
            expected[degree] = expected.get(degree, 0) + c.multiplicity
        assert rational_counts_closed_form(params).by_degree == expected
