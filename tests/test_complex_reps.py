import random

import pytest

from metacyclic import complex_reps
from metacyclic.complex_reps import (
    IrreducibleCharacter,
    canonical_orbit_label,
    character_value,
    enumerate_irreducibles,
    orbit_decomposition,
    orbit_members,
)
from metacyclic.cyclotomic import CyclotomicElement, root_power
from metacyclic.errors import InternalInconsistencyError, SizeBoundError
from metacyclic.group import (
    GroupElement,
    _r_power_table,
    from_s,
    valid_parameter_sets,
    validate,
)
from metacyclic.deep import monomial_generators


def degree_histogram(chars):
    out = {}
    for ch in chars:
        out[ch.degree] = out.get(ch.degree, 0) + 1
    return out


def brute_force_orbits(params):
    """Orbits of k -> r k on Z/p^n, computed directly from the action."""
    q = params.p ** params.n
    seen = [False] * q
    orbits = []
    for k in range(q):
        if seen[k]:
            continue
        orbit = []
        x = k
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = x * params.r % q
        orbits.append(frozenset(orbit))
    return set(orbits)


def test_orbit_decomposition_counts():
    params = validate(3, 4, 2, 10)
    orbits = orbit_decomposition(params)
    linear = [o for o in orbits if o[0] == 0]
    by_t = {}
    for t, l in orbits:
        if t >= 1:
            by_t[t] = by_t.get(t, 0) + 1
    assert len(linear) == 9
    assert by_t == {1: 6, 2: 6}
    assert 9 + 6 * 3 + 6 * 9 == 81  # orbit sizes tile Irr(<a>)

    small = validate(3, 2, 1, 4)
    orbits = orbit_decomposition(small)
    assert sum(t == 0 for t, l in orbits) == 3
    assert sum(t >= 1 for t, l in orbits) == 2


def test_orbits_match_direct_action():
    for params in (validate(3, 4, 2, 10), validate(3, 2, 1, 4), validate(5, 3, 2, 26)):
        direct = brute_force_orbits(params)
        rebuilt = {frozenset(orbit_members(params, *o)) for o in orbit_decomposition(params)}
        assert rebuilt == direct


def test_label_is_minimum_of_orbit():
    grid = [q for p in (3, 5, 7) for q in valid_parameter_sets(p, 10 ** 4)] + [
        validate(3, 4, 2, 10), validate(5, 4, 2, 51), validate(7, 3, 2, 15)
    ]
    for params in grid:
        p = params.p
        for t in range(1, params.s + 1):
            q = p ** (params.n - params.s + t)
            steps = _r_power_table(params)[: p ** t]
            for l in range(1, q):
                if l % p:
                    assert canonical_orbit_label(params, l) == min(
                        l * step % q for step in steps
                    ), (params, t, l)


def test_orbit_decomposition_rejects_bad_tiling(monkeypatch):
    params = validate(3, 4, 2, 10)
    real = complex_reps.orbit_members
    # orbit (1, 1) trades its last member for the member of orbit (0, 0):
    # the member count stays p^n, so only an exact tiling check rejects it
    (taken,) = real(params, 0, 0)

    def repeating(params, t, l):
        members = real(params, t, l)
        return members[:-1] + [taken] if (t, l) == (1, 1) else members

    assert sum(len(repeating(params, *o)) for o in orbit_decomposition(params)) == 3 ** 4
    for patched in (lambda params, t, l: [0], repeating):
        monkeypatch.setattr(complex_reps, "orbit_members", patched)
        with pytest.raises(InternalInconsistencyError, match="do not tile"):
            orbit_decomposition(params)


def test_orbit_decomposition_at_s0_is_all_singletons():
    # r = 1 fixes every character of <a>: p^n singleton orbits, no induced ones
    for p, n, m in ((3, 2, 1), (5, 1, 2), (3, 3, 0)):
        params = validate(p, n, m, 1, abelian=True)
        orbits = orbit_decomposition(params)
        assert orbits == [(0, lam) for lam in range(p ** n)]
        assert sorted(k for o in orbits for k in orbit_members(params, *o)) == list(range(p ** n))


def test_enumerate_counts():
    g1 = enumerate_irreducibles(validate(3, 4, 2, 10))
    assert degree_histogram(g1) == {1: 81, 3: 18, 9: 6}
    assert len(g1) == 105
    g2 = enumerate_irreducibles(validate(3, 3, 3, 4))
    assert degree_histogram(g2) == {1: 81, 3: 18, 9: 6}
    assert len(g2) == 105  # = 3^4 + 3^3 - 3
    for chars, order in ((g1, 729), (g2, 729)):
        assert sum(ch.degree ** 2 for ch in chars) == order


def test_enumeration_checks_the_oracle_bound_first():
    with pytest.raises(SizeBoundError, match="exceeds the oracle bound"):
        enumerate_irreducibles(from_s(3, 8, 2, 1))  # |G| = 3^10 > 10^4
    assert len(enumerate_irreducibles(from_s(3, 7, 1, 1))) == 3 ** 7 + 3 ** 6 - 3 ** 5


def test_enumeration_rejects_a_wrong_character_count(monkeypatch):
    # the last orbit, (2, 8) of degree 9, listed twice past the tiling
    # check: one character too many, and the count check names it before
    # the sum of degree^2 fails too
    real = complex_reps.orbit_decomposition
    monkeypatch.setattr(complex_reps, "orbit_decomposition",
                        lambda params: real(params) + real(params)[-1:])
    with pytest.raises(InternalInconsistencyError, match="character count 106 != 105"):
        enumerate_irreducibles(validate(3, 4, 2, 10))


def test_enumeration_is_duplicate_free():
    chars = enumerate_irreducibles(validate(3, 2, 3, 4))
    assert len(set(chars)) == len(chars) == 99


def test_enumeration_is_the_documented_sorted_list():
    # every (t, l, u, p^t): t = 0 over all l < p^(n-s), t >= 1 over the
    # units l < p^(n-s), u < p^(m-t); `verify --deep` draws characters by
    # index, so this order is part of its output. The characters are built
    # in bulk, so each must still be an IrreducibleCharacter, on the whole
    # p = 3, 5, 7 grid up to 10^4 (the `verify --all` grid) too
    grid = [params for p in (3, 5, 7) for params in valid_parameter_sets(p, 10 ** 4)]
    assert len(grid) == 44
    for params in (validate(3, 2, 1, 4), validate(3, 4, 2, 10),
                   validate(5, 1, 2, 1, abelian=True), *grid):
        p, n, m, s = params.p, params.n, params.m, params.s
        expected = [
            IrreducibleCharacter(0, l, u, 1) for l in range(p ** (n - s)) for u in range(p ** m)
        ]
        for t in range(1, s + 1):
            expected += [
                IrreducibleCharacter(t, l, u, p ** t)
                for l in range(1, p ** (n - s)) if l % p
                for u in range(p ** (m - t))
            ]
        chars = enumerate_irreducibles(params)
        assert chars == sorted(expected), params
        assert all(type(ch) is IrreducibleCharacter for ch in chars)


def test_character_value_examples():
    params = validate(3, 2, 3, 4)
    nonlinear = [ch for ch in enumerate_irreducibles(params) if ch.degree == 3]
    a = GroupElement(1, 0)
    for ch in nonlinear:
        assert character_value(ch, GroupElement(0, 0), params) == 3
        assert character_value(ch, a, params) == 0
        # psi(a^(p^t)) = p^t * zeta^(l p^s)
        t, l = ch.t, ch.l
        expected = (3 ** t) * root_power(3, 2, l * 3 ** params.s)
        assert character_value(ch, GroupElement(3 ** t, 0), params) == expected


def test_linear_character_values():
    params = validate(3, 2, 3, 4)
    linear = [ch for ch in enumerate_irreducibles(params) if ch.degree == 1]
    rng = random.Random(3)
    for ch in rng.sample(linear, 10):
        lam, u = ch.l, ch.u
        for _ in range(5):
            i, j = rng.randrange(9), rng.randrange(27)
            expected = root_power(3, 2, lam * 3 * i) * root_power(3, 3, u * j)
            assert character_value(ch, GroupElement(i, j), params) == expected


def dense_matmul(x, y, p):
    d = len(x)
    zero = CyclotomicElement.rational(p, 0)
    out = [[zero] * d for _ in range(d)]
    for i in range(d):
        for k in range(d):
            if x[i][k] == 0:
                continue
            for j in range(d):
                if y[k][j] == 0:
                    continue
                out[i][j] = out[i][j] + x[i][k] * y[k][j]
    return out


def dense_pow(mat, e, p):
    d = len(mat)
    out = [
        [CyclotomicElement.rational(p, 1 if i == j else 0) for j in range(d)]
        for i in range(d)
    ]
    base = mat
    while e:
        if e & 1:
            out = dense_matmul(out, base, p)
        base = dense_matmul(base, base, p)
        e >>= 1
    return out


def trace(mat, p):
    total = CyclotomicElement.rational(p, 0)
    for i in range(len(mat)):
        total = total + mat[i][i]
    return total


def to_dense(mat, p, level):
    """The d x d matrix of a `MonomialMatrix`: row c holds zeta^exps[c] at
    column perm[c] and zeros elsewhere."""
    d = len(mat.perm)
    out = [[CyclotomicElement.rational(p, 0)] * d for _ in range(d)]
    for c in range(d):
        out[c][mat.perm[c]] = root_power(p, level, mat.exps[c])
    return out


def dense_generators(ch, params):
    """Dense images of a and b: `monomial_generators` expanded entry by entry."""
    level = params.ambient_level
    a_mat, b_mat = monomial_generators(ch, params)
    return to_dense(a_mat, params.p, level), to_dense(b_mat, params.p, level)


def test_materialized_matrices_satisfy_relations():
    for params in (validate(3, 2, 1, 4), validate(3, 3, 2, 7)):
        p = params.p
        for ch in enumerate_irreducibles(params):
            a_img, b_img = dense_generators(ch, params)
            d = ch.degree
            ident = [
                [CyclotomicElement.rational(p, 1 if i == j else 0) for j in range(d)]
                for i in range(d)
            ]
            assert dense_pow(a_img, p ** params.n, p) == ident
            assert dense_pow(b_img, p ** params.m, p) == ident
            # B A = A^r B
            assert dense_matmul(b_img, a_img, p) == dense_matmul(
                dense_pow(a_img, params.r, p), b_img, p
            )


def test_matrix_traces_reproduce_character_values():
    params = validate(3, 2, 1, 4)
    for ch in enumerate_irreducibles(params):
        a_img, b_img = dense_generators(ch, params)
        for i in range(9):
            for j in range(3):
                mat = dense_matmul(dense_pow(a_img, i, 3), dense_pow(b_img, j, 3), 3)
                assert trace(mat, 3) == character_value(ch, GroupElement(i, j), params)


def test_b_power_is_omega_identity():
    # B^(p^t) = omega * I, omega = zeta_{p^(m-t)}^u, for every character of
    # degree p^t (t = 0 for a linear one)
    params = validate(3, 3, 3, 4)
    for ch in enumerate_irreducibles(params):
        d = ch.degree
        t = ch.t
        _, b_img = dense_generators(ch, params)
        power = dense_pow(b_img, d, 3)
        omega = root_power(3, params.m - t, ch.u)
        for i in range(d):
            for j in range(d):
                assert power[i][j] == (omega if i == j else 0)
