import random
from fractions import Fraction

import pytest

from metacyclic import deep
from metacyclic.complex_reps import character_value, enumerate_irreducibles
from metacyclic.components import SimpleComponent, WedderburnDecomposition
from metacyclic.cyclotomic import CyclotomicElement, galois_apply, reduce_power_vector
from metacyclic.errors import SizeBoundError
from metacyclic.group import (
    GroupElement,
    conjugacy_classes,
    from_s,
    valid_parameter_sets,
    validate,
)
from metacyclic.deep import (
    DeepChecker,
    MonomialMatrix,
    basis_characters,
    monomial_generators,
    value_table,
)
from metacyclic.verify import cross_validate, decomposition_via_oracle, diff_components


def test_valid_parameter_sets_grid():
    sets = list(valid_parameter_sets(3, 243))
    assert [(q.n, q.m, q.s) for q in sets] == [
        (2, 1, 1), (2, 2, 1), (3, 1, 1),
        (2, 3, 1), (3, 2, 1), (3, 2, 2), (4, 1, 1),
    ]
    assert all(q.r == 1 + q.p ** (q.n - q.s) for q in sets)


def test_cross_validate_matches_everywhere_small():
    for params in valid_parameter_sets(3, 729):
        result = cross_validate(params)
        assert not result.diff, result.diff


def test_diff_reports_changes():
    a = WedderburnDecomposition(3, (SimpleComponent(1, 0, 1), SimpleComponent(3, 1, 2)))
    b = WedderburnDecomposition(3, (SimpleComponent(1, 0, 1), SimpleComponent(3, 1, 3)))
    assert diff_components(a, a) == []
    assert diff_components(a, b) == ["q=3 lambda=1: closed=2 oracle=3"]


def test_oracle_bound_enforced():
    with pytest.raises(SizeBoundError):
        decomposition_via_oracle(from_s(3, 6, 4, 1))


def test_abelian_oracle_route():
    params = validate(3, 2, 2, 1, abelian=True)
    result = cross_validate(params)
    assert not result.diff
    assert result.closed.as_multiset() == {(1, 0): 1, (1, 1): 4, (1, 2): 12}


def _abelian_groups():
    """Every C_{p^n} x C_{p^m} with p in {3, 5, 7, 11} and |G| <= 10^4,
    n < m, n = 0 and m = 0 included."""
    for p in (3, 5, 7, 11):
        for n in range(9):
            for m in range(9):
                if 1 <= n + m and p ** (n + m) <= 10 ** 4:
                    yield validate(p, n, m, 1, abelian=True)


def test_general_oracle_on_every_small_abelian_group():
    # the s = 0 member of the family runs the general oracle, which must
    # give the Perlis-Walker decomposition and the closed-form counts
    from metacyclic.formulas import rational_counts_closed_form, wedderburn_closed_form
    from metacyclic.rational import galois_classes, rational_counts_from_classes

    groups = list(_abelian_groups())
    assert len(groups) == 87
    for params in groups:
        p, n, m = params.p, params.n, params.m
        assert decomposition_via_oracle(params) == wedderburn_closed_form(params)
        classes = galois_classes(enumerate_irreducibles(params), params)
        assert (
            rational_counts_from_classes(classes, params)
            == rational_counts_closed_form(params).by_degree
        ), (p, n, m)


@pytest.mark.parametrize("p, n, m", [(3, 1, 0), (3, 2, 2), (5, 1, 1), (3, 0, 3), (7, 1, 1)])
def test_deep_checks_pass_on_abelian_groups(p, n, m):
    # |G| <= 243: orthogonality runs over all pairs
    results = DeepChecker(cross_validate(validate(p, n, m, 1, abelian=True))).run_all()
    assert all(r.ok for r in results), [(r.name, r.detail) for r in results if not r.ok]


def test_verify_resolves_only_the_two_benchmark_names_from_deep():
    from metacyclic import verify

    assert verify.DeepChecker is deep.DeepChecker
    assert verify.value_table is deep.value_table
    for name in ("monomial_form", "MonomialMatrix", "CheckResult", "sigma_on_character"):
        with pytest.raises(AttributeError):
            getattr(verify, name)


def test_monomial_exponent_against_character_value():
    # every cell of every value table, the s = 2, k = 2 twist (3,3,2,7),
    # p = 5 and an abelian group included
    from metacyclic.cyclotomic import root_power

    groups = (validate(3, 2, 1, 4), validate(3, 3, 2, 7), validate(5, 2, 1, 6),
              validate(3, 2, 1, 1, abelian=True))
    for params in groups:
        level = params.ambient_level
        qa, qb = params.p ** params.n, params.p ** params.m
        for ch in enumerate_irreducibles(params):
            table = value_table(ch, params)
            assert len(table) == params.order
            for i in range(qa):
                for j in range(qb):
                    exponent = table[i * qb + j]
                    slow = character_value(ch, GroupElement(i, j), params)
                    if exponent is None:
                        assert slow == 0
                    else:
                        assert slow == ch.degree * root_power(params.p, level, exponent)


def test_orthogonality_slow_route_sample():
    # independent CyclotomicElement computation of a few inner products
    params = validate(3, 2, 1, 4)
    chars = enumerate_irreducibles(params)
    rng = random.Random(2)
    for _ in range(12):
        x, y = rng.choice(chars), rng.choice(chars)
        total = CyclotomicElement.rational(3, 0)
        for i in range(9):
            for j in range(3):
                g = GroupElement(i, j)
                value = character_value(x, g, params)
                conj = galois_apply(character_value(y, g, params), -1)
                total = total + value * conj
        scaled = total * Fraction(1, params.order)
        assert scaled == (1 if x == y else 0)


def test_deep_checker_full_suite():
    for params in (validate(3, 2, 2, 4), validate(5, 2, 1, 6)):
        checker = DeepChecker(cross_validate(params), rng=random.Random(0))
        results = checker.run_all()
        assert all(res.ok for res in results), [
            (res.name, res.detail) for res in results if not res.ok
        ]
        names = {res.name for res in results}
        assert {
            "counts", "class_functions", "orthogonality", "galois_action",
            "matrix_relations", "value_agreement", "rational_counts",
            "decomposition",
        } <= names


def _combine(ch, basis, qc):
    """Character ch's cells over the basis rows (or tables) X_0..X_s, Y:
    l X_t + u Y mod p^C, None where X_t or Y is None."""
    return [
        None if x is None or y is None else (ch.l * x + ch.u * y) % qc
        for x, y in zip(basis[ch.t], basis[-1])
    ]


def _row(checker, k):
    """Character k's exponents on the class representatives, read from the
    basis rows the checks read."""
    return _combine(checker.chars[k], checker.basis_rows, checker.qc)


def _bump(checker, b, c):
    """Poison basis row b at class c: a value moves by 1, a None becomes 0."""
    row = checker.basis_rows[b]
    row[c] = 0 if row[c] is None else (row[c] + 1) % checker.qc


def test_orthogonality_detects_corruption():
    # one poisoned basis cell breaks a pair that reads it: a Y cell under a
    # pair of linear characters, an X_0 and an X_1 cell under a pair of
    # degrees 1 and 3, and an X_1 support cell under a diagonal entry
    cross = cross_validate(validate(3, 2, 1, 4))  # 3 and 4 linear, 9 of degree 3
    cases = [((3, 4), -1, 5), ((3, 9), 0, 9), ((3, 9), 1, 10), ((9, 9), 1, 1)]
    for (x, y), b, c in cases:
        checker = DeepChecker(cross)
        assert checker._pair_orthogonal(x, y, {})
        _bump(checker, b, c)
        assert not checker._pair_orthogonal(x, y, {}), (x, y, b, c)
    # a Y cell turned to None drops its class from the diagonal sum
    checker = DeepChecker(cross)
    checker.basis_rows[-1][5] = None
    assert not checker._pair_orthogonal(3, 3, {})


def test_orthogonality_check_names_the_first_failing_entry():
    # |G| = 27, all pairs in order: an X_1 cell is read by every pair with a
    # degree-3 side, and the first of them is (0, 9)
    checker = DeepChecker(cross_validate(validate(3, 2, 1, 4)))
    _bump(checker, 1, 9)
    assert checker.check_orthogonality() == ("orthogonality", False, "pair (0, 9)")

    # |G| = 3125, sampled: replay the draws of Random(3)
    cross = cross_validate(from_s(5, 3, 2, 1))
    count = len(cross.chars)
    replay = random.Random(3)
    pairs = [(replay.randrange(count), replay.randrange(count))
             for _ in range(deep.ORTHOGONALITY_PAIRS)]
    # the identity's cells are 0 and never None: poisoning Y there breaks
    # the first drawn pair with u_x != u_y; poisoning X_1 there breaks the
    # first that reads X_1, here one of degree 1 and one of degree 5
    chars = cross.chars
    first_y = next(pair for pair in pairs if chars[pair[0]].u != chars[pair[1]].u)
    first_x = next(pair for pair in pairs if 1 in (chars[pair[0]].t, chars[pair[1]].t))
    assert (first_y, first_x) == ((243, 606), (485, 640))
    for b, first in ((-1, first_y), (1, first_x)):
        checker = DeepChecker(cross, rng=random.Random(3))
        _bump(checker, b, 0)
        assert checker.check_orthogonality() == ("orthogonality", False, f"pair {first}")

    # |G| = 6561, s = 3: the six characters of degree 27 are drawn for the
    # fourth diagonal entry and for no pair, so an X_3 support cell breaks
    # only that entry
    cross = cross_validate(from_s(3, 4, 4, 3))
    count = len(cross.chars)
    top = [k for k, ch in enumerate(cross.chars) if ch.t == 3]
    replay = random.Random(1845)
    pairs = [(replay.randrange(count), replay.randrange(count))
             for _ in range(deep.ORTHOGONALITY_PAIRS)]
    diagonal = [replay.randrange(count) for _ in range(5)]
    assert not set(top) & {k for pair in pairs for k in pair}
    assert [k in top for k in diagonal] == [False, False, False, True, False]
    assert diagonal[3] == 315
    checker = DeepChecker(cross, rng=random.Random(1845))
    _bump(checker, 3, checker.basis_rows[3].index(None))
    assert checker.check_orthogonality() == ("orthogonality", False, "diagonal 315")


def test_galois_action_check_is_not_vacuous():
    # |G| = 27: every character under g = 2; one poisoned basis cell breaks
    # the characters that read it: a Y cell, then an X_1 cell that only the
    # degree-3 characters read. Character 10 shares its (a, b) with a linear
    # character, so a verdict memo keyed without t would pass the X_1 cell
    params = validate(3, 2, 1, 4)
    cross = cross_validate(params)
    assert DeepChecker(cross).check_galois_action() == (
        "galois_action", True, "chars=11 triples=6")
    for b, c, detail in ((-1, 1, "char 2 alpha 2"), (1, 9, "char 10 alpha 2")):
        checker = DeepChecker(cross)
        _bump(checker, b, c)
        assert checker.check_galois_action() == ("galois_action", False, detail)


def test_galois_action_checks_every_character_at_every_order():
    # |G| = 2187, above EXHAUSTIVE_ORDER_BOUND: the X_2 cell at the class of
    # b, off the support S_2, turned to 0. Only the 18 degree-9 characters of
    # 315 read it, so a sample of characters can miss it
    checker = DeepChecker(cross_validate(from_s(3, 4, 3, 2)))
    assert checker.check_galois_action() == ("galois_action", True, "chars=315 triples=12")
    assert checker.basis_rows[2][1] is None
    _bump(checker, 2, 1)
    assert checker.check_galois_action() == ("galois_action", False, "char 299 alpha 2")


def test_galois_action_requires_a_generator(monkeypatch):
    # p^C = 81, phi = 54, g = 2. sigma_8 = sigma_(g^3) and sigma_1 act on
    # Irr(G) as well, so every image passes; only the order of g tells them
    # from a generator, whose cycles are the full orbits
    cross = cross_validate(from_s(3, 4, 3, 2))
    real = deep.unit_group_generator
    assert real(3, 4) == 2
    for fake, g in ((lambda p, e: pow(real(p, e), p, p ** e), 8), (lambda p, e: 1, 1)):
        monkeypatch.setattr(deep, "unit_group_generator", fake)
        result = DeepChecker(cross).check_galois_action()
        assert result == ("galois_action", False, f"alpha {g} not of order 54")


def test_galois_image_of_another_degree_fails_the_check(monkeypatch):
    # under g = 2, the linear character 3 = (t, l, u) = (0, 1, 0) sent to
    # the listed degree-3 character 10 = (1, 2, 0), then character 9 = (1, 1, 0)
    # sent to the linear character 6 = (0, 2, 0): g l - l' = g u - u' = 0,
    # so g psi - psi' vanishes on the source's support, and only the
    # degree, which sigma_g keeps, tells each image from the true one
    cross = cross_validate(validate(3, 2, 1, 4))
    real = deep._images
    for source, image in ((3, 10), (9, 6)):
        src, img = cross.chars[source], cross.chars[image]
        assert src.degree != img.degree and (2 * src.l - img.l, 2 * src.u - img.u) == (0, 0)

        def poisoned(chars, alpha, params, source=source, image=image):
            images = real(chars, alpha, params)
            images[source] = chars[image]
            return images

        monkeypatch.setattr(deep, "_images", poisoned)
        result = DeepChecker(cross).check_galois_action()
        assert result == ("galois_action", False, f"char {source} alpha 2")


def test_galois_image_outside_the_list_fails_the_check(escaping_galois_image):
    # an image that is no listed character is a failed pair, not a KeyError
    # that would end the whole report
    checker = DeepChecker(cross_validate(validate(3, 2, 1, 4)), rng=random.Random(0))
    result = checker.check_galois_action()
    assert not result.ok
    assert result.detail.startswith("char ")
    results = checker.run_all()
    assert len(results) == 8
    assert [r.name for r in results if not r.ok] == ["galois_action"]


def test_decomposition_check_detects_corrupted_closed_form(request):
    params = validate(3, 2, 3, 4)
    assert DeepChecker(cross_validate(params)).check_decomposition().ok
    request.getfixturevalue("corrupted_closed_form")
    result = DeepChecker(cross_validate(params)).check_decomposition()
    assert not result.ok
    assert "closed=2 oracle=1" in result.detail


def test_matrix_relation_check_is_not_vacuous():
    params = validate(3, 3, 2, 4)
    checker = DeepChecker(cross_validate(params), rng=random.Random(0))
    assert checker.check_matrix_relations().ok
    # a poisoned b matrix, and separately a poisoned X_1 or Y cell, must
    # each break the trace comparison
    k = next(k for k, c in enumerate(checker.chars) if c.degree == 3 and c.u)  # reads Y
    a_mat, b_mat = monomial_generators(checker.chars[k], params)
    assert checker._traces_match(k, a_mat, b_mat)
    bad = b_mat.__class__(b_mat.modulus, b_mat.perm,
                          tuple((e + 1) % b_mat.modulus for e in b_mat.exps))
    assert not checker._traces_match(k, a_mat, bad)

    qb = params.p ** params.m
    c = checker.class_index[0][3 * qb + 3]  # class of a^3 b^3: i = j = 0 mod d = 3
    for b in (1, -1):
        checker = DeepChecker(cross_validate(params))
        _bump(checker, b, c)
        assert not checker._traces_match(k, a_mat, b_mat)

    # B replaced by the identity, under degree-p characters with u = 0: at
    # a^0 b^1, where p^t does not divide j, the trace is d and the value 0,
    # so the comparison must read B^j at every class
    for params, k in ((validate(3, 2, 1, 4), 9), (validate(3, 3, 2, 4), 27),
                      (from_s(5, 3, 2, 1), 625)):
        checker = DeepChecker(cross_validate(params))
        ch = checker.chars[k]
        assert (ch.degree, ch.u) == (params.p, 0)
        a_mat, b_mat = monomial_generators(ch, params)
        assert checker._traces_match(k, a_mat, b_mat)
        assert not checker._traces_match(k, a_mat, MonomialMatrix.identity(checker.qc, ch.degree))


def test_vanishes_agrees_with_the_reduction():
    # the shift test against the canonical reduction, at p = 3, 5, 7 and
    # C = 1, 2, 3: random sparse sums (zero entries included), sums of
    # shifted p-gons (which vanish), and each with one coefficient moved
    rng = random.Random(24)
    for p in (3, 5, 7):
        groups = [validate(p, 1, 1, 1, abelian=True), from_s(p, 2, 1, 1), from_s(p, 3, 1, 1)]
        for level, params in enumerate(groups, start=1):
            checker = DeepChecker(cross_validate(params))
            qc = p ** level
            assert (params.ambient_level, checker.qc) == (level, qc)
            step, verdicts = qc // p, set()
            for _ in range(60):
                random_sums = {rng.randrange(qc): rng.randint(-3, 3)
                               for _ in range(rng.randint(1, 8))}
                gons = {}
                for _ in range(rng.randint(1, 3)):
                    base, coeff = rng.randrange(qc), rng.choice((-2, -1, 1, 2))
                    for j in range(p):  # zeta^base (1 + zeta^step + ... ) = 0
                        e = (base + j * step) % qc
                        gons[e] = gons.get(e, 0) + coeff
                assert checker._vanishes(gons)
                moved = []
                for sums in (random_sums, gons):
                    e = rng.choice(list(sums))
                    moved.append({**sums, e: sums[e] + rng.choice((-1, 1))})
                for sums in [random_sums, gons] + moved:
                    dense = [0] * qc
                    for e, c in sums.items():
                        dense[e] = c
                    verdict = checker._vanishes(sums)
                    assert verdict is (not any(reduce_power_vector(p, level, dense)))
                    verdicts.add(verdict)
            assert verdicts == {True, False}


def _is_class_function(table, classes):
    """Reference: the per-class loop that the representative index replaced."""
    for cls in classes:
        first = table[cls[0]]
        if any(table[g] != first for g in cls[1:]):
            return False
    return True


def _poisoned_value_table(target, poisoned):
    """A `value_table` that returns `poisoned` for the character `target`."""
    def fake(ch, params):
        return list(poisoned) if ch == target else value_table(ch, params)
    return fake


def test_class_function_check_is_not_vacuous(monkeypatch):
    params = validate(3, 2, 1, 4)  # |G| = 27
    assert DeepChecker(cross_validate(params)).check_class_functions().ok
    x0 = basis_characters(params)[0]  # X_0: a value in every cell
    classes = conjugacy_classes(params)
    big = next(cls for cls in classes if len(cls) > 1)
    central = [cls for cls in classes if len(cls) == 1][-1]
    clean = value_table(x0, params)

    for cls, ok in ((big, False), (central, True)):
        table = list(clean)
        g = cls[-1]
        table[g] = (table[g] + 1) % 9
        monkeypatch.setattr(deep, "value_table", _poisoned_value_table(x0, table))
        result = DeepChecker(cross_validate(params)).check_class_functions()
        assert result.ok is ok
        if not ok:
            assert result.detail == "in class of GroupElement(i=0, j=1)"  # big = (1, 10, 19)


def test_class_rep_index_agrees_with_per_class_loop():
    # the identity psi = l X_t + u Y on S_t: every row built from the basis
    # rows, spread over class_of, is the character's own table. Every
    # character while #Irr * |G| <= 10^5, a spread of them above it.
    groups = [q for p in (3, 5, 7) for q in valid_parameter_sets(p, 10 ** 4)]
    groups += [
        validate(3, 3, 2, 7),  # s = 2 with the twist k = 2
        validate(3, 2, 2, 1, abelian=True),
        validate(3, 3, 0, 1, abelian=True),  # m = 0
        validate(3, 0, 3, 1, abelian=True),  # n = 0
    ]
    for params in groups:
        checker = DeepChecker(cross_validate(params), rng=random.Random(0))
        classes, class_of = conjugacy_classes(params), checker.class_index[0]
        ks = range(len(checker.chars))
        if len(ks) * params.order > 10 ** 5:
            ks = ks[::max(1, len(ks) // 16)]
        for k in ks:
            table, row = value_table(checker.chars[k], params), _row(checker, k)
            assert _is_class_function(table, classes)
            assert [row[c] for c in class_of] == table, (params, k)
        # one poisoned table: the last element of the largest class
        poisoned = value_table(checker.chars[0], params)
        poisoned[max(classes, key=len)[-1]] += 1
        assert params.abelian or not _is_class_function(poisoned, classes)
        row = _row(checker, 0)
        assert [row[c] for c in class_of] != poisoned


def _full_pair_orthogonal(checker, tables, x, y):
    """Reference: sum_g psi_x(g) conj(psi_y(g)) == |G| [x = y], with the
    sum taken over every cell of both tables and compared coefficient-wise."""
    params = checker.params
    level = params.ambient_level
    qc = params.p ** level
    coeff = checker.chars[x].degree * checker.chars[y].degree
    acc = [0] * qc
    for e1, e2 in zip(tables[x], tables[y]):
        if e1 is not None and e2 is not None:
            acc[(e1 - e2) % qc] += coeff
    reduced = reduce_power_vector(params.p, level, acc)
    return reduced == [params.order if x == y else 0] + [0] * (len(reduced) - 1)


def _full_traces_match(checker, table, k, a_mat, b_mat):
    """Reference: tr(A^i B^j) against the table on every group element,
    with A^i built by repeated multiplication and the trace read off the
    diagonal of the product."""
    params = checker.params
    level = params.ambient_level
    qc = params.p ** level
    qa, qb = params.p ** params.n, params.p ** params.m
    degree = checker.chars[k].degree
    a_pow = MonomialMatrix.identity(qc, len(a_mat.perm))
    for i in range(qa):
        b_pow = MonomialMatrix.identity(qc, len(b_mat.perm))
        for j in range(qb):
            prod = a_pow * b_pow
            vec = [0] * qc
            for c, target in enumerate(prod.perm):
                if target == c:
                    vec[prod.exps[c]] += 1
            expected = [0] * qc
            if table[i * qb + j] is not None:
                expected[table[i * qb + j]] = degree
            if (reduce_power_vector(params.p, level, vec)
                    != reduce_power_vector(params.p, level, expected)):
                return False
            b_pow = b_pow * b_mat
        a_pow = a_pow * a_mat
    return True


def test_class_representative_sums_match_full_group_walks():
    for params in (validate(3, 3, 2, 7), validate(5, 2, 1, 6)):
        checker = DeepChecker(cross_validate(params), rng=random.Random(0))
        tables = [value_table(ch, params) for ch in checker.chars]
        count = len(checker.chars)
        for x in range(count):
            for y in range(count):
                assert (checker._pair_orthogonal(x, y, {})
                        is _full_pair_orthogonal(checker, tables, x, y))
        # each basis row poisoned at one class, and its table on that whole
        # class, class by class: the verdicts on the pairs among the first
        # and last characters of each degree, every t_x != t_y included,
        # must agree, false ones too
        class_of, qc = checker.class_index[0], checker.qc
        some = [pool[i] for t in range(params.s + 1) for i in (0, -1)
                for pool in [[k for k, ch in enumerate(checker.chars) if ch.t == t]]]
        clean = [list(row) for row in checker.basis_rows]
        clean_tables = [value_table(form, params) for form in basis_characters(params)]
        verdicts = set()
        for b, row in enumerate(clean):
            for c, e in enumerate(row):
                _bump(checker, b, c)
                basis = list(clean_tables)
                basis[b] = [checker.basis_rows[b][c] if class_of[g] == c else v
                            for g, v in enumerate(basis[b])]
                poisoned = {k: _combine(checker.chars[k], basis, qc) for k in some}
                for x in some:
                    for y in some:
                        verdict = checker._pair_orthogonal(x, y, {})
                        assert verdict is _full_pair_orthogonal(checker, poisoned, x, y), (b, c)
                        verdicts.add(verdict)
                checker.basis_rows[b][c] = e
        assert checker.basis_rows == clean and verdicts == {True, False}
        for degree in sorted({ch.degree for ch in checker.chars} - {1}):
            pool = [k for k, ch in enumerate(checker.chars) if ch.degree == degree]
            for k, other in zip(pool, pool[1:] + pool[:1]):
                # its own matrices, and those of another character of the
                # same degree: both satisfy the relations, only one matches
                for source, verdict in ((k, True), (other, False)):
                    a_mat, b_mat = monomial_generators(checker.chars[source], params)
                    assert checker._traces_match(k, a_mat, b_mat) is verdict
                    assert _full_traces_match(checker, tables[k], k, a_mat, b_mat) is verdict


def test_run_all_catches_every_single_cell_poisoning(monkeypatch):
    # every cell of every basis table: a wrong value, and a support cell
    # turned to None or from None to a value
    params = validate(3, 2, 1, 4)  # |G| = 27: all pairs, every Galois image
    qc = params.p ** params.ambient_level
    cross = cross_validate(params)
    poisonings = 0
    for form in basis_characters(params):
        clean = value_table(form, params)
        for g, e in enumerate(clean):
            for wrong in ((0,) if e is None else ((e + 1) % qc, None)):
                poisoned = list(clean)
                poisoned[g] = wrong
                monkeypatch.setattr(deep, "value_table", _poisoned_value_table(form, poisoned))
                failed = [res.name for res in DeepChecker(cross).run_all() if not res.ok]
                assert failed, (form, g, wrong)
                poisonings += 1
    assert poisonings == 2 * 27 + (2 * 3 + 24) + 2 * 27  # S_1 holds 3 of the 27 cells


def _move_one_element(classes):
    """`conjugacy_classes` with the last element of the largest class
    moved into the class of the identity."""
    def fake(params):
        out = [list(cls) for cls in classes(params)]
        big = max(out, key=len)
        out[0].append(big.pop())
        return [tuple(sorted(cls)) for cls in out]
    return fake


def _shifted_form(da, db):
    """A `monomial_form` with da added to A and B multiplied by db."""
    form = deep.monomial_form

    def fake(ch, params):
        d, a_exp, b_exp = form(ch, params)
        qc = params.p ** params.ambient_level
        return d, (a_exp + da) % qc, b_exp * db % qc
    return fake


def test_run_all_fails_on_each_poison(monkeypatch):
    # a wrong basis cell, a wrong support cell (both ways), a wrong
    # class_of entry and a wrong monomial_form each read FAIL
    params = validate(3, 2, 1, 4)
    cross = cross_validate(params)
    x0, x1, y = basis_characters(params)
    assert all(res.ok for res in DeepChecker(cross).run_all())

    def failed():
        return {res.name: res.detail for res in DeepChecker(cross).run_all() if not res.ok}

    def poison_cell(form, g, value):
        table = value_table(form, params)
        table[g] = value
        monkeypatch.setattr(deep, "value_table", _poisoned_value_table(form, table))

    poison_cell(y, 19, 1)  # basis cell: Y(a^6 b) is 3, its class reads 3 everywhere
    assert failed()["class_functions"] == "in class of GroupElement(i=0, j=1)"
    poison_cell(x1, 9, None)  # support: a^3 is in S_1
    assert "orthogonality" in failed()
    poison_cell(x1, 1, 0)  # support: b is not in S_1
    assert failed()["class_functions"] == "in class of GroupElement(i=0, j=1)"
    poison_cell(y, 9, None)  # Y is never None; a^3 is central, so only the rows show it
    assert "class_functions" not in failed() and "orthogonality" in failed()
    monkeypatch.undo()

    monkeypatch.setattr(deep, "conjugacy_classes", _move_one_element(conjugacy_classes))
    assert failed()["class_functions"] == "in class of GroupElement(i=0, j=0)"
    monkeypatch.undo()

    monkeypatch.setattr(deep, "monomial_form", _shifted_form(1, 1))
    assert "class_functions" in failed()
    monkeypatch.undo()
    # B doubled keeps every table a class function and every row a
    # character: only the slow path sees it
    monkeypatch.setattr(deep, "monomial_form", _shifted_form(0, 2))
    assert list(failed()) == ["value_agreement"]


@pytest.mark.parametrize("p, n, m, r", [(3, 3, 2, 7), (5, 2, 1, 6)])
def test_run_all_builds_only_the_basis_tables(monkeypatch, p, n, m, r):
    # s + 2 tables per group, each built once, all by the class-function
    # check; every later check reads their rows
    params = validate(p, n, m, r)
    built = []

    def counting(ch, params):
        built.append(ch)
        return value_table(ch, params)

    monkeypatch.setattr(deep, "value_table", counting)
    checker = DeepChecker(cross_validate(params))
    assert all(res.ok for res in checker.run_all())
    assert built == basis_characters(params) and len(built) == params.s + 2
    h = len(checker.class_index[1])
    assert [len(row) for row in checker.basis_rows] == [h] * (params.s + 2)


def _class_function_reference(table, classes, qb):
    """Reference verdict and detail: the table's representative cells,
    spread over every element, must give the table back."""
    class_of = [0] * len(table)
    for c, cls in enumerate(classes):
        for g in cls:
            class_of[g] = c
    row = [table[cls[0]] for cls in classes]
    if [row[c] for c in class_of] == table:
        return True, ""
    bad = next(cls for cls in classes if len({table[g] for g in cls}) > 1)
    return False, f"in class of {GroupElement(*divmod(bad[0], qb))}"


def _certificate_groups():
    for p in (3, 5, 7):
        yield from valid_parameter_sets(p, 729)
    yield validate(3, 3, 2, 7)  # s = 2 with the twist k = 2
    yield validate(3, 2, 5, 4)  # p^m > p^n
    yield validate(3, 2, 2, 1, abelian=True)  # every class one cell
    yield validate(3, 3, 0, 1, abelian=True)  # m = 0: one strand


def test_class_function_certificate_equals_full_spread(monkeypatch):
    # one basis table poisoned at a time: the check's verdict and detail
    # are those of the full spread of that table
    groups = list(_certificate_groups())
    assert len(groups) == 21
    rng = random.Random(13)
    failed = 0
    for params in groups:
        qb = params.p ** params.m
        qc = params.p ** params.ambient_level
        cross = cross_validate(params)
        classes = conjugacy_classes(params)
        form = rng.choice(basis_characters(params))
        clean = value_table(form, params)
        big = [cells for cells in classes if len(cells) > 1] or classes
        poisonings = []
        last, second = rng.choice(big), rng.choice(big)
        for g in (last[-1], second[min(1, len(second) - 1)]):  # one cell
            poisoned = list(clean)
            poisoned[g] = 0 if clean[g] is None else (clean[g] + 1) % qc
            poisonings.append((poisoned, None))
        poisoned = list(clean)
        poisoned[rng.randrange(params.order)] = None
        poisonings.append((poisoned, None))
        cells = rng.choice(classes)  # a whole class: still a class function
        poisoned = list(clean)
        value = 0 if clean[cells[0]] is None else (clean[cells[0]] + 1) % qc
        for g in cells:
            poisoned[g] = value
        poisonings.append((poisoned, True))
        for poisoned, expected in poisonings:
            monkeypatch.setattr(deep, "value_table", _poisoned_value_table(form, poisoned))
            result = DeepChecker(cross).check_class_functions()
            ok, detail = _class_function_reference(poisoned, classes, qb)
            assert (result.ok, result.ok or result.detail) == (ok, ok or detail), params
            assert expected is None or result.ok is expected
            failed += not result.ok
    assert failed >= 2 * 17  # both one-cell poisonings fail on every non-abelian group
