import random
import sys
from array import array
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
    # s = 0, every character linear; m = 0 and n = 0 included
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


def _tables(checker):
    """Every character's table, its row from the basis rows (poisoned ones
    included) spread over class_of: the tables that the checks speak about."""
    class_of = checker.class_index[0]
    rows = (_row(checker, k) for k in range(len(checker.chars)))
    return [[row[c] for c in class_of] for row in rows]


def _row_off_table(checker, c):
    """The class-function FAIL for a basis row that leaves its table at class c."""
    first = GroupElement(*divmod(checker.class_index[1][c], checker.params.p ** checker.params.m))
    return ("class_functions", False, f"in class of {first}")


def test_orthogonality_detects_corruption():
    # one poisoned basis cell breaks a pair that reads it: a Y cell under a
    # pair of linear characters, an X_0 and an X_1 cell under a pair of
    # degrees 1 and 3, and an X_1 support cell under a diagonal entry. The
    # class-function check names the cell, and the sum over G of the
    # tables spread from the poisoned rows fails on that pair.
    # Orthogonality reads only the forms, so it still passes
    params = validate(3, 2, 1, 4)
    cross = cross_validate(params)  # 3 and 4 linear, 9 of degree 3
    cases = [((3, 4), -1, 5), ((3, 9), 0, 9), ((3, 9), 1, 10), ((9, 9), 1, 1)]
    checker = DeepChecker(cross)
    assert checker.check_orthogonality().ok
    assert all(_full_pair_sums(params, checker.chars, _tables(checker), [x for x, _, _ in cases]))
    for pair, b, c in cases:
        checker = DeepChecker(cross)
        _bump(checker, b, c)
        assert checker.check_class_functions() == _row_off_table(checker, c)
        assert checker.check_orthogonality().ok
        assert not any(_full_pair_sums(params, checker.chars, _tables(checker), [pair])), pair
    # a Y cell turned to None drops its class from the diagonal sum
    checker = DeepChecker(cross)
    checker.basis_rows[-1][5] = None
    assert checker.check_class_functions() == _row_off_table(checker, 5)
    assert not any(_full_pair_sums(params, checker.chars, _tables(checker), [(3, 3)]))


def test_orthogonality_check_names_the_first_failing_entry():
    # a basis row that leaves its table is named by its class, by the
    # class-function check, whatever the rng: an X_1 cell at |G| = 27, a Y
    # and an X_1 cell at the identity at |G| = 3125, and an X_3 support
    # cell at |G| = 6561, s = 3
    checker = DeepChecker(cross_validate(validate(3, 2, 1, 4)))
    _bump(checker, 1, 9)
    assert checker.check_class_functions() == (
        "class_functions", False, "in class of GroupElement(i=3, j=0)")
    cross = cross_validate(from_s(5, 3, 2, 1))
    for b, seed in ((-1, 3), (1, 4)):
        checker = DeepChecker(cross, rng=random.Random(seed))
        _bump(checker, b, 0)
        assert checker.check_class_functions() == _row_off_table(checker, 0)
    checker = DeepChecker(cross_validate(from_s(3, 4, 4, 3)), rng=random.Random(1845))
    c = checker.basis_rows[3].index(None)
    _bump(checker, 3, c)
    assert checker.check_class_functions() == _row_off_table(checker, c)

    # a repeated table is named by its pair, T upwards, then in character
    # order: at (3,4,3,2), a degree-9 character copied onto another of
    # degree 9 and a linear one copied onto the last character collide at
    # T = 2 and at T = 0, and the linear pair is named though it comes last
    cross = cross_validate(from_s(3, 4, 3, 2))
    chars = list(cross.chars)
    nines = [k for k, ch in enumerate(chars) if ch.degree == 9]
    chars[nines[1]], chars[-1] = chars[nines[0]], chars[5]
    checker = DeepChecker(cross._replace(chars=chars))
    assert checker.check_orthogonality() == ("orthogonality", False, f"pair (5, {len(chars) - 1})")
    chars[-1] = cross.chars[-1]
    checker = DeepChecker(cross._replace(chars=chars))
    assert checker.check_orthogonality() == ("orthogonality", False, f"pair {tuple(nines[:2])}")


@pytest.mark.parametrize("seed", range(5))
def test_orthogonality_fails_a_repeated_table_above_243(seed):
    # (3,4,3,2), |G| = 2187: a degree-p^t character replaced (a) by an
    # exact copy of another of that degree, (b) by that other relabelled
    # u + p^(m-t), the same table under a non-canonical label whose B
    # differs by p^(C-t), so only the factor p^T of the bucket key joins
    # the two. The check fails both and names the pair; the sums over G
    # fail on that pair and on no other pair of the replaced character
    params = from_s(3, 4, 3, 2)
    cross = cross_validate(params)
    rng = random.Random(seed)
    x = rng.choice([k for k, ch in enumerate(cross.chars) if ch.t > 0])
    t = cross.chars[x].t
    y = rng.choice([k for k, ch in enumerate(cross.chars) if ch.t == t and k != x])
    relabelled = cross.chars[x]._replace(u=cross.chars[x].u + params.p ** (params.m - t))
    tables = [value_table(ch, params) for ch in cross.chars]
    for copy in (cross.chars[x], relabelled):
        chars = list(cross.chars)
        chars[y] = copy
        checker = DeepChecker(cross._replace(chars=chars), rng=random.Random(seed))
        assert checker.check_orthogonality() == (
            "orthogonality", False, f"pair {(min(x, y), max(x, y))}")
        tables[y] = value_table(copy, params)
        assert tables[y] == tables[x]
        pairs = [(min(k, y), max(k, y)) for k in range(len(chars))]
        verdicts = _full_pair_sums(params, chars, tables, pairs)
        assert [k for k, ok in enumerate(verdicts) if not ok] == [x]


def test_orthogonality_equals_full_group_sums_on_every_pair():
    # every non-abelian group to 729 (p = 3) and 625 (p = 5): the check
    # passes, as do the sums over G on every pair; with the last character
    # replaced by a copy of the first of its degree, the check names that
    # pair, and it is the one pair whose sum over G fails
    groups = [q for p, bound in ((3, 729), (5, 625)) for q in valid_parameter_sets(p, bound)]
    assert len(groups) == 16
    for params in groups:
        cross = cross_validate(params)
        chars, last = cross.chars, len(cross.chars) - 1
        tables = [value_table(ch, params) for ch in chars]
        pairs = [(x, y) for x in range(last + 1) for y in range(x, last + 1)]
        assert DeepChecker(cross).check_orthogonality().ok
        assert all(_full_pair_sums(params, chars, tables, pairs)), params
        first = next(k for k, ch in enumerate(chars) if ch.t == chars[last].t)
        poisoned = chars[:last] + [chars[first]]
        result = DeepChecker(cross._replace(chars=poisoned)).check_orthogonality()
        assert result == ("orthogonality", False, f"pair ({first}, {last})"), params
        tables[last] = tables[first]
        verdicts = _full_pair_sums(params, poisoned, tables, [(x, last) for x in range(last + 1)])
        assert [x for x, ok in enumerate(verdicts) if not ok] == [first], params


def test_a_missing_degree_reads_fail_not_an_exception():
    # without its degree-3 characters, or with none at all, the list still
    # gets all eight lines: the sampling checks name what they cannot draw,
    # and rational_counts finds classes whose members are not all listed
    cross = cross_validate(from_s(3, 2, 1, 1))
    linear = [ch for ch in cross.chars if ch.t == 0]
    for chars, failed in ((linear, {"counts", "matrix_relations", "rational_counts"}),
                          ([], {"counts", "matrix_relations", "value_agreement",
                                "rational_counts"})):
        results = DeepChecker(cross._replace(chars=chars), rng=random.Random(0)).run_all()
        assert len(results) == 8
        assert {r.name for r in results if not r.ok} == failed
        details = {r.name: r.detail for r in results}
        assert details["matrix_relations"] == "no character of degree 3"
        assert details["rational_counts"] == "class members != listed characters"
        if not chars:
            assert details["value_agreement"] == "no characters"


def test_rational_counts_ties_the_classes_to_the_listed_characters():
    # one class swapped for a copy of another of the same degree and field
    # level keeps every per-degree count, so only the members tie fails it
    cross = cross_validate(from_s(3, 2, 1, 1))
    assert DeepChecker(cross).check_rational_counts() == (
        "rational_counts", True, "degrees=[1, 2, 6]")
    first, second = [
        k for k, cls in enumerate(cross.classes)
        if (cls.representative.degree, cls.field_level) == (1, 1)
    ][:2]
    classes = list(cross.classes)
    classes[second] = classes[first]
    checker = DeepChecker(cross._replace(classes=classes))
    assert checker.check_rational_counts() == (
        "rational_counts", False, "class members != listed characters")


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
    # |G| = 2187: the X_2 cell at the class of b, off the support S_2,
    # turned to 0. Only the 18 degree-9 characters of
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

    # a cell of a large class, and a central cell, which keeps the table a
    # class function but moves it off the formula: both fail
    for cls, detail in ((big, "GroupElement(i=0, j=1)"),  # big = (1, 10, 19)
                        (central, str(GroupElement(*divmod(central[0], 3))))):
        table = list(clean)
        g = cls[-1]
        table[g] = (table[g] + 1) % 9
        monkeypatch.setattr(deep, "value_table", _poisoned_value_table(x0, table))
        result = DeepChecker(cross_validate(params)).check_class_functions()
        assert result == ("class_functions", False, f"in class of {detail}")


def test_class_function_check_fails_tables_that_stay_class_functions(monkeypatch):
    # (3,2,1,4): each basis table bumped at the central a^3, and each with
    # the whole class of b = (1, 10, 19) shifted by 1 (a None cell to 0).
    # Both tables stay constant on every class, yet leave the formula
    params = validate(3, 2, 1, 4)
    cross, classes = cross_validate(params), conjugacy_classes(params)
    assert (9,) in classes and (1, 10, 19) in classes
    for form in basis_characters(params):
        clean = value_table(form, params)
        for cells, first in (((9,), "GroupElement(i=3, j=0)"),
                             ((1, 10, 19), "GroupElement(i=0, j=1)")):
            poisoned = list(clean)
            for g in cells:
                poisoned[g] = 0 if clean[g] is None else (clean[g] + 1) % 9
            assert _is_class_function(poisoned, classes)
            monkeypatch.setattr(deep, "value_table", _poisoned_value_table(form, poisoned))
            result = DeepChecker(cross).check_class_functions()
            assert result == ("class_functions", False, f"in class of {first}"), form


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


def _lanes(values):
    """`values` as one int of 16-bit lanes. Every table is packed the same
    way, so lane-wise arithmetic does not depend on the byte order."""
    return int.from_bytes(array("H", values).tobytes(), sys.byteorder)


def _full_pair_sums(params, chars, tables, pairs):
    """Reference: yields, for each (x, y) in `pairs`, whether
    sum_g psi_x(g) conj(psi_y(g)) == |G| [x = y], the sum taken over every
    cell of both tables and tested by the dense reduction. The sum depends
    only on the degrees and on the differences e_x - e_y mod p^C over the
    common support, so it is taken once per distinct such difference table.
    With each table packed into 16-bit lanes, one per element, a pair's
    difference table is a few int operations."""
    level, order = params.ambient_level, params.order
    qc = params.p ** level
    assert 2 * qc < 0x8000
    ones = _lanes([1] * order)
    lifted = [_lanes([qc + (e or 0) for e in table]) for table in tables]
    plain = [_lanes([e or 0 for e in table]) for table in tables]
    present = [_lanes([0 if e is None else 0xFFFF for e in table]) for table in tables]
    sums = {}
    for x, y in pairs:
        diff = lifted[x] - plain[y]  # lanes e_x - e_y + p^C, in [1, 2 p^C): no borrow
        diff -= qc * (((diff + (0x8000 - qc) * ones) >> 15) & ones)  # p^C off lanes >= p^C
        both = present[x] & present[y]
        coeff = chars[x].degree * chars[y].degree
        key = (diff & both, both, coeff, x == y)
        if key not in sums:
            acc = [0] * qc
            for e1, e2 in zip(tables[x], tables[y]):
                if e1 is not None and e2 is not None:
                    acc[(e1 - e2) % qc] += coeff
            acc[0] -= order * (x == y)
            sums[key] = not any(reduce_power_vector(params.p, level, acc))
        yield sums[key]


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
        pairs = [(x, y) for x in range(count) for y in range(x, count)]
        assert checker.check_orthogonality().ok
        assert all(_full_pair_sums(params, checker.chars, tables, pairs))
        # each basis row poisoned at one class: the class-function check
        # names the cell, and the sums over G of the tables spread from the
        # poisoned rows fail on some pair
        clean = [list(row) for row in checker.basis_rows]
        for b, row in enumerate(clean):
            for c, e in enumerate(row):
                _bump(checker, b, c)
                assert checker.check_class_functions() == _row_off_table(checker, c)
                assert not all(_full_pair_sums(params, checker.chars, _tables(checker), pairs))
                checker.basis_rows[b][c] = e
        assert checker.basis_rows == clean
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


def test_counts_check_reads_the_brute_force_class_count(monkeypatch):
    # (3,2,1,4): the last two classes merged. The characters and both
    # count formulas are untouched, so only the class count disagrees
    cross = cross_validate(validate(3, 2, 1, 4))
    assert DeepChecker(cross).check_counts() == ("counts", True, "classes=11 chars=11")

    def merged(params):
        classes = conjugacy_classes(params)
        return classes[:-2] + [tuple(sorted(classes[-2] + classes[-1]))]

    monkeypatch.setattr(deep, "conjugacy_classes", merged)
    assert DeepChecker(cross).check_counts() == ("counts", False, "classes=10 chars=11")


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
    assert failed()["class_functions"] == "in class of GroupElement(i=3, j=0)"
    poison_cell(x1, 1, 0)  # support: b is not in S_1
    assert failed()["class_functions"] == "in class of GroupElement(i=0, j=1)"
    poison_cell(y, 9, None)  # Y is never None; a^3 is central, its row cell is the formula
    assert failed()["class_functions"] == "in class of GroupElement(i=3, j=0)"
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


def _class_function_reference(clean, table, classes, qb):
    """Reference verdict and detail: the clean formula table's
    representative cells, spread over every element, must give the table."""
    class_of = [0] * len(table)
    for c, cls in enumerate(classes):
        for g in cls:
            class_of[g] = c
    row = [clean[cls[0]] for cls in classes]
    if [row[c] for c in class_of] == table:
        return True, ""
    bad = next(cls for cls in classes if any(table[g] != clean[cls[0]] for g in cls))
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
    # are those of the full spread of the clean formula's representative
    # cells, so every poisoning that changes a cell fails, a whole class
    # shifted (still a class function) included
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
            poisonings.append((poisoned, False))
        g = rng.randrange(params.order)
        poisoned = list(clean)
        poisoned[g] = None
        poisonings.append((poisoned, clean[g] is None))  # a no-op on a None cell
        cells = rng.choice(classes)  # a whole class: still a class function
        poisoned = list(clean)
        value = 0 if clean[cells[0]] is None else (clean[cells[0]] + 1) % qc
        for g in cells:
            poisoned[g] = value
        poisonings.append((poisoned, False))
        for poisoned, expected in poisonings:
            monkeypatch.setattr(deep, "value_table", _poisoned_value_table(form, poisoned))
            result = DeepChecker(cross).check_class_functions()
            ok, detail = _class_function_reference(clean, poisoned, classes, qb)
            assert (result.ok, result.ok or result.detail) == (ok, ok or detail), params
            assert result.ok is expected
            failed += not result.ok
    assert failed >= 3 * 21  # both one-cell poisonings and the class shift, on every group
