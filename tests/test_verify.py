import math
import random
from fractions import Fraction

import pytest

from metacyclic import verify
from metacyclic.complex_reps import character_value, enumerate_irreducibles
from metacyclic.cyclotomic import CyclotomicElement, galois_apply, reduce_power_vector
from metacyclic.errors import SizeBoundError
from metacyclic.group import GroupElement, from_s, validate
from metacyclic.rational import SimpleComponent, WedderburnDecomposition
from metacyclic.verify import (
    DeepChecker,
    MonomialMatrix,
    ambient_level,
    cross_validate,
    decomposition_via_oracle,
    diff_components,
    monomial_generators,
    valid_parameter_sets,
    value_table,
)


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
        assert result.match, result.diff


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
    assert result.match
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
    from metacyclic.formulas import abelian_closed_form, rational_counts_closed_form
    from metacyclic.rational import galois_classes, rational_counts_from_classes

    groups = list(_abelian_groups())
    assert len(groups) == 87
    for params in groups:
        p, n, m = params.p, params.n, params.m
        assert decomposition_via_oracle(params) == abelian_closed_form(p, max(n, m), min(n, m))
        classes = galois_classes(enumerate_irreducibles(params), params)
        assert (
            rational_counts_from_classes(classes, params)
            == rational_counts_closed_form(params).by_degree
        ), (p, n, m)


@pytest.mark.parametrize("p, n, m", [(3, 1, 0), (3, 2, 2), (5, 1, 1), (3, 0, 3), (7, 1, 1)])
def test_deep_checks_pass_on_abelian_groups(p, n, m):
    # |G| <= 243: orthogonality and the Galois action run exhaustively
    results = DeepChecker(validate(p, n, m, 1, abelian=True)).run_all()
    assert all(r.ok for r in results), [(r.name, r.detail) for r in results if not r.ok]


def test_monomial_exponent_against_character_value():
    # every cell of every value table, the s = 2, k = 2 twist (3,3,2,7) included
    from metacyclic.cyclotomic import root_power

    for params in (validate(3, 2, 1, 4), validate(3, 3, 2, 7)):
        level = ambient_level(params)
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
        checker = DeepChecker(params, rng=random.Random(0))
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


def test_orthogonality_detects_corruption():
    # feed the checker a wrong row and make sure the pair sum notices
    params = validate(3, 2, 1, 4)
    checker = DeepChecker(params, rng=random.Random(0))
    assert checker._pair_orthogonal(3, 4)
    row = checker.row(3)
    row[5] = (row[5] + 1) % 9  # poison the value at one class representative
    assert not checker._pair_orthogonal(3, 4)


def test_galois_action_check_is_not_vacuous():
    # |G| = 27: every character under every unit; one poisoned row cell
    # breaks the pairs that read that row as source or as image
    params = validate(3, 2, 1, 4)
    checker = DeepChecker(params, rng=random.Random(0))
    assert checker.check_galois_action().ok
    row = checker.row(4)
    row[1] = (row[1] + 1) % 9
    result = checker.check_galois_action()
    assert not result.ok
    assert result.detail.startswith("char ")


def test_decomposition_check_detects_corrupted_closed_form(monkeypatch):
    params = validate(3, 2, 3, 4)
    checker = DeepChecker(params, rng=random.Random(0))
    assert checker.check_decomposition().ok
    closed = verify.wedderburn_closed_form(params)
    first = closed.components[0]
    bumped = SimpleComponent(first.matrix_size, first.center_level,
                             first.multiplicity + 1)
    corrupted = WedderburnDecomposition(3, (bumped,) + closed.components[1:])
    monkeypatch.setattr(verify, "wedderburn_closed_form", lambda params: corrupted)
    result = checker.check_decomposition()
    assert not result.ok
    assert "closed=2 oracle=1" in result.detail


def test_matrix_relation_check_is_not_vacuous():
    params = validate(3, 3, 2, 4)
    checker = DeepChecker(params, rng=random.Random(0))
    assert checker.check_matrix_relations().ok
    # a poisoned b matrix, and separately a poisoned row, must each
    # break the trace comparison
    from metacyclic.verify import monomial_generators

    k = next(k for k, c in enumerate(checker.chars) if c.degree == 3)
    a_mat, b_mat = monomial_generators(checker.chars[k], params)
    assert checker._traces_match(k, a_mat, b_mat)
    bad = b_mat.__class__(b_mat.modulus, b_mat.perm,
                          tuple((e + 1) % b_mat.modulus for e in b_mat.exps))
    assert not checker._traces_match(k, a_mat, bad)

    qb, qc = params.p ** params.m, params.p ** ambient_level(params)
    row = checker.row(k)
    c = checker.class_index[0][3 * qb + 3]  # class of a^3 b^3: i = j = 0 mod d = 3
    row[c] = (row[c] + 1) % qc
    assert not checker._traces_match(k, a_mat, b_mat)


def _is_class_function(table, classes, qb):
    """Reference: the per-class loop that the representative index replaced."""
    for cls in classes:
        first = table[cls[0].i * qb + cls[0].j]
        if any(table[g.i * qb + g.j] != first for g in cls[1:]):
            return False
    return True


def _poisoned_value_table(target, poisoned):
    """A `value_table` that returns `poisoned` for the character `target`."""
    def fake(ch, params):
        return list(poisoned) if ch == target else value_table(ch, params)
    return fake


def test_class_function_check_is_not_vacuous(monkeypatch):
    params = validate(3, 2, 1, 4)  # |G| = 27
    qb = params.p ** params.m
    checker = DeepChecker(params, rng=random.Random(0))
    assert checker.check_class_functions().ok
    trivial = checker.chars[0]  # a value in every cell
    big = next(cls for cls in checker.conj_classes if len(cls) > 1)
    central = [cls for cls in checker.conj_classes if len(cls) == 1][-1]
    clean = value_table(trivial, params)

    for cls, ok in ((big, False), (central, True)):
        table = list(clean)
        g = cls[-1].i * qb + cls[-1].j
        table[g] = (table[g] + 1) % 9
        monkeypatch.setattr(verify, "value_table", _poisoned_value_table(trivial, table))
        result = checker.check_class_functions()
        assert result.ok is ok
        if not ok:
            assert result.detail == f"in class of {cls[0]}"


def test_class_rep_index_agrees_with_per_class_loop():
    for params in (validate(3, 3, 2, 7), validate(5, 2, 1, 6)):
        qb = params.p ** params.m
        checker = DeepChecker(params, rng=random.Random(0))
        classes, class_of = checker.conj_classes, checker.class_index[0]
        tables = [value_table(ch, params) for ch in checker.chars]
        for k, table in enumerate(tables):
            assert _is_class_function(table, classes, qb)
            assert [checker.row(k)[c] for c in class_of] == table
        # one poisoned table: the last element of the largest class
        poisoned = list(tables[0])
        last = max(classes, key=len)[-1]
        poisoned[last.i * qb + last.j] += 1
        assert not _is_class_function(poisoned, classes, qb)
        assert [checker.row(0)[c] for c in class_of] != poisoned


def _full_inner_product(checker, tables, x, y):
    """Reference: the inner product summed over every cell of both tables."""
    params = checker.params
    level = ambient_level(params)
    qc = params.p ** level
    coeff = checker.chars[x].degree * checker.chars[y].degree
    acc = [0] * qc
    for e1, e2 in zip(tables[x], tables[y]):
        if e1 is not None and e2 is not None:
            acc[(e1 - e2) % qc] += coeff
    return reduce_power_vector(params.p, level, acc)


def _full_traces_match(checker, table, k, a_mat, b_mat):
    """Reference: tr(A^i B^j) against the table on every group element,
    with A^i built by repeated multiplication and the trace read off the
    diagonal of the product."""
    params = checker.params
    level = ambient_level(params)
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
        checker = DeepChecker(params, rng=random.Random(0))
        tables = [value_table(ch, params) for ch in checker.chars]
        count = len(checker.chars)
        for x in range(count):
            for y in range(count):
                assert (checker._inner_product(x, y)
                        == _full_inner_product(checker, tables, x, y))
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
    params = validate(3, 2, 1, 4)  # |G| = 27: all pairs, every Galois image
    qc = params.p ** ambient_level(params)
    chars = enumerate_irreducibles(params)
    linear = next(ch for ch in chars if ch.degree == 1)
    induced = next(ch for ch in chars if ch.degree > 1)
    for ch in (linear, induced):
        clean = value_table(ch, params)
        for g, e in enumerate(clean):
            poisoned = list(clean)
            poisoned[g] = 0 if e is None else (e + 1) % qc
            monkeypatch.setattr(verify, "value_table", _poisoned_value_table(ch, poisoned))
            failed = [res.name for res in DeepChecker(params).run_all() if not res.ok]
            assert failed, (ch, g)


@pytest.mark.parametrize("p, n, m, r", [(3, 3, 2, 7), (5, 2, 1, 6)])
def test_run_all_keeps_one_row_per_character(monkeypatch, p, n, m, r):
    # each table is built once, by the class-function check, and only its
    # h class-representative cells are kept
    params = validate(p, n, m, r)
    built = []

    def counting(ch, params):
        built.append(ch)
        return value_table(ch, params)

    monkeypatch.setattr(verify, "value_table", counting)
    checker = DeepChecker(params)
    assert all(res.ok for res in checker.run_all())
    assert sorted(built) == checker.chars
    h = len(checker.conj_classes)
    assert all(len(checker.row(k)) == h for k in range(len(checker.chars)))
    assert len(built) == len(checker.chars)


def _class_function_reference(table, classes, qb):
    """Reference verdict and detail: the table's representative cells,
    spread over every element, must give the table back."""
    class_of = [0] * len(table)
    for c, cls in enumerate(classes):
        for g in cls:
            class_of[g.i * qb + g.j] = c
    row = [table[cls[0].i * qb + cls[0].j] for cls in classes]
    if [row[c] for c in class_of] == table:
        return True, ""
    bad = next(cls for cls in classes
               if len({table[g.i * qb + g.j] for g in cls}) > 1)
    return False, f"in class of {bad[0]}"


def _certificate_groups():
    for p in (3, 5, 7):
        yield from valid_parameter_sets(p, 729)
    yield validate(3, 3, 2, 7)  # s = 2 with the twist k = 2
    yield validate(3, 2, 5, 4)  # p^m > p^n
    yield validate(3, 2, 2, 1, abelian=True)  # every class one cell
    yield validate(3, 3, 0, 1, abelian=True)  # m = 0: one strand


def test_class_function_certificate_equals_full_spread(monkeypatch):
    groups = list(_certificate_groups())
    assert len(groups) == 21
    rng = random.Random(13)
    failed = 0
    for params in groups:
        qb = params.p ** params.m
        qc = params.p ** ambient_level(params)
        checker = DeepChecker(params)
        classes = checker.conj_classes
        if params.abelian:
            assert checker.domain[0](list(range(params.order))) == ()
        k = rng.randrange(len(checker.chars))
        clean = value_table(checker.chars[k], params)
        flat = [[g.i * qb + g.j for g in cls] for cls in classes]
        big = [cells for cells in flat if len(cells) > 1] or flat
        poisonings = []
        last, second = rng.choice(big), rng.choice(big)
        for g in (last[-1], second[min(1, len(second) - 1)]):  # one cell
            poisoned = list(clean)
            poisoned[g] = 0 if clean[g] is None else (clean[g] + 1) % qc
            poisonings.append((poisoned, None))
        poisoned = list(clean)
        poisoned[rng.randrange(params.order)] = None
        poisonings.append((poisoned, None))
        cells = rng.choice(flat)  # a whole class: still a class function
        poisoned = list(clean)
        value = 0 if clean[cells[0]] is None else (clean[cells[0]] + 1) % qc
        for g in cells:
            poisoned[g] = value
        poisonings.append((poisoned, True))
        for poisoned, expected in poisonings:
            monkeypatch.setattr(
                verify, "value_table",
                _poisoned_value_table(checker.chars[k], poisoned),
            )
            result = DeepChecker(params).check_class_functions()
            ok, detail = _class_function_reference(poisoned, classes, qb)
            assert (result.ok, result.ok or result.detail) == (ok, ok or detail), params
            assert expected is None or result.ok is expected
            failed += not result.ok
    assert failed >= 2 * 17  # both one-cell poisonings fail on every non-abelian group


def _value_table_per_cell(ch, params):
    """Reference: `value_table` with each row built cell by cell."""
    d, a_exp, b_exp = verify.monomial_form(ch, params)
    qa, qb = params.p ** params.n, params.p ** params.m
    qc = params.p ** ambient_level(params)
    period = max(d, qc // math.gcd(a_exp, qc))
    row = [b_exp * j % qc for j in range(0, qb, d)]
    block = [None] * (period * qb)
    for i in range(0, period, d):
        base = a_exp * i % qc
        block[i * qb:(i + 1) * qb:d] = [(base + e) % qc for e in row]
    return block * (qa // period)


def test_value_table_equals_per_cell_rows():
    # every character while #Irr * |G| <= 10^5; above it, a spread of
    # characters and the first with constant rows (step B d = 0 mod p^C)
    groups = [q for p in (3, 5, 7) for q in valid_parameter_sets(p, 10 ** 4)]
    groups += list(_abelian_groups())
    flat_rows = 0
    for params in groups:
        qc = params.p ** ambient_level(params)
        chars = enumerate_irreducibles(params)
        flat = [ch for ch in chars
                if verify.monomial_form(ch, params)[2] * ch.degree % qc == 0]
        if len(chars) * params.order > 10 ** 5:
            chars = chars[::max(1, len(chars) // 16)] + flat[:4]
        for ch in chars:
            assert value_table(ch, params) == _value_table_per_cell(ch, params), (params, ch)
        flat_rows += len(set(chars) & set(flat))
    assert flat_rows > len(groups)
