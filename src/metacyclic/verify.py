"""Cross-validation between the closed form and the character-theoretic oracle.

`cross_validate` runs both routes on one group of any s (s = 0 is the
abelian group), and `diff_components` is the one comparison of their
component multisets. `cross_validate` and `decomposition_via_oracle` run
the oracle through `_oracle`, which passes `group.check_oracle_bound` before
it enumerates Irr(G). `DeepChecker` deepens a `CrossCheck`: it reads the
characters, Galois classes and component diff from it, and checks the bound
again before it walks all |G| elements.

Every irreducible psi = (t, l, u) has one monomial form (d, A, B), built
by `monomial_form`. With C = max(n, m), d = p^t, A = l p^(s-t) p^(C-n)
and B = u p^(C-m), all mod p^C (t = 0, d = 1 are the linear characters):

    psi(a^i b^j) = deg * zeta_{p^C}^(A i + B j)   if d | i and d | j,
                 = 0                               otherwise.

Value tables are therefore integer exponent tables, indexed by i p^m + j.
The exponent is l X_t + u Y mod p^C on the support S_t = {d | i, d | j},
where X_t = p^(s-t) p^(C-n) i mod p^C on S_t (None off it) and
Y = p^(C-m) j mod p^C are the tables of the basis forms (t, 1, 0) for
t = 0..s and (0, 0, 1), listed by `basis_characters`. The
orthogonality/trace sums reduce through the same canonical basis
reduction that CyclotomicElement uses.

`DeepChecker` stores one value form per character, its row: the table's
exponents on the h = #Irr class representatives, in class order, placed
by `class_index` = (class_of, reps) from the brute-force conjugacy
classes. Only the s + 2 basis tables are built in full, and
`check_class_functions` certifies, cell by cell, that each equals its
representative cells spread over class_of. A character's row is
l X_t + u Y over the basis rows, None where X_t is None. That row spread
over class_of is psi's table: the identity above holds cell by cell, and
the basis tables, support included, are constant on every class. So every
table is a class function, and every check after it reads rows only:
- orthogonality weights each representative by its class size, which is
  the full sum over G;
- the Galois action compares sigma-scaled rows;
- traces are compared on the representatives, which covers every element
  because the matrices satisfy the presentation relations (so their trace
  is a class function) and the table is a class function;
- value agreement reads the row cell of each sampled element's class.
The same (d, A, B) gives the monomial matrices: a -> diag(zeta^(r^c A))
for c = 0..d-1, b -> the cyclic shift with zeta^(d B) in the last row.
The deep checks tie this fast path to the exact slow one: the matrices
must satisfy the presentation relations and reproduce the rows as traces
on every class, and the rows must agree with `character_value` on random
elements.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import NamedTuple

from . import cyclotomic
from .components import WedderburnDecomposition
from .complex_reps import IrreducibleCharacter, character_value, enumerate_irreducibles
from .formulas import (
    complex_counts_closed_form,
    rational_counts_closed_form,
    wedderburn_closed_form,
)
from .group import (
    GroupElement,
    GroupParams,
    _r_power_table,
    check_oracle_bound,
    conjugacy_classes,
)
from .rational import (
    GaloisClass,
    galois_classes,
    rational_counts_from_classes,
    sigma_on_character,
    wedderburn_from_classes,
)


def _oracle(
    params: GroupParams,
) -> tuple[list[IrreducibleCharacter], list[GaloisClass], WedderburnDecomposition]:
    """Decompose from first principles: enumerate Irr(G), class it under
    the Galois action, and assemble one component per class. Returns the
    characters, the classes and the decomposition."""
    check_oracle_bound(params)
    chars = enumerate_irreducibles(params)
    classes = galois_classes(chars, params)
    return chars, classes, wedderburn_from_classes(classes, params)


def decomposition_via_oracle(params: GroupParams) -> WedderburnDecomposition:
    """The oracle's decomposition alone; the closed form does not run."""
    return _oracle(params)[2]


class CrossCheck(NamedTuple):
    params: GroupParams
    closed: WedderburnDecomposition
    oracle: WedderburnDecomposition
    diff: tuple[str, ...]  # empty exactly when the two routes agree
    chars: list[IrreducibleCharacter]  # Irr(G) in enumeration order
    classes: list[GaloisClass]


def diff_components(
    a: WedderburnDecomposition, b: WedderburnDecomposition
) -> list[str]:
    """Human-readable per-component differences (empty when equal)."""
    ma, mb = a.as_multiset(), b.as_multiset()
    out = []
    for key in sorted(set(ma) | set(mb)):
        ca, cb = ma.get(key, 0), mb.get(key, 0)
        if ca != cb:
            out.append(f"q={key[0]} lambda={key[1]}: closed={ca} oracle={cb}")
    return out


def cross_validate(params: GroupParams) -> CrossCheck:
    """Run both routes and compare the component multisets exactly."""
    closed = wedderburn_closed_form(params)
    chars, classes, oracle = _oracle(params)
    diff = diff_components(closed, oracle)
    return CrossCheck(params, closed, oracle, tuple(diff), chars, classes)


# ---------------------------------------------------------------------------
# monomial value tables
# ---------------------------------------------------------------------------

def ambient_level(params: GroupParams) -> int:
    """Level C with all character values inside Q(zeta_{p^C})."""
    return max(params.n, params.m)


def monomial_form(ch: IrreducibleCharacter, params: GroupParams) -> tuple[int, int, int]:
    """(d, A, B) with psi(a^i b^j) = deg * zeta_{p^C}^(A i + B j) when d
    divides both i and j, and 0 otherwise: d = p^t, A = l p^(s-t) p^(C-n),
    B = u p^(C-m), all exponents mod p^C.
    """
    p, n, m = params.p, params.n, params.m
    qc = p ** ambient_level(params)
    a_base = ch.l * p ** (params.s - ch.t)
    return p ** ch.t, a_base * (qc // p ** n) % qc, ch.u * (qc // p ** m) % qc


def value_table(ch: IrreducibleCharacter, params: GroupParams) -> list[int | None]:
    """Exponent table over all group elements, indexed by i * p^m + j:
    A i + B j mod p^C where d divides i and j, None elsewhere."""
    d, a_exp, b_exp = monomial_form(ch, params)
    qc = params.p ** ambient_level(params)
    return [
        (a_exp * i + b_exp * j) % qc if i % d == 0 and j % d == 0 else None
        for i in range(params.p ** params.n) for j in range(params.p ** params.m)
    ]


def basis_characters(params: GroupParams) -> list[IrreducibleCharacter]:
    """The basis forms for `value_table`: (t, 1, 0) for t = 0..s, whose
    tables are X_t on its support S_t, then (0, 0, 1), whose table is Y."""
    forms = [IrreducibleCharacter(t, 1, 0, params.p ** t) for t in range(params.s + 1)]
    return forms + [IrreducibleCharacter(0, 0, 1, 1)]


# ---------------------------------------------------------------------------
# monomial matrices (images of a and b under a character)
# ---------------------------------------------------------------------------

class MonomialMatrix(NamedTuple):
    """A matrix with a single root-of-unity entry per row: row c holds
    zeta_{p^C}^exps[c] at column perm[c]. Closed under multiplication, so
    relation checks stay O(degree)."""

    modulus: int
    perm: tuple[int, ...]
    exps: tuple[int, ...]

    @staticmethod
    def identity(modulus: int, d: int) -> "MonomialMatrix":
        return MonomialMatrix(modulus, tuple(range(d)), (0,) * d)

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        perm = tuple(other.perm[c] for c in self.perm)
        exps = tuple(
            (self.exps[c] + other.exps[self.perm[c]]) % self.modulus
            for c in range(len(self.perm))
        )
        return MonomialMatrix(self.modulus, perm, exps)

    def pow(self, e: int) -> "MonomialMatrix":
        acc = MonomialMatrix.identity(self.modulus, len(self.perm))
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc


def monomial_generators(
    ch: IrreducibleCharacter, params: GroupParams
) -> tuple[MonomialMatrix, MonomialMatrix]:
    """Monomial-matrix images of a and b from `monomial_form`: a maps to
    diag(zeta^(r^c A)) for c = 0..d-1, b to the cyclic shift with
    zeta^(d B) in the last row; for d = 1 the 1x1 matrices (zeta^A), (zeta^B)."""
    d, a_exp, b_exp = monomial_form(ch, params)
    qc = params.p ** ambient_level(params)
    a_exps = tuple(a_exp * rc % qc for rc in _r_power_table(params)[:d])
    a_mat = MonomialMatrix(qc, tuple(range(d)), a_exps)
    b_perm = tuple((c + 1) % d for c in range(d))
    b_mat = MonomialMatrix(qc, b_perm, (0,) * (d - 1) + (d * b_exp % qc,))
    return a_mat, b_mat


# ---------------------------------------------------------------------------
# deep checks
# ---------------------------------------------------------------------------

# Sampling sizes of the deep checks: orthogonality and the Galois action
# run exhaustively up to EXHAUSTIVE_ORDER_BOUND and on random draws above it.
EXHAUSTIVE_ORDER_BOUND = 243
ORTHOGONALITY_PAIRS = 100
GALOIS_SAMPLES = 40
VALUE_SAMPLES = 50


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class DeepChecker:
    """Deepens one `CrossCheck`: takes its characters and Galois classes,
    and caches the per-group state (class index, basis tables, rows) that
    the individual checks share. All checks are exact; `detail` carries the
    work counts so suite logs show what actually ran. Sampled checks draw
    from `rng`, Random(0) unless one is given."""

    def __init__(self, cross: CrossCheck, rng: random.Random | None = None):
        check_oracle_bound(cross.params)
        self.params, self.chars, self.galois = cross.params, cross.chars, cross.classes
        self.diff = cross.diff
        self.rng = random.Random(0) if rng is None else rng
        self._rows: dict[int, list[int | None]] = {}

    @cached_property
    def class_index(self) -> tuple[list[int], list[tuple[int, int]]]:
        """(class_of, reps), built in one pass over the flat-index classes
        of `group.conjugacy_classes`: class_of[g] is the position of the
        class of the element with flat index g = i * p^m + j, and reps lists
        (the class's least element, class size) once per class, in class
        order."""
        class_of = [0] * self.params.order
        reps = []
        for c, cls in enumerate(conjugacy_classes(self.params)):
            reps.append((cls[0], len(cls)))
            for g in cls:
                class_of[g] = c
        return class_of, reps

    @cached_property
    def basis_tables(self) -> list[list[int | None]]:
        """The value tables of `basis_characters`: X_0..X_s, then Y."""
        return [value_table(form, self.params) for form in basis_characters(self.params)]

    @cached_property
    def basis_rows(self) -> list[list[int | None]]:
        """Each basis table's cells at the class representatives."""
        reps = self.class_index[1]
        return [[table[g] for g, _ in reps] for table in self.basis_tables]

    def row(self, k: int) -> list[int | None]:
        """Character k's row: its value-table exponents on the class
        representatives, in class order. Built on first use as
        l X_t + u Y mod p^C over the basis rows, None where X_t is None
        (or where Y is, which only a corrupt Y table can be)."""
        if k not in self._rows:
            ch = self.chars[k]
            qc = self.params.p ** ambient_level(self.params)
            self._rows[k] = [
                None if x is None or y is None else (ch.l * x + ch.u * y) % qc
                for x, y in zip(self.basis_rows[ch.t], self.basis_rows[-1])
            ]
        return self._rows[k]

    # -- individual checks ------------------------------------------------

    def check_counts(self) -> CheckResult:
        """Brute-force class count == closed-form count == #Irr(G), and
        sum(deg^2) = |G|."""
        params = self.params
        formula = complex_counts_closed_form(params)
        by_degree: dict[int, int] = {}
        for ch in self.chars:
            by_degree[ch.degree] = by_degree.get(ch.degree, 0) + 1
        ok = (
            by_degree == formula
            and len(self.class_index[1]) == len(self.chars)
            and sum(d * d * c for d, c in by_degree.items()) == params.order
        )
        detail = f"classes={len(self.class_index[1])} chars={len(self.chars)}"
        return CheckResult("counts", ok, detail)

    def check_class_functions(self) -> CheckResult:
        """Characters are constant on brute-force conjugacy classes. Each
        basis table is read cell by cell: it must equal its row spread
        over `class_of`, support (None) cells included. If so, every
        character's row spread over class_of is its table, by the identity
        psi = l X_t + u Y on S_t of the module docstring, and that table
        is a class function. On failure, the detail names the first
        element of the first class that the first failing basis table is
        not constant on.

        Every later check reads rows only, which is exact because of this
        check."""
        class_of, reps = self.class_index
        for table, row in zip(self.basis_tables, self.basis_rows):
            if [row[c] for c in class_of] != table:
                bad = min(c for c, e in zip(class_of, table) if e != row[c])
                first = GroupElement(*divmod(reps[bad][0], self.params.p ** self.params.m))
                return CheckResult("class_functions", False, f"in class of {first}")
        return CheckResult(
            "class_functions", True, f"chars={len(self.chars)} classes={len(reps)}"
        )

    def _inner_product(self, x: int, y: int) -> list[int]:
        """Reduced coefficients of sum_g psi_x(g) conj(psi_y(g)), summed as
        sum_K |K| psi_x(g_K) conj(psi_y(g_K)) over one representative g_K
        of every conjugacy class K: equal to the sum over all of G when
        both tables are class functions."""
        params = self.params
        qc = params.p ** ambient_level(params)
        coeff = self.chars[x].degree * self.chars[y].degree
        acc = [0] * qc
        for (_, size), e1, e2 in zip(self.class_index[1], self.row(x), self.row(y)):
            if e1 is not None and e2 is not None:
                acc[(e1 - e2) % qc] += coeff * size
        return cyclotomic.reduce_power_vector(params.p, ambient_level(params), acc)

    def _pair_orthogonal(self, x: int, y: int) -> bool:
        reduced = self._inner_product(x, y)
        expected0 = self.params.order if x == y else 0
        return reduced[0] == expected0 and not any(reduced[1:])

    def check_orthogonality(self) -> CheckResult:
        """First orthogonality, exactly: sum_g psi(g) conj(psi'(g)) is |G|
        on the diagonal and 0 off it. All pairs for |G| <=
        EXHAUSTIVE_ORDER_BOUND, else ORTHOGONALITY_PAIRS random pairs plus
        random diagonal entries."""
        count = len(self.chars)
        checked = 0
        if self.params.order <= EXHAUSTIVE_ORDER_BOUND:
            for x in range(count):
                for y in range(x, count):
                    if not self._pair_orthogonal(x, y):
                        return CheckResult(
                            "orthogonality", False, f"pair ({x}, {y})"
                        )
                    checked += 1
            return CheckResult("orthogonality", True, f"all pairs ({checked})")
        for _ in range(ORTHOGONALITY_PAIRS):
            x = self.rng.randrange(count)
            y = self.rng.randrange(count)
            if not self._pair_orthogonal(x, y):
                return CheckResult("orthogonality", False, f"pair ({x}, {y})")
            checked += 1
        for _ in range(5):
            x = self.rng.randrange(count)
            if not self._pair_orthogonal(x, x):
                return CheckResult("orthogonality", False, f"diagonal {x}")
            checked += 1
        return CheckResult("orthogonality", True, f"sampled pairs ({checked})")

    def check_galois_action(self) -> CheckResult:
        """Parameter-level Galois action == value-level action: the image
        character's value at every class representative is sigma_alpha of
        the original value. Every character for every unit alpha for |G| <=
        EXHAUSTIVE_ORDER_BOUND, else GALOIS_SAMPLES random pairs. An image
        outside the character list fails the check."""
        params = self.params
        qc = params.p ** ambient_level(params)
        units = [a for a in range(1, qc) if a % params.p]
        index = {ch: k for k, ch in enumerate(self.chars)}
        if params.order <= EXHAUSTIVE_ORDER_BOUND:
            work = [
                (k, alpha) for k in range(len(self.chars)) for alpha in units
            ]
        else:
            work = [
                (self.rng.randrange(len(self.chars)), self.rng.choice(units))
                for _ in range(GALOIS_SAMPLES)
            ]
        for k, alpha in work:
            image = index.get(sigma_on_character(self.chars[k], alpha, params))
            scaled = [None if e is None else e * alpha % qc for e in self.row(k)]
            if image is None or scaled != self.row(image):
                return CheckResult(
                    "galois_action", False, f"char {k} alpha {alpha}"
                )
        return CheckResult("galois_action", True, f"pairs checked={len(work)}")

    def check_matrix_relations(self) -> CheckResult:
        """For one sampled induced character per degree: the monomial
        matrices satisfy A^(p^n) = I, B^(p^m) = I, B A B^-1 = A^r, and their
        traces match the row on every conjugacy class, hence on every group
        element (see `_traces_match`)."""
        params = self.params
        p, n, m = params.p, params.n, params.m
        qc = p ** ambient_level(params)
        checked = []
        for t in range(1, params.s + 1):
            degree = p ** t
            pool = [k for k, ch in enumerate(self.chars) if ch.degree == degree]
            k = self.rng.choice(pool)
            a_mat, b_mat = monomial_generators(self.chars[k], params)
            ident = MonomialMatrix.identity(qc, degree)
            if a_mat.pow(p ** n) != ident:
                return CheckResult("matrix_relations", False, f"A^(p^n) != I at t={t}")
            if b_mat.pow(p ** m) != ident:
                return CheckResult("matrix_relations", False, f"B^(p^m) != I at t={t}")
            if b_mat * a_mat != a_mat.pow(params.r) * b_mat:  # B A B^-1 = A^r
                return CheckResult("matrix_relations", False, f"B A B^-1 != A^r at t={t}")
            if not self._traces_match(k, a_mat, b_mat):
                return CheckResult("matrix_relations", False, f"trace mismatch at t={t}")
            checked.append(degree)
        return CheckResult("matrix_relations", True, f"degrees checked={checked}")

    def _traces_match(self, k: int, a_mat: MonomialMatrix, b_mat: MonomialMatrix) -> bool:
        """tr(A^i B^j) == psi_k(a^i b^j) on the representative a^i b^j of
        every conjugacy class, read from row k. A is diagonal, so A^i has
        exponents i * exps. The reduction to the power basis is linear, so
        the trace minus the value is reduced once and must vanish.

        Once A and B satisfy the presentation relations (checked first by
        `check_matrix_relations`), a -> A, b -> B is a representation and
        its trace is a class function; so is the table, by
        `check_class_functions`. Equality on class representatives is then
        equality on every element."""
        params = self.params
        p, level = params.p, ambient_level(params)
        qc = p ** level
        qb = p ** params.m
        degree = self.chars[k].degree
        d = len(a_mat.perm)
        b_pows = [MonomialMatrix.identity(qc, d)]
        for _ in range(qb - 1):
            b_pows.append(b_pows[-1] * b_mat)
        for (g, _), expected in zip(self.class_index[1], self.row(k)):
            i, j = divmod(g, qb)
            if j % d:  # shift permutation: zero diagonal, zero trace
                if expected is not None:
                    return False
                continue
            bj = b_pows[j]
            vec = [0] * qc
            for c in range(d):
                vec[(i * a_mat.exps[c] + bj.exps[c]) % qc] += 1
            if expected is not None:
                vec[expected] -= degree
            if any(cyclotomic.reduce_power_vector(p, level, vec)):
                return False
        return True

    def check_value_function_agreement(self) -> CheckResult:
        """Monomial exponent rows agree with the CyclotomicElement value
        function on VALUE_SAMPLES random elements (ties fast path to slow
        path); each element reads the row cell of its class."""
        params = self.params
        level = ambient_level(params)
        qa, qb = params.p ** params.n, params.p ** params.m
        class_of = self.class_index[0]
        for _ in range(VALUE_SAMPLES):
            k = self.rng.randrange(len(self.chars))
            i, j = self.rng.randrange(qa), self.rng.randrange(qb)
            ch = self.chars[k]
            slow = character_value(ch, GroupElement(i, j), params)
            e = self.row(k)[class_of[i * qb + j]]
            fast = 0 if e is None else ch.degree * cyclotomic.root_power(
                params.p, level, e)
            if slow != fast:
                return CheckResult(
                    "value_agreement", False, f"char {k} at ({i}, {j})"
                )
        return CheckResult("value_agreement", True, f"samples={VALUE_SAMPLES}")

    def check_rational_counts(self) -> CheckResult:
        """Closed-form per-degree rational counts == oracle class counts."""
        formula = rational_counts_closed_form(self.params)
        oracle = rational_counts_from_classes(self.galois, self.params)
        ok = formula.by_degree == oracle
        return CheckResult(
            "rational_counts", ok,
            f"degrees={sorted(oracle)}" if ok else f"{formula.by_degree} != {oracle}",
        )

    def check_decomposition(self) -> CheckResult:
        """Closed-form multiset == oracle multiset (the headline identity),
        as `cross_validate` compared them. The CLI runs the deep checks only
        after an empty diff, so there this line restates the VERIFIED line;
        it stays because the benchmark's deep workload requires its OK line
        and a library caller can pass a mismatched `CrossCheck`."""
        return CheckResult("decomposition", not self.diff, "; ".join(self.diff))

    def run_all(self) -> list[CheckResult]:
        return [
            self.check_counts(),
            self.check_class_functions(),
            self.check_orthogonality(),
            self.check_galois_action(),
            self.check_matrix_relations(),
            self.check_value_function_agreement(),
            self.check_rational_counts(),
            self.check_decomposition(),
        ]
