"""Cross-validation between the closed form and the character-theoretic oracle.

`cross_validate` runs both routes on one group of any s (s = 0 is the
abelian group), and `diff_components` is the one comparison of their
component multisets.
Every oracle-side entry point (`decomposition_via_oracle`, `DeepChecker`)
first passes `group.check_oracle_bound`, since the oracle enumerates Irr(G)
and the deep checks walk all |G| elements.

Every irreducible psi = (t, l, u) has one monomial form (d, A, B), built
by `monomial_form`. With C = max(n, m), d = p^t, A = l p^(s-t) p^(C-n)
and B = u p^(C-m), all mod p^C (t = 0, d = 1 are the linear characters):

    psi(a^i b^j) = deg * zeta_{p^C}^(A i + B j)   if d | i and d | j,
                 = 0                               otherwise.

Value tables are therefore integer exponent tables, one arithmetic
progression per row i = 0 mod d, cut as slices of a cached list of
residues. A row depends only on A i mod p^C, so the rows repeat with a
period dividing p^n: each distinct row is built once and the table is one
period of rows repeated. The orthogonality/trace sums reduce through the
same canonical basis reduction that CyclotomicElement uses.

`DeepChecker` stores one value form per character, its row: the table's
exponents on the h = #Irr class representatives, in class order, placed
by `class_index` = (class_of, reps) from the brute-force conjugacy
classes. Only `check_class_functions` builds full tables, one at a time:
it keeps each table's row and certifies, with list slices over every cell,
that the row spread over class_of gives the table back: the table must
match the spread row on `domain`, a fundamental domain of class_of along
i, and repeat with class_of's period outside it. Every check after it
reads rows only, which is exact because that check has shown every table
to be a class function:
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
must satisfy the presentation relations and reproduce the table as traces
on every class, and the table must agree with `character_value` on
random elements.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import cached_property, lru_cache
from math import gcd
from operator import itemgetter
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


def decomposition_via_oracle(params: GroupParams) -> WedderburnDecomposition:
    """Decompose from first principles: enumerate Irr(G), class it under
    the Galois action, and assemble one component per class."""
    check_oracle_bound(params)
    chars = enumerate_irreducibles(params)
    classes = galois_classes(chars, params)
    return wedderburn_from_classes(classes, params)


class CrossCheck(NamedTuple):
    params: GroupParams
    closed: WedderburnDecomposition
    oracle: WedderburnDecomposition
    match: bool
    diff: tuple[str, ...]


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
    oracle = decomposition_via_oracle(params)
    diff = diff_components(closed, oracle)
    return CrossCheck(params, closed, oracle, not diff, tuple(diff))


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
    """Exponent table over all group elements, indexed by i * p^m + j: an
    arithmetic progression along every row i = 0 mod d, None elsewhere.

    Row i depends only on d and base = A i mod p^C, so the rows repeat with
    period max(d, order of A in Z/p^C), which divides p^n (A p^n = 0 mod
    p^C). Each distinct row is built once into one period of rows, and the
    table is that block repeated p^n / period times (a new list). A row
    (base + step j) mod p^C, step = B d, j < p^m / d, is cut from a cached
    list of residues, `chunk` cells per slice."""
    d, a_exp, b_exp = monomial_form(ch, params)
    qa, qb = params.p ** params.n, params.p ** params.m
    qc = params.p ** ambient_level(params)
    period = max(d, qc // gcd(a_exp, qc))
    width, step = qb // d, b_exp * d % qc
    chunk = width
    while chunk > _ROW_CHUNK:
        chunk //= params.p
    residues = _residues(qc, chunk)
    block: list[int | None] = [None] * (period * qb)
    for i in range(0, period, d):
        for j in range(0, width, chunk):
            start = (a_exp * i + step * j) % qc
            block[i * qb + j * d:i * qb + (j + chunk) * d:d] = (
                residues[start:start + step * chunk:step] if step else [start] * chunk
            )
    return block * (qa // period)


# A row is cut in slices of at most this many cells, which bounds every
# cached residue list at p^C (_ROW_CHUNK + 1) entries.
_ROW_CHUNK = 64


@lru_cache(maxsize=16)
def _residues(qc: int, chunk: int) -> list[int]:
    """0..qc-1 repeated chunk + 1 times: entry e is e mod qc for every
    e = start + step * j with start, step < qc and j < chunk, so a slice
    of it is `chunk` cells of a progression mod qc. Shared; never mutated."""
    return list(range(qc)) * (chunk + 1)


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

    def to_dense(self, p: int, level: int) -> list[list[cyclotomic.CyclotomicElement]]:
        d = len(self.perm)
        zero = cyclotomic.CyclotomicElement.rational(p, 0)
        out = [[zero] * d for _ in range(d)]
        for c in range(d):
            out[c][self.perm[c]] = cyclotomic.root_power(p, level, self.exps[c])
        return out


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


def _gather(cells: list[int]) -> Callable[[list], tuple]:
    """`itemgetter(*cells)`, returning a tuple for any number of cells."""
    if len(cells) > 1:
        return itemgetter(*cells)
    return lambda seq: tuple(seq[g] for g in cells)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class DeepChecker:
    """Caches the per-group state (characters, classes, rows) that the
    individual checks share. All checks are exact; `detail` carries the
    work counts so suite logs show what actually ran. Sampled checks draw
    from `rng`, Random(0) unless one is given."""

    def __init__(self, params: GroupParams, rng: random.Random | None = None):
        check_oracle_bound(params)
        self.params = params
        self.rng = random.Random(0) if rng is None else rng
        self._rows: dict[int, list[int | None]] = {}

    @cached_property
    def chars(self) -> list[IrreducibleCharacter]:
        return enumerate_irreducibles(self.params)

    @cached_property
    def conj_classes(self) -> list[tuple[GroupElement, ...]]:
        return conjugacy_classes(self.params)

    @cached_property
    def galois(self) -> list[GaloisClass]:
        return galois_classes(self.chars, self.params)

    @cached_property
    def class_index(self) -> tuple[list[int], list[tuple[int, int]]]:
        """(class_of, reps), built in one pass over `conj_classes`:
        class_of[g] is the position of the class of the element with flat
        index g = i * p^m + j, and reps lists (flat index of the class's
        first element, class size) once per class, in class order."""
        qb = self.params.p ** self.params.m
        class_of = [0] * self.params.order
        reps = []
        for c, cls in enumerate(self.conj_classes):
            reps.append((cls[0].i * qb + cls[0].j, len(cls)))
            for g in cls:
                class_of[g.i * qb + g.j] = c
        return class_of, reps

    @cached_property
    def rep_cells(self) -> Callable[[list], tuple]:
        """Gathers a table's cells at the class representatives, in class
        order."""
        return _gather([g for g, _ in self.class_index[1]])

    @cached_property
    def domain(self) -> tuple[Callable[[list], tuple], Callable[[list], tuple], list[int]]:
        """A fundamental domain D of `class_of` along i, found by brute
        force from `class_index` (no theory). Cells g = i * p^m + j fall
        into strands c = g mod w, w = gcd(p, p^m) (so c = j mod p when
        m >= 1). shifts[c] = P_c p^m, where P_c is the least power of p
        with class_of[g + P_c p^m] == class_of[g] for every g = c mod w
        below |G| - P_c p^m; P_c = p^n always qualifies, both sides being
        empty. D is the cells with i < P_(j mod w). It holds every class
        representative: a representative is the least element of its class,
        and from i >= P_c on, g - P_c p^m lies in the same class.

        Returns (gather of the cells of D that are not representatives,
        gather of their class positions from a row, shifts)."""
        p, qb, order = self.params.p, self.params.p ** self.params.m, self.params.order
        class_of, reps = self.class_index
        w = gcd(p, qb)
        shifts = []
        for c in range(w):
            shift = qb
            while class_of[c + shift::w] != class_of[c:order - shift:w]:
                shift *= p
            shifts.append(shift)
        is_rep = {g for g, _ in reps}
        cells = sorted(
            g for j in range(qb) for g in range(j, shifts[j % w], qb) if g not in is_rep
        )
        return _gather(cells), _gather([class_of[g] for g in cells]), shifts

    def row(self, k: int) -> list[int | None]:
        """Character k's row: its value-table exponents on the class
        representatives, in class order. Built on first use from one
        `value_table`, of which only the h representative cells are kept."""
        if k not in self._rows:
            self._rows[k] = list(self.rep_cells(value_table(self.chars[k], self.params)))
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
            and len(self.conj_classes) == len(self.chars)
            and sum(d * d * c for d, c in by_degree.items()) == params.order
        )
        detail = f"classes={len(self.conj_classes)} chars={len(self.chars)}"
        return CheckResult("counts", ok, detail)

    def check_class_functions(self) -> CheckResult:
        """Characters are constant on brute-force conjugacy classes: a table
        f is a class function exactly when it equals F, its row spread over
        `class_of`. Every table is read in full, but against `domain`:
        f == F exactly when f == F on the cells of D that are not
        representatives (on representatives F is f by construction) and
        every strand c of f is shifts[c]-periodic along i. If so, F is
        periodic there too (class_of is), so f == F on rows i < P_c
        carries to every row; conversely a class function inherits the
        period of class_of. Each table's row is kept. Only on failure is
        F spread in full, to name the first element of the first class
        the table is not constant on.

        Every later check reads rows only, which is exact because of this
        check."""
        class_of = self.class_index[0]
        cells, cell_classes, shifts = self.domain
        order, w = self.params.order, len(shifts)
        for k, ch in enumerate(self.chars):
            table = value_table(ch, self.params)
            row = self._rows[k] = list(self.rep_cells(table))
            if cells(table) != cell_classes(row) or any(
                table[c + shift::w] != table[c:order - shift:w]
                for c, shift in enumerate(shifts)
            ):
                bad = min(c for c, e in zip(class_of, table) if e != row[c])
                return CheckResult(
                    "class_functions", False, f"in class of {self.conj_classes[bad][0]}"
                )
        return CheckResult(
            "class_functions", True,
            f"chars={len(self.chars)} classes={len(self.conj_classes)}",
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
        EXHAUSTIVE_ORDER_BOUND, else GALOIS_SAMPLES random pairs."""
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
            image = sigma_on_character(self.chars[k], alpha, params)
            scaled = [None if e is None else e * alpha % qc for e in self.row(k)]
            if scaled != self.row(index[image]):
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
        the oracle side assembled from the cached Galois classes."""
        diff = diff_components(
            wedderburn_closed_form(self.params),
            wedderburn_from_classes(self.galois, self.params),
        )
        return CheckResult("decomposition", not diff, "; ".join(diff))

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
