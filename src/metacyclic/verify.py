"""Cross-validation between the closed form and the character-theoretic oracle.

`cross_validate` runs both routes on one group, abelian or not, and
`diff_components` is the one comparison of their component multisets.
Every oracle-side entry point (`decomposition_via_oracle`, `DeepChecker`)
first passes `group.check_oracle_bound`, since the oracle enumerates Irr(G)
and the deep checks walk all |G| elements.

Every irreducible psi has one monomial form (d, A, B), built by
`monomial_form`, the only place that tells linear from induced characters.
With C = max(n, m), d = 1 for a linear character and d = p^t for one
induced from an orbit of size p^t, A = lam p^s p^(C-n) (linear) or
A = l p^(s-t) p^(C-n) (induced), and B = u p^(C-m), all mod p^C:

    psi(a^i b^j) = deg * zeta_{p^C}^(A i + B j)   if d | i and d | j,
                 = 0                               otherwise.

Value tables are therefore integer exponent tables, one arithmetic
progression per row i = 0 mod d. A row depends only on A i mod p^C, so the
rows repeat with a period dividing p^n: each distinct row is built once and
the table is one period of rows repeated. The orthogonality/trace sums
reduce through the same canonical basis reduction that CyclotomicElement
uses.

`DeepChecker.class_index` is built once per group from the brute-force
conjugacy classes: rep[g] = the first element of g's class, and one
(first element, class size) pair per class. The class-function check
compares each table, as one list, with itself read through rep. The two
other checks that would walk all |G| cells read only the h = #Irr class
representatives, and each reduction rests on checks that run before it:
- orthogonality weights each representative by its class size, which is
  the full sum over G because every table is a class function
  (`check_class_functions`);
- traces are compared on the representatives, which covers every element
  because the matrices satisfy the presentation relations (so their trace
  is a class function) and the table is a class function.
The same (d, A, B) gives the monomial matrices: a -> diag(zeta^(r^c A))
for c = 0..d-1, b -> the cyclic shift with zeta^(d B) in the last row.
The deep checks tie this fast path to the exact slow one: the matrices
must satisfy the presentation relations and reproduce the table as traces
on every class, and the table must agree with `character_value` on
random elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from operator import itemgetter

from .arith import p_adic_valuation, unit_group_generator
from .components import WedderburnDecomposition, assemble_components
from .complex_reps import (
    IrreducibleCharacter,
    LinearOrbit,
    character_value,
    enumerate_irreducibles,
)
from .cyclotomic import CyclotomicElement, reduce_power_vector, root_power
from .formulas import (
    complex_counts_closed_form,
    rational_counts_closed_form,
    wedderburn_closed_form,
)
from .group import (
    GroupElement,
    GroupParams,
    check_oracle_bound,
    conjugacy_classes,
    valid_parameter_sets,  # re-exported; its home is `group`
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
    if params.abelian:
        return _abelian_oracle(params)
    chars = enumerate_irreducibles(params)
    classes = galois_classes(chars, params)
    return wedderburn_from_classes(classes, params)


def _abelian_oracle(params: GroupParams) -> WedderburnDecomposition:
    """Galois-orbit brute force on the character grid of C_{p^n} x C_{p^m}."""
    p, n, m = params.p, params.n, params.m
    qa, qb = p ** n, p ** m
    g = unit_group_generator(p, max(n, m))
    seen = [False] * (qa * qb)
    items = []
    for i in range(qa):
        for j in range(qb):
            if seen[i * qb + j]:
                continue
            x, y = i, j
            while not seen[x * qb + y]:
                seen[x * qb + y] = True
                x, y = g * x % qa, g * y % qb
            li = 0 if i == 0 else n - p_adic_valuation(i, p)
            lj = 0 if j == 0 else m - p_adic_valuation(j, p)
            items.append((1, max(li, lj), 1))
    return assemble_components(p, items)


@dataclass(frozen=True)
class CrossCheck:
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
    divides both i and j, and 0 otherwise.

    Linear: d = 1, A = lam p^s p^(C-n). Induced of degree p^t: d = p^t,
    A = l p^(s-t) p^(C-n). Both: B = u p^(C-m); all exponents mod p^C.
    """
    p, n, m, s = params.p, params.n, params.m, params.s
    qc = p ** ambient_level(params)
    if isinstance(ch.orbit, LinearOrbit):
        d, a_base = 1, ch.orbit.lam * p ** s
    else:
        d, a_base = p ** ch.orbit.t, ch.orbit.l * p ** (s - ch.orbit.t)
    return d, a_base * (qc // p ** n) % qc, ch.u * (qc // p ** m) % qc


def value_table(ch: IrreducibleCharacter, params: GroupParams) -> list[int | None]:
    """Exponent table over all group elements, indexed by i * p^m + j: an
    arithmetic progression along every row i = 0 mod d, None elsewhere.

    Row i depends only on d and base = A i mod p^C, so the rows repeat with
    period max(d, order of A in Z/p^C), which divides p^n (A p^n = 0 mod
    p^C). Each distinct row is built once into one period of rows, and the
    table is that block repeated p^n / period times (a new list)."""
    d, a_exp, b_exp = monomial_form(ch, params)
    qa, qb = params.p ** params.n, params.p ** params.m
    qc = params.p ** ambient_level(params)
    period = max(d, qc // gcd(a_exp, qc))
    row = [b_exp * j % qc for j in range(0, qb, d)]
    block: list[int | None] = [None] * (period * qb)
    for i in range(0, period, d):
        base = a_exp * i % qc
        block[i * qb:(i + 1) * qb:d] = [(base + e) % qc for e in row]
    return block * (qa // period)


def _monomial_as_element(params, degree: int, exponent: int | None) -> CyclotomicElement:
    if exponent is None:
        return CyclotomicElement.rational(params.p, 0)
    return degree * root_power(params.p, ambient_level(params), exponent)


# ---------------------------------------------------------------------------
# monomial matrices (images of a and b under a character)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialMatrix:
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

    def inv(self) -> "MonomialMatrix":
        d = len(self.perm)
        inv_perm = [0] * d
        for c, target in enumerate(self.perm):
            inv_perm[target] = c
        exps = tuple((-self.exps[inv_perm[c]]) % self.modulus for c in range(d))
        return MonomialMatrix(self.modulus, tuple(inv_perm), exps)

    def pow(self, e: int) -> "MonomialMatrix":
        acc = MonomialMatrix.identity(self.modulus, len(self.perm))
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def to_dense(self, p: int, level: int) -> list[list[CyclotomicElement]]:
        d = len(self.perm)
        zero = CyclotomicElement.rational(p, 0)
        out = [[zero] * d for _ in range(d)]
        for c in range(d):
            out[c][self.perm[c]] = root_power(p, level, self.exps[c])
        return out


def monomial_generators(
    ch: IrreducibleCharacter, params: GroupParams
) -> tuple[MonomialMatrix, MonomialMatrix]:
    """Monomial-matrix images of a and b from `monomial_form`: a maps to
    diag(zeta^(r^c A)) for c = 0..d-1, b to the cyclic shift with
    zeta^(d B) in the last row; for d = 1 the 1x1 matrices (zeta^A), (zeta^B)."""
    d, a_exp, b_exp = monomial_form(ch, params)
    qc = params.p ** ambient_level(params)
    a_exps = [a_exp]
    for _ in range(d - 1):
        a_exps.append(a_exps[-1] * params.r % qc)
    a_mat = MonomialMatrix(qc, tuple(range(d)), tuple(a_exps))
    b_perm = tuple((c + 1) % d for c in range(d))
    b_mat = MonomialMatrix(qc, b_perm, (0,) * (d - 1) + (d * b_exp % qc,))
    return a_mat, b_mat


# ---------------------------------------------------------------------------
# deep checks
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class DeepChecker:
    """Caches the per-group state (characters, value tables, classes) that
    the individual checks share. All checks are exact; `detail` carries the
    work counts so suite logs show what actually ran."""

    params: GroupParams
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def __post_init__(self):
        check_oracle_bound(self.params)
        self._chars: list[IrreducibleCharacter] | None = None
        self._tables: dict[int, list[int | None]] = {}
        self._conj_classes = None
        self._class_index: tuple[list[int], list[tuple[int, int]]] | None = None
        self._galois: list[GaloisClass] | None = None

    @property
    def chars(self) -> list[IrreducibleCharacter]:
        if self._chars is None:
            self._chars = enumerate_irreducibles(self.params)
        return self._chars

    def table(self, k: int) -> list[int | None]:
        """Value table of the k-th character, built on first use."""
        if k not in self._tables:
            self._tables[k] = value_table(self.chars[k], self.params)
        return self._tables[k]

    @property
    def conj_classes(self):
        if self._conj_classes is None:
            self._conj_classes = conjugacy_classes(self.params)
        return self._conj_classes

    @property
    def galois(self) -> list[GaloisClass]:
        if self._galois is None:
            self._galois = galois_classes(self.chars, self.params)
        return self._galois

    @property
    def class_index(self) -> tuple[list[int], list[tuple[int, int]]]:
        """(rep, reps), built in one pass over `conj_classes`: rep[g] is the
        flat index i * p^m + j of the first element of the class of the
        element with flat index g, and reps lists (that first index, class
        size) once per class, in class order."""
        if self._class_index is None:
            qb = self.params.p ** self.params.m
            rep = [0] * self.params.order
            reps = []
            for cls in self.conj_classes:
                first = cls[0].i * qb + cls[0].j
                reps.append((first, len(cls)))
                for g in cls:
                    rep[g.i * qb + g.j] = first
            self._class_index = rep, reps
        return self._class_index

    def class_rep_index(self) -> list[int]:
        """rep[g] = flat index of the first element of g's conjugacy class."""
        return self.class_index[0]

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
        is a class function exactly when reading it through
        `class_rep_index` leaves it unchanged. A failure names the first
        element of the first class the table is not constant on.

        The orthogonality and trace checks read tables on class
        representatives only, which is exact because of this check."""
        qb = self.params.p ** self.params.m
        rep = self.class_rep_index()
        gather = itemgetter(*rep)
        for k in range(len(self.chars)):
            table = self.table(k)
            if list(gather(table)) != table:
                first = min(r for g, r in enumerate(rep) if table[r] != table[g])
                return CheckResult(
                    "class_functions", False,
                    f"in class of {GroupElement(*divmod(first, qb))}",
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
        tx, ty = self.table(x), self.table(y)
        coeff = self.chars[x].degree * self.chars[y].degree
        acc = [0] * qc
        for g, size in self.class_index[1]:
            e1 = tx[g]
            if e1 is None:
                continue
            e2 = ty[g]
            if e2 is None:
                continue
            acc[(e1 - e2) % qc] += coeff * size
        return reduce_power_vector(params.p, ambient_level(params), acc)

    def _pair_orthogonal(self, x: int, y: int) -> bool:
        reduced = self._inner_product(x, y)
        expected0 = self.params.order if x == y else 0
        return reduced[0] == expected0 and not any(reduced[1:])

    def check_orthogonality(
        self, *, all_pairs_bound: int = 243, sample_pairs: int = 100
    ) -> CheckResult:
        """First orthogonality, exactly: sum_g psi(g) conj(psi'(g)) is |G|
        on the diagonal and 0 off it. All pairs for |G| <= all_pairs_bound,
        else `sample_pairs` random pairs plus random diagonal entries.

        Each sum runs over class representatives weighted by class size,
        so it relies on `check_class_functions`: a table that is not a
        class function fails there, not here."""
        count = len(self.chars)
        checked = 0
        if self.params.order <= all_pairs_bound:
            for x in range(count):
                for y in range(x, count):
                    if not self._pair_orthogonal(x, y):
                        return CheckResult(
                            "orthogonality", False, f"pair ({x}, {y})"
                        )
                    checked += 1
            return CheckResult("orthogonality", True, f"all pairs ({checked})")
        for _ in range(sample_pairs):
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

    def check_galois_action(
        self, *, exhaustive_bound: int = 243, samples: int = 40
    ) -> CheckResult:
        """Parameter-level Galois action == value-level action: the image
        character's value at every g is sigma_alpha of the original value."""
        params = self.params
        qc = params.p ** ambient_level(params)
        units = [a for a in range(1, qc) if a % params.p]
        index = {ch: k for k, ch in enumerate(self.chars)}
        if params.order <= exhaustive_bound:
            work = [
                (k, alpha) for k in range(len(self.chars)) for alpha in units
            ]
        else:
            work = [
                (self.rng.randrange(len(self.chars)), self.rng.choice(units))
                for _ in range(samples)
            ]
        for k, alpha in work:
            image = sigma_on_character(self.chars[k], alpha, params)
            t_src = self.table(k)
            t_img = self.table(index[image])
            if [None if e is None else e * alpha % qc for e in t_src] != t_img:
                return CheckResult(
                    "galois_action", False, f"char {k} alpha {alpha}"
                )
        return CheckResult("galois_action", True, f"pairs checked={len(work)}")

    def check_matrix_relations(self) -> CheckResult:
        """For one sampled induced character per degree: the monomial
        matrices satisfy A^(p^n) = I, B^(p^m) = I, B A B^-1 = A^r, and their
        traces match the value table on every conjugacy class, hence on
        every group element (see `_traces_match`)."""
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
            if b_mat * a_mat * b_mat.inv() != a_mat.pow(params.r):
                return CheckResult("matrix_relations", False, f"B A B^-1 != A^r at t={t}")
            if not self._traces_match(k, a_mat, b_mat):
                return CheckResult("matrix_relations", False, f"trace mismatch at t={t}")
            checked.append(degree)
        return CheckResult("matrix_relations", True, f"degrees checked={checked}")

    def _traces_match(self, k: int, a_mat: MonomialMatrix, b_mat: MonomialMatrix) -> bool:
        """tr(A^i B^j) == psi_k(a^i b^j) on one element a^i b^j of every
        conjugacy class, read from the cached value table of character k.
        A is diagonal, so A^i has exponents i * exps.

        Once A and B satisfy the presentation relations (checked first by
        `check_matrix_relations`), a -> A, b -> B is a representation and
        its trace is a class function; so is the table, by
        `check_class_functions`. Equality on class representatives is then
        equality on every element."""
        params = self.params
        p, level = params.p, ambient_level(params)
        qc = p ** level
        qb = p ** params.m
        table, degree = self.table(k), self.chars[k].degree
        d = len(a_mat.perm)
        b_pows = [MonomialMatrix.identity(qc, d)]
        for _ in range(qb - 1):
            b_pows.append(b_pows[-1] * b_mat)
        for g, _ in self.class_index[1]:
            i, j = divmod(g, qb)
            expected = table[g]
            if j % d:  # shift permutation: zero diagonal, zero trace
                if expected is not None:
                    return False
                continue
            bj = b_pows[j]
            vec = [0] * qc
            for c in range(d):
                vec[(i * a_mat.exps[c] + bj.exps[c]) % qc] += 1
            reduced = reduce_power_vector(p, level, vec)
            target = [0] * len(reduced)
            if expected is not None:
                tvec = [0] * qc
                tvec[expected] = degree
                target = reduce_power_vector(p, level, tvec)
            if reduced != target:
                return False
        return True

    def check_value_function_agreement(self, samples: int = 50) -> CheckResult:
        """Monomial exponent tables agree with the CyclotomicElement value
        function on random elements (ties fast path to slow path)."""
        params = self.params
        qa, qb = params.p ** params.n, params.p ** params.m
        for _ in range(samples):
            k = self.rng.randrange(len(self.chars))
            i, j = self.rng.randrange(qa), self.rng.randrange(qb)
            ch = self.chars[k]
            slow = character_value(ch, GroupElement(i, j), params)
            fast = _monomial_as_element(params, ch.degree, self.table(k)[i * qb + j])
            if slow != fast:
                return CheckResult(
                    "value_agreement", False, f"char {k} at ({i}, {j})"
                )
        return CheckResult("value_agreement", True, f"samples={samples}")

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
