"""The deep checks of `verify --deep`: monomial value tables and matrices,
and `DeepChecker`, which deepens one `verify.CrossCheck`. It reads the
characters, Galois classes and component diff from it, and checks the
oracle bound again before it walks all |G| elements. Commands without
`--deep` never execute this module.

Every irreducible psi = (t, l, u) has one monomial form (d, A, B), built
by `monomial_form`. With C = max(n, m) (`GroupParams.ambient_level`),
d = p^t, A = l p^(s-t) p^(C-n) and B = u p^(C-m), all mod p^C (t = 0,
d = 1 are the linear characters):

    psi(a^i b^j) = deg * zeta_{p^C}^(A i + B j)   if d | i and d | j,
                 = 0                               otherwise.

Value tables are therefore integer exponent tables, indexed by i p^m + j.
The exponent is l X_t + u Y mod p^C on the support S_t = {d | i, d | j},
where X_t = p^(s-t) p^(C-n) i mod p^C on S_t (None off it) and
Y = p^(C-m) j mod p^C are the tables of the basis forms (t, 1, 0) for
t = 0..s and (0, 0, 1), listed by `basis_characters`. The trace sums,
minus their expected values, must vanish. As Phi_{p^C}(x) =
Phi_p(x^(p^(C-1))), the p-gons {e + k p^(C-1)} span the integer relations
among the p^C-th roots of unity (Lam-Leung, 2000), so sum_e c_e zeta^e = 0
exactly when c is unchanged by e -> e + p^(C-1).

`DeepChecker` builds only the s + 2 basis tables in full. A basis row is
a table's exponents on the h = #Irr class representatives, in class order,
placed by `class_index` = (class_of, firsts) from the brute-force
classes, and `check_class_functions` certifies, cell by cell, that each
basis table equals its row spread over class_of. By the identity above,
psi's table is then l X_t + u Y over the basis rows spread over class_of,
None where X_t is None: a class function. No per-character row exists;
every later check reads the basis rows at the classes it needs:
- orthogonality checks each basis row against (d, A, B) at every class,
  then needs no sum: a pair's sum over G factors into two full geometric
  sums, nonzero only when the pair's (A D, B D) mod p^C agree, so one
  dict of those keys per degree covers every pair;
- the Galois action compares sigma_g psi with its image at every class;
- traces are compared on the representatives, which covers every element
  because the matrices satisfy the presentation relations (so their trace
  is a class function) and the table is a class function;
- value agreement reads the two basis cells of each sampled element's class.
The same (d, A, B) gives the monomial matrices: a -> diag(zeta^(r^c A))
for c = 0..d-1, b -> the cyclic shift with zeta^(d B) in the last row.
The deep checks tie this fast path to the exact slow one: the matrices
must satisfy the presentation relations and reproduce the values as traces
on every class, and the values must agree with `character_value` on random
elements.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import product
from typing import NamedTuple

from . import cyclotomic
from .arith import unit_group_generator
from .complex_reps import (
    IrreducibleCharacter,
    character_value,
    complex_counts_from_characters,
)
from .formulas import complex_counts_closed_form, rational_counts_closed_form
from .group import (
    GroupElement,
    GroupParams,
    _r_power_table,
    check_oracle_bound,
    conjugacy_classes,
)
from .rational import _images, rational_counts_from_classes
from .verify import CrossCheck


# ---------------------------------------------------------------------------
# monomial value tables
# ---------------------------------------------------------------------------

def monomial_form(ch: IrreducibleCharacter, params: GroupParams) -> tuple[int, int, int]:
    """(d, A, B) with psi(a^i b^j) = deg * zeta_{p^C}^(A i + B j) when d
    divides both i and j, and 0 otherwise: d = p^t, A = l p^(s-t) p^(C-n),
    B = u p^(C-m), all exponents mod p^C.
    """
    p, n, m = params.p, params.n, params.m
    qc = p ** params.ambient_level
    a_base = ch.l * p ** (params.s - ch.t)
    return p ** ch.t, a_base * (qc // p ** n) % qc, ch.u * (qc // p ** m) % qc


def _exponents(ch: IrreducibleCharacter, params: GroupParams, elements) -> list[int | None]:
    """psi's exponents at the a^i b^j for (i, j) in `elements`:
    A i + B j mod p^C where d divides i and j, None elsewhere."""
    d, a_exp, b_exp = monomial_form(ch, params)
    qc = params.p ** params.ambient_level
    return [
        (a_exp * i + b_exp * j) % qc if i % d == 0 and j % d == 0 else None
        for i, j in elements
    ]


def value_table(ch: IrreducibleCharacter, params: GroupParams) -> list[int | None]:
    """Exponent table over all group elements, indexed by i * p^m + j."""
    qa, qb = params.p ** params.n, params.p ** params.m
    return _exponents(ch, params, product(range(qa), range(qb)))


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
    qc = params.p ** params.ambient_level
    a_exps = tuple(a_exp * rc % qc for rc in _r_power_table(params)[:d])
    a_mat = MonomialMatrix(qc, tuple(range(d)), a_exps)
    b_perm = tuple((c + 1) % d for c in range(d))
    b_mat = MonomialMatrix(qc, b_perm, (0,) * (d - 1) + (d * b_exp % qc,))
    return a_mat, b_mat


# ---------------------------------------------------------------------------
# deep checks
# ---------------------------------------------------------------------------

# Random elements that `check_value_function_agreement` reads; it and
# `check_matrix_relations` are the only checks that draw from the rng.
VALUE_SAMPLES = 50


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class DeepChecker:
    """Deepens one `CrossCheck`: takes its characters and Galois classes,
    and caches the per-group state (p^C as `qc`, class index, basis tables
    and rows) that the checks share; it keeps nothing per character. All
    checks are exact; `detail` carries the work counts so suite logs show
    what actually ran. Sampled checks draw from `rng`, Random(0) unless one
    is given."""

    def __init__(self, cross: CrossCheck, rng: random.Random | None = None):
        check_oracle_bound(cross.params)
        self.params, self.chars, self.galois = cross.params, cross.chars, cross.classes
        self.diff = cross.diff
        self.qc = self.params.p ** self.params.ambient_level
        self.rng = random.Random(0) if rng is None else rng

    @cached_property
    def class_index(self) -> tuple[list[int], list[int]]:
        """(class_of, firsts), built in one pass over the flat-index classes
        of `group.conjugacy_classes`: class_of[g] is the position of the
        class of the element with flat index g = i * p^m + j, and firsts
        holds each class's least element, in class order."""
        class_of, firsts = [0] * self.params.order, []
        for c, cls in enumerate(conjugacy_classes(self.params)):
            firsts.append(cls[0])
            for g in cls:
                class_of[g] = c
        return class_of, firsts

    @cached_property
    def basis_tables(self) -> list[list[int | None]]:
        """The value tables of `basis_characters`: X_0..X_s, then Y."""
        return [value_table(form, self.params) for form in basis_characters(self.params)]

    @cached_property
    def basis_rows(self) -> list[list[int | None]]:
        """Each basis table's cells at the class representatives."""
        firsts = self.class_index[1]
        return [[table[g] for g in firsts] for table in self.basis_tables]

    # -- individual checks ------------------------------------------------

    def check_counts(self) -> CheckResult:
        """Brute-force class count == closed-form count == #Irr(G), and
        sum(deg^2) = |G|."""
        params = self.params
        formula = complex_counts_closed_form(params)
        by_degree = complex_counts_from_characters(self.chars)
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
        over `class_of`, support (None) cells included. Then, by the
        identity psi = l X_t + u Y on S_t of the module docstring, every
        character's table is a class function, and every later check may
        read the basis rows only. On failure, the detail names the first
        element of the first class that the first failing basis table is
        not constant on."""
        class_of, firsts = self.class_index
        for table, row in zip(self.basis_tables, self.basis_rows):
            if [row[c] for c in class_of] != table:
                bad = min(c for c, e in zip(class_of, table) if e != row[c])
                first = GroupElement(*divmod(firsts[bad], self.params.p ** self.params.m))
                return CheckResult("class_functions", False, f"in class of {first}")
        return CheckResult(
            "class_functions", True, f"chars={len(self.chars)} classes={len(firsts)}"
        )

    def _vanishes(self, sums: dict[int, int]) -> bool:
        """Whether sum_e sums[e] zeta_{p^C}^e is 0, by the module docstring's
        shift test; `sums` holds every nonzero coefficient of a sum minus its value."""
        step = self.qc // self.params.p  # C >= 1 for every group
        return all(sums.get((e + step) % self.qc, 0) == c for e, c in sums.items())

    def check_orthogonality(self) -> CheckResult:
        """First orthogonality on every pair, at every order, summing and
        drawing nothing. Row pass: each basis row must be its form's
        `_exponents` at the class representatives, None cells included; with
        `check_class_functions`, every table is then the formula everywhere.

        Bucket test: psi_x and psi_y are both nonzero only on S_D, with
        D = max(d_x, d_y), where their pair sum over G factors as

            d_x d_y * sum_{D|i} zeta^((A_x - A_y) i) * sum_{D|j} zeta^((B_x - B_y) j)

        (i mod p^n, j mod p^m). As A carries p^(C-n) and B carries p^(C-m),
        (A_x - A_y) p^n = (B_x - B_y) p^m = 0 mod p^C: each factor runs over
        whole periods of its ratio, so it is p^n / D (p^m / D) if the ratio
        zeta^((A_x - A_y) D) (zeta^((B_x - B_y) D)) is 1, and 0 otherwise.
        The sum is |G| at x = y, and off it 0 unless the keys (A D, B D)
        mod p^C agree. So, for T = 0..s, with the characters of t <= T in
        buckets keyed by (A p^T, B p^T) mod p^C, all pairs are orthogonal
        exactly when each character of t = T is alone in its bucket. A FAIL
        names the first basis row and class off the formula, else the first
        colliding pair met (T upwards, in character order)."""
        params, qc, chars = self.params, self.qc, self.chars
        reps = [GroupElement(*divmod(g, params.p ** params.m)) for g in self.class_index[1]]
        for b, (form, row) in enumerate(zip(basis_characters(params), self.basis_rows)):
            expected = _exponents(form, params, reps)
            if row != expected:
                c = next(c for c, (e, f) in enumerate(zip(row, expected)) if e != f)
                return CheckResult("orthogonality", False, f"row {b} in class of {reps[c]}")
        forms = [monomial_form(ch, params) for ch in chars]
        for t in range(params.s + 1):
            d, buckets = params.p ** t, {}
            for y, (ch, (_, a_exp, b_exp)) in enumerate(zip(chars, forms)):
                if ch.t <= t:
                    x = buckets.setdefault((a_exp * d % qc, b_exp * d % qc), y)
                    if x != y and t in (ch.t, chars[x].t):
                        return CheckResult("orthogonality", False, f"pair ({x}, {y})")
        pairs = len(chars) * (len(chars) + 1) // 2
        return CheckResult("orthogonality", True, f"all pairs ({pairs})")

    def check_galois_action(self) -> CheckResult:
        """Parameter-level Galois action == value-level action, on every
        character, under the generator sigma_g that `rational.galois_classes`
        walks; g must have order phi(p^C) mod p^C. Each image from `_images`
        must be listed and keep t and the degree (sigma_g fixes psi(1)), and
        g psi - psi' = a X_t + b Y on S_t, with a = g l - l', b = g u - u',
        must be 0 mod p^C at every class; each (t, a, b) is checked once. As
        sigma_(g^k) is sigma_g applied k times, the cycles of sigma_g are then
        the value-level orbits under every unit alpha."""
        params, qc, rows, chars = self.params, self.qc, self.basis_rows, self.chars
        g, phi = unit_group_generator(params.p, params.ambient_level), qc - qc // params.p
        if len({pow(g, k, qc) for k in range(1, phi + 1)}) != phi:  # g^1..g^phi distinct
            return CheckResult("galois_action", False, f"alpha {g} not of order {phi}")
        listed, verdicts = set(chars), {}
        for k, (ch, image) in enumerate(zip(chars, _images(chars, g, params))):
            t, l, u, degree = image
            if image not in listed or (t, degree) != (ch.t, ch.degree):
                return CheckResult("galois_action", False, f"char {k} alpha {g}")
            a, b = (g * ch.l - l) % qc, (g * ch.u - u) % qc
            key = (t, a, b)
            if key not in verdicts:
                verdicts[key] = not any(e is not None and f is not None and (a * e + b * f) % qc
                                        for e, f in zip(rows[t], rows[-1]))
            if not verdicts[key]:
                return CheckResult("galois_action", False, f"char {k} alpha {g}")
        return CheckResult("galois_action", True, f"chars={len(chars)} triples={len(verdicts)}")

    def check_matrix_relations(self) -> CheckResult:
        """For one sampled induced character per degree: the monomial
        matrices satisfy A^(p^n) = I, B^(p^m) = I, B A B^-1 = A^r, and their
        traces match the character on every conjugacy class, hence on every
        group element (see `_traces_match`)."""
        params = self.params
        p, n, m = params.p, params.n, params.m
        checked = []
        for t in range(1, params.s + 1):
            degree = p ** t
            pool = [k for k, ch in enumerate(self.chars) if ch.degree == degree]
            if not pool:
                return CheckResult("matrix_relations", False, f"no character of degree {degree}")
            k = self.rng.choice(pool)
            a_mat, b_mat = monomial_generators(self.chars[k], params)
            ident = MonomialMatrix.identity(self.qc, degree)
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
        """tr(A^i B^j) == psi_k(a^i b^j), read from the basis rows, on the
        representative a^i b^j of every conjugacy class. A is diagonal, so
        A^i B^j has zeta^(i A.exps[c] + B^j.exps[c]) on its diagonal at each
        fixed point c of B^j. The trace minus the value must vanish.

        Once A and B satisfy the presentation relations (checked first by
        `check_matrix_relations`), a -> A, b -> B is a representation and
        its trace is a class function; so is the table, by
        `check_class_functions`. Equality on class representatives is then
        equality on every element."""
        qc, qb, ch = self.qc, self.params.p ** self.params.m, self.chars[k]
        bj, diagonals = MonomialMatrix.identity(qc, len(a_mat.perm)), []
        for _ in range(qb):  # (A.exps[c], B^j.exps[c]) at the fixed points c of B^j
            diagonals.append([(a_mat.exps[c], bj.exps[c])
                              for c, target in enumerate(bj.perm) if target == c])
            bj = bj * b_mat
        for g, x, y in zip(self.class_index[1], self.basis_rows[ch.t], self.basis_rows[-1]):
            i, j = divmod(g, qb)
            sums = {}
            for a, b in diagonals[j]:
                e = (i * a + b) % qc
                sums[e] = sums.get(e, 0) + 1
            if x is not None and y is not None:
                e = (ch.l * x + ch.u * y) % qc
                sums[e] = sums.get(e, 0) - ch.degree
            if not self._vanishes(sums):
                return False
        return True

    def check_value_function_agreement(self) -> CheckResult:
        """Monomial exponents agree with the CyclotomicElement value
        function on VALUE_SAMPLES random elements (ties fast path to slow
        path); each element reads the basis cells of its class."""
        if not self.chars:
            return CheckResult("value_agreement", False, "no characters")
        params, class_of = self.params, self.class_index[0]
        level, qa, qb = params.ambient_level, params.p ** params.n, params.p ** params.m
        for _ in range(VALUE_SAMPLES):
            k = self.rng.randrange(len(self.chars))
            i, j = self.rng.randrange(qa), self.rng.randrange(qb)
            ch, c = self.chars[k], class_of[i * qb + j]
            slow = character_value(ch, GroupElement(i, j), params)
            x, y = self.basis_rows[ch.t][c], self.basis_rows[-1][c]
            fast = 0 if x is None or y is None else ch.degree * cyclotomic.root_power(
                params.p, level, ch.l * x + ch.u * y)
            if slow != fast:
                return CheckResult("value_agreement", False, f"char {k} at ({i}, {j})")
        return CheckResult("value_agreement", True, f"samples={VALUE_SAMPLES}")

    def check_rational_counts(self) -> CheckResult:
        """Closed-form per-degree rational counts == oracle class counts, from
        classes whose members, as a multiset, are exactly the listed characters."""
        if sorted(ch for cls in self.galois for ch in cls.members) != sorted(self.chars):
            return CheckResult("rational_counts", False, "class members != listed characters")
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
