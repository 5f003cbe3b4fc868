"""The split metacyclic p-group <a, b | a^(p^n) = b^(p^m) = 1, b a b^-1 = a^r>.

Validated presentation parameters, the grid of every non-abelian (n, m, s)
up to an order bound, normal-form elements a^i b^j, and brute-force
conjugacy classes of flat indices i * p^m + j. p is checked by
`arith.check_odd_prime` and |G| by `arith.check_power_bound`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .arith import check_odd_prime, check_power_bound, split_r
from .errors import InternalInconsistencyError, SizeBoundError, ValidationError

# The oracle routes walk G or enumerate Irr(G): a tighter cap than
# FORMULA_ORDER_BOUND, which `arith` defines for the checks on p and |G|.
ORACLE_ORDER_BOUND = 10 ** 4


class GroupElement(NamedTuple):
    """Normal form a^i b^j with 0 <= i < p^n, 0 <= j < p^m."""

    i: int
    j: int


class GroupParams(NamedTuple):
    """Validated presentation data (p, n, m, r) with derived (s, k).

    s is the exponent of the order of r mod p^n (order = p^s) and
    r = 1 + k * p^(n-s) with gcd(k, p) = 1. Abelian mode (r = 1, s = 0)
    is a first-class state so the commutative case stays testable.
    Instances are immutable and shareable across threads.
    """

    p: int
    n: int
    m: int
    r: int
    s: int
    k: int

    @property
    def abelian(self) -> bool:
        """s = 0, i.e. r = 1 and G = C_{p^n} x C_{p^m}."""
        return self.s == 0

    @property
    def order(self) -> int:
        return self.p ** (self.n + self.m)

    @property
    def class_count(self) -> int:
        """#Irr(G) = number of conjugacy classes: p^(n+m-s) + p^(n+m-s-1)
        - p^(n+m-2s-1) (p^(n+m) at s = 0). A guard for the routes that
        count them, never a result."""
        p, e, s = self.p, self.n + self.m, self.s
        return p ** (e - s) + p ** (e - s - 1) - p ** (e - 2 * s - 1)

    @property
    def ambient_level(self) -> int:
        """Level C = max(n, m): every character value lies in Q(zeta_{p^C})."""
        return max(self.n, self.m)

    @property
    def canonical_r(self) -> int:
        """The representative twist 1 + p^(n-s): same group, same invariants."""
        if self.abelian:
            return 1
        return 1 + self.p ** (self.n - self.s)


def _check_shape(p: int, n: int, m: int, abelian: bool) -> None:
    """The checks on (p, n, m) alone, cheapest first: p and n + m are
    bounded before `is_prime` or p^(n+m) can take long."""
    check_odd_prime(p)
    if abelian:
        if n < 0 or m < 0 or n + m < 1:
            raise ValidationError(f"abelian mode needs n, m >= 0, n+m >= 1, got ({n}, {m})")
    else:
        if n < 2:
            raise ValidationError(f"n must be >= 2, got {n}")
        if m < 1:
            raise ValidationError(f"m must be >= 1, got {m}")
    check_power_bound(p, n + m, "|G|")


def validate(p: int, n: int, m: int, r: int, *, abelian: bool = False) -> GroupParams:
    """Check a presentation and derive (s, k); the only constructor.

    Rejects non-prime or even p, exponent ranges outside the presentation's
    scope, |G| = p^(n+m) above FORMULA_ORDER_BOUND, r not coprime to p, r
    whose order mod p^n is not a p-power, and s > m (the presentation would
    not define a group of order p^(n+m)). r is reduced mod p^n first.
    r = 1 mod p^n is only allowed with abelian=True, which stores r = 1.
    """
    _check_shape(p, n, m, abelian)
    q = p ** n
    r = r % q
    if abelian:
        if r != 1 % q:
            raise ValidationError(f"abelian mode requires r = 1 mod p^n, got r={r}")
        return GroupParams(p, n, m, 1, 0, 0)
    if gcd(r, p) != 1:
        raise ValidationError(f"r={r} is not coprime to p={p}")
    if r == 1:
        raise ValidationError("r = 1 mod p^n is the abelian group: use s = 0")
    k, s = split_r(r, p, n)  # rejects r != 1 mod p, re-checks the order
    if s > m:
        raise ValidationError(
            f"s={s} > m={m}: b^(p^m)=1 forces r^(p^m)=1 mod p^n, i.e. s <= m"
        )
    return GroupParams(p, n, m, r, s, k)


def from_s(p: int, n: int, m: int, s: int) -> GroupParams:
    """Parameters with the canonical twist r = 1 + p^(n-s); s = 0 is abelian."""
    if s == 0:
        return validate(p, n, m, 1, abelian=True)
    if not 1 <= s <= n - 1:
        raise ValidationError(f"s must satisfy 1 <= s <= n-1, got s={s}, n={n}")
    _check_shape(p, n, m, False)  # before p^(n-s), which can be huge
    return validate(p, n, m, 1 + p ** (n - s))


def valid_parameter_sets(p: int, max_order: int):
    """All non-abelian (n, m, s) with p^(n+m) <= max_order, canonical r.
    p is checked first, so a bad p is rejected even when no group fits."""
    check_odd_prime(p)
    nm = 3  # n >= 2, m >= 1
    while p ** nm <= max_order:
        for n in range(2, nm):
            m = nm - n
            for s in range(1, min(n - 1, m) + 1):
                yield from_s(p, n, m, s)
        nm += 1


def check_oracle_bound(params: GroupParams) -> None:
    """Reject groups above ORACLE_ORDER_BOUND before any route that walks
    all group elements or enumerates Irr(G)."""
    if params.order > ORACLE_ORDER_BOUND:
        raise SizeBoundError(
            f"|G| = {params.order} exceeds the oracle bound {ORACLE_ORDER_BOUND}"
        )


@lru_cache(maxsize=128)
def _r_power_table(params: GroupParams) -> tuple[int, ...]:
    """r^j mod p^n for j = 0..p^m-1: read by the conjugacy walk,
    `complex_reps.orbit_members` and `deep.monomial_generators`."""
    q = params.p ** params.n
    table = [1] * (params.p ** params.m)
    for j in range(1, len(table)):
        table[j] = (table[j - 1] * params.r) % q
    return tuple(table)


def conjugacy_classes(params: GroupParams) -> list[tuple[int, ...]]:
    """Exact partition of all p^(n+m) elements under conjugation, as sorted
    tuples of flat indices i * p^m + j (the layout of `deep.value_table`),
    ordered by their least element.

    Orbit closure under conjugation by the two generators only; on a finite
    set that already yields the orbits of the full group. The walk starts
    each orbit at the least element not yet seen. The class count is
    checked against `GroupParams.class_count`. Bounded by ORACLE_ORDER_BOUND.
    """
    check_oracle_bound(params)
    qa = params.p ** params.n
    qb = params.p ** params.m
    r, r_pow = params.r, _r_power_table(params)
    seen = bytearray(qa * qb)
    classes = []
    for start in range(qa * qb):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        stack = [start]
        while stack:
            i, j = divmod(stack.pop(), qb)
            # a (a^i b^j) a^-1 = a^(i + 1 - r^j) b^j, b (a^i b^j) b^-1 = a^(i r) b^j
            for y in ((i + 1 - r_pow[j]) % qa * qb + j, i * r % qa * qb + j):
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
                    stack.append(y)
        orbit.sort()
        classes.append(tuple(orbit))
    if len(classes) != params.class_count:
        raise InternalInconsistencyError(
            f"{len(classes)} conjugacy classes, expected {params.class_count}"
        )
    return classes
