"""Simple components of QG and their canonical multiset.

Both routes emit this type: `formulas` from the closed form, `rational`
from Galois classes. It imports only `arith` and `errors`, so the closed
form never loads oracle code.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import check_odd_prime, phi_pk
from .errors import ValidationError


class SimpleComponent(NamedTuple):
    """One summand M_q(Q(zeta_{p^lambda})): matrix_size q = p^t, center
    level lambda (0 means Q), and its multiplicity in the decomposition."""

    matrix_size: int
    center_level: int
    multiplicity: int


class WedderburnDecomposition(NamedTuple):
    """Canonical multiset of simple components: merged by (matrix_size,
    center_level) and sorted ascending, so equality is multiset equality."""

    p: int
    components: tuple[SimpleComponent, ...]

    def dimension(self) -> int:
        return sum(
            c.multiplicity * c.matrix_size ** 2 * phi_pk(self.p, c.center_level)
            for c in self.components
        )

    def as_multiset(self) -> dict[tuple[int, int], int]:
        return {
            (c.matrix_size, c.center_level): c.multiplicity
            for c in self.components
        }


def assemble_components(p: int, items) -> WedderburnDecomposition:
    """Merge raw (matrix_size, center_level, multiplicity) triples into the
    canonical sorted component tuple."""
    check_odd_prime(p)
    merged: dict[tuple[int, int], int] = {}
    for q, lam, mult in items:
        if mult < 0:
            raise ValidationError("negative multiplicity")
        if mult:
            key = (q, lam)
            merged[key] = merged.get(key, 0) + mult
    comps = tuple(
        SimpleComponent(q, lam, merged[(q, lam)])
        for q, lam in sorted(merged)
    )
    return WedderburnDecomposition(p, comps)
