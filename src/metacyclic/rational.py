"""Galois conjugacy classes of Irr(G) and the simple components they induce.

This is the oracle-side route to the decomposition of the rational group
algebra: group the complex irreducibles into Galois conjugacy classes, read
off each class's character field Q(zeta_{p^L}), and emit one matrix
component M_{deg}(Q(zeta_{p^L})) per class (the relevant Schur indices are
all 1 for odd p, which validation enforces by rejecting p = 2).

The Galois action is computed on parameter tuples: sigma_alpha sends the
character (t, l, u) to (t, canonical(alpha l), alpha u mod p^(m-t)), where
canonical is the residue mod p^(n-s) (see `canonical_orbit_label`); at
t = 0 this is the action on the character grid of
G/G' = C_{p^(n-s)} x C_{p^m}. The acting group
(Z/p^C)^* is cyclic for odd p, so one generator sigma_g reaches every
conjugate: each class is walked as one cycle of sigma_g, one image per
character. The action is applied to the whole list in one pass (`_images`),
which gives every character's image as a (t, l, u, degree) tuple; the walk
then runs on positions in the sorted list. deep.py certifies the same pass
against the value-level action, on every character, under sigma_g.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .arith import _valuation, phi_pk, unit_group_generator
from .complex_reps import IrreducibleCharacter, canonical_orbit_label
from .components import WedderburnDecomposition, assemble_components
from .errors import InternalInconsistencyError, ValidationError
from .group import GroupParams


class GaloisClass(NamedTuple):
    """An orbit of Irr(G) under the Galois action on character values.

    size = [Q(psi) : Q] = phi(p^field_level); the representative is the
    least member in tuple order (members are sorted).
    """

    members: tuple[IrreducibleCharacter, ...]
    field_level: int

    @property
    def representative(self) -> IrreducibleCharacter:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


def _exact_level(x: int, e: int, p: int) -> int:
    """Level L with zeta_{p^e}^x of exact order p^L: e - w_p(x mod p^e),
    or 0 when x = 0 mod p^e."""
    x %= p ** e
    return e - _valuation(x, p) if x else 0


def character_field_level(ch: IrreducibleCharacter, params: GroupParams) -> int:
    """Level L of the character field Q(psi) = Q(zeta_{p^L}).

    The values generate the field of zeta_{p^n}^(l p^s) = zeta_{p^(n-s)}^l
    and omega = zeta_{p^(m-t)}^u together, so L is the larger of their
    exact levels (n-s for a unit label l when t >= 1).
    """
    p = params.p
    return max(
        _exact_level(ch.l, params.n - params.s, p),
        _exact_level(ch.u, params.m - ch.t, p),
    )


def _images(
    chars: list[IrreducibleCharacter], alpha: int, params: GroupParams
) -> list[tuple[int, int, int, int]]:
    """The image of every character under sigma_alpha, as a (t, l, u,
    degree) tuple, in one pass over `chars` (gcd(alpha, p) = 1).

    sigma_alpha keeps t and the degree, sends l to
    canonical_orbit_label(alpha l) and u to alpha u mod p^(m-t). Label and
    modulus are computed once per run of equal (t, l), which is one orbit's
    worth of u in tuple order.
    """
    p = params.p
    if gcd(alpha, p) != 1:
        raise ValidationError(f"alpha={alpha} is divisible by p={p}")
    images: list[tuple[int, int, int, int]] = []
    run_t = run_l = None
    for t, l, u, degree in chars:
        if t != run_t or l != run_l:
            run_t, run_l = t, l
            label, modulus = canonical_orbit_label(params, alpha * l), p ** (params.m - t)
        images.append((t, label, alpha * u % modulus, degree))
    return images


def sigma_on_character(
    ch: IrreducibleCharacter, alpha: int, params: GroupParams
) -> IrreducibleCharacter:
    """The parameter-tuple form of psi^sigma_alpha (gcd(alpha, p) = 1), the
    image that `_images` gives ch. Nothing in the package calls it; the
    tests and the benchmark's tracer still name it."""
    return IrreducibleCharacter(*_images([ch], alpha, params)[0])


def galois_classes(
    chars: list[IrreducibleCharacter], params: GroupParams
) -> list[GaloisClass]:
    """Partition the complete irreducible list into Galois conjugacy classes.

    Gal(Q(zeta_{p^C})/Q) = (Z/p^C)^*, C = max(n, m), is cyclic for odd p,
    so each class is the cycle ch -> sigma_g(ch) -> ... of one generator g,
    walked until it returns to ch. Rejects an incomplete input list (sum of
    degree^2 must be |G|) and duplicates. Every image must lie in the list,
    a walk may take at most phi(p^C) steps, and every class size is checked
    against phi(p^L) of its field level, which is what the class size must be.

    The walk runs on positions in the sorted list: `_images` gives every
    character's image in one pass, one dict keyed on the characters turns
    images into positions, and a bytearray marks the positions already
    classed.
    """
    if sum(ch.degree ** 2 for ch in chars) != params.order:
        raise ValidationError("character list is incomplete: sum(deg^2) != |G|")
    listed = sorted(chars)
    position = dict(zip(listed, range(len(listed))))
    if len(position) != len(listed):
        raise ValidationError("character list contains duplicates")
    level_c = params.ambient_level
    images = _images(listed, unit_group_generator(params.p, level_c), params)
    successor = list(map(position.get, images))
    if None in successor:
        raise InternalInconsistencyError(
            "Galois image escapes the enumerated character list"
        )
    max_steps = phi_pk(params.p, level_c)
    seen = bytearray(len(listed))
    classes: list[GaloisClass] = []
    start = seen.find(0)
    while start >= 0:
        cycle = []
        k = start
        for _ in range(max_steps):
            cycle.append(k)
            seen[k] = 1
            k = successor[k]
            if k == start:
                break
        else:
            raise InternalInconsistencyError(
                f"Galois walk from {listed[start]} exceeds phi(p^{level_c}) steps"
            )
        cycle.sort()
        members = tuple(map(listed.__getitem__, cycle))
        level = character_field_level(members[0], params)
        if len(members) != phi_pk(params.p, level):
            raise InternalInconsistencyError(
                f"class size {len(members)} != phi(p^{level})"
            )
        classes.append(GaloisClass(members, level))
        start = seen.find(0, start + 1)
    return classes


def wedderburn_from_classes(
    classes: list[GaloisClass], params: GroupParams
) -> WedderburnDecomposition:
    """One component M_{psi(1)}(Q(zeta_{p^L})) per class, canonically merged.

    A failed dimension identity is a hard fault, not a recoverable error:
    it means the classes do not partition Irr(G) or a field level is wrong.
    """
    decomposition = assemble_components(
        params.p,
        ((cls.representative.degree, cls.field_level, 1) for cls in classes),
    )
    if decomposition.dimension() != params.order:
        raise InternalInconsistencyError(
            f"dimension identity failed: {decomposition.dimension()} != {params.order}"
        )
    return decomposition


def rational_counts_from_classes(
    classes: list[GaloisClass], params: GroupParams
) -> dict[int, int]:
    """Table degree -> count of inequivalent irreducible rational
    representations; the degree of the one attached to a class is
    psi(1) * phi(p^L)."""
    counts: dict[int, int] = {}
    for cls in classes:
        degree = cls.representative.degree * phi_pk(params.p, cls.field_level)
        counts[degree] = counts.get(degree, 0) + 1
    return dict(sorted(counts.items()))
