"""Galois conjugacy classes of Irr(G) and the simple components they induce.

This is the oracle-side route to the decomposition of the rational group
algebra: group the complex irreducibles into Galois conjugacy classes, read
off each class's character field Q(zeta_{p^L}), and emit one matrix
component M_{deg}(Q(zeta_{p^L})) per class (the relevant Schur indices are
all 1 for odd p, which validation enforces by rejecting p = 2).

The Galois action is computed on parameter tuples: sigma_alpha sends
Induced(t, l, u) to Induced(t, canonical(alpha l), alpha u) and
Linear(lam, u) to Linear(alpha lam, alpha u) - the latter is exactly the
action on the character grid of G/G' = C_{p^(n-s)} x C_{p^m}; canonical
is the residue l mod p^(n-s) (see `canonical_orbit_label`). The acting group
(Z/p^C)^* is cyclic for odd p, so one generator sigma_g reaches every
conjugate: each class is walked as one cycle of sigma_g, one image per
character. Agreement with the value-level action is checked at oracle scale
in verify.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import p_adic_valuation, phi_pk, unit_group_generator
from .complex_reps import (
    InducedOrbit,
    IrreducibleCharacter,
    LinearOrbit,
    canonical_orbit_label,
)
from .components import (  # noqa: F401 (SimpleComponent is a re-export)
    SimpleComponent,
    WedderburnDecomposition,
    assemble_components,
)
from .errors import InternalInconsistencyError, ValidationError
from .group import GroupParams


@dataclass(frozen=True)
class GaloisClass:
    """An orbit of Irr(G) under the Galois action on character values.

    size = [Q(psi) : Q] = phi(p^field_level); the representative is the
    lexicographically least parameter tuple.
    """

    representative: IrreducibleCharacter
    members: tuple[IrreducibleCharacter, ...]
    size: int
    field_level: int


def character_field_level(ch: IrreducibleCharacter, params: GroupParams) -> int:
    """Level L of the character field Q(psi) = Q(zeta_{p^L}).

    Induced with omega of exact order p^lw: the values generate the field
    of zeta_{p^(n-s)} and omega together, so L = max(n-s, lw). Linear: the
    level of the corresponding character of C_{p^(n-s)} x C_{p^m}.
    """
    p = params.p
    if isinstance(ch.orbit, LinearOrbit):
        lam, u = ch.orbit.lam, ch.u
        la = 0 if lam == 0 else (params.n - params.s) - p_adic_valuation(lam, p)
        lb = 0 if u == 0 else params.m - p_adic_valuation(u, p)
        return max(la, lb)
    t = ch.orbit.t
    lw = 0 if ch.u == 0 else (params.m - t) - p_adic_valuation(ch.u, p)
    return max(params.n - params.s, lw)


def sigma_on_character(
    ch: IrreducibleCharacter, alpha: int, params: GroupParams
) -> IrreducibleCharacter:
    """The parameter-tuple form of psi^sigma_alpha (gcd(alpha, p) = 1)."""
    p = params.p
    if gcd(alpha, p) != 1:
        raise ValidationError(f"alpha={alpha} is divisible by p={p}")
    if isinstance(ch.orbit, LinearOrbit):
        lam = alpha * ch.orbit.lam % p ** (params.n - params.s)
        u = alpha * ch.u % p ** params.m
        return IrreducibleCharacter(LinearOrbit(lam), u, 1)
    t = ch.orbit.t
    label = canonical_orbit_label(params, t, alpha * ch.orbit.l % p ** (params.n - params.s + t))
    u = alpha * ch.u % p ** (params.m - t)
    return IrreducibleCharacter(InducedOrbit(t, label), u, ch.degree)


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
    """
    if sum(ch.degree ** 2 for ch in chars) != params.order:
        raise ValidationError("character list is incomplete: sum(deg^2) != |G|")
    pool = set(chars)
    if len(pool) != len(chars):
        raise ValidationError("character list contains duplicates")
    level_c = max(params.n, params.m)
    g = unit_group_generator(params.p, level_c)
    max_steps = phi_pk(params.p, level_c)
    seen: set[IrreducibleCharacter] = set()
    classes: list[GaloisClass] = []
    for ch in sorted(chars, key=IrreducibleCharacter.key):
        if ch in seen:
            continue
        orbit = [ch]
        image = sigma_on_character(ch, g, params)
        while image != ch:
            if image not in pool:
                raise InternalInconsistencyError(
                    "Galois image escapes the enumerated character list"
                )
            if len(orbit) == max_steps:
                raise InternalInconsistencyError(
                    f"Galois walk from {ch} exceeds phi(p^{level_c}) steps"
                )
            orbit.append(image)
            image = sigma_on_character(image, g, params)
        members = tuple(sorted(orbit, key=IrreducibleCharacter.key))
        seen.update(orbit)
        level = character_field_level(members[0], params)
        if len(members) != phi_pk(params.p, level):
            raise InternalInconsistencyError(
                f"class size {len(members)} != phi(p^{level})"
            )
        classes.append(GaloisClass(members[0], members, len(members), level))
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
