"""Irreducible complex characters of the split metacyclic group, for every s.

The little-group construction specialised to N = <a> normal cyclic and
H = <b>: the b-action on Irr(N) is chi_k -> chi_{rk}. Its orbits (t, l)
are the singletons {chi_{l p^s}}, l < p^(n-s), at t = 0 and the orbits of
size p^t labelled by a unit l < p^(n-s) for t = 1..s. Each orbit with a
character omega^u of the inertia quotient, u < p^(m-t), gives one
irreducible (t, l, u, degree p^t) of G; t = 0 gives the linear characters
(all of them at s = 0, the abelian group). Values: `character_value`, which
alone reads `cyclotomic`, at call time, so enumerating characters never
executes it.
Value tables and explicit (monomial) matrices exist only inside the
verification code, `verify.monomial_form` and `verify.monomial_generators`,
which the deep checks compare against `character_value`.
"""

from __future__ import annotations

from typing import NamedTuple

from . import cyclotomic
from .errors import InternalInconsistencyError
from .group import GroupElement, GroupParams, _r_power_table, check_oracle_bound


class IrreducibleCharacter(NamedTuple):
    """The irreducible induced from orbit (t, l) with omega = zeta_{p^(m-t)}^u.

    Degree p^t; values given by `character_value`. Tuple order is the
    canonical character order: by t, then l, then u.
    """

    t: int
    l: int
    u: int
    degree: int


def canonical_orbit_label(params: GroupParams, l: int) -> int:
    """Minimal element of the orbit {l r^i mod p^(n-s+t)} of l (a unit
    when t >= 1), which is l mod p^(n-s) whatever the orbit's t.

    At t = 0, <r> acts trivially on Z/p^(n-s) and the orbit is {l}. For
    t >= 1, r = 1 + k p^(n-s) with gcd(k, p) = 1 has order exactly p^t mod
    p^(n-s+t), and the units = 1 mod p^(n-s) form a cyclic group of that
    order containing r, so <r> is all of them. The orbit of l is therefore
    l (1 + p^(n-s) Z), the whole residue class of l mod p^(n-s) inside
    Z/p^(n-s+t), and its minimum is l mod p^(n-s).
    """
    return l % params.p ** (params.n - params.s)


def orbit_decomposition(params: GroupParams) -> list[tuple[int, int]]:
    """All orbits (t, l) of the b-action on Irr(<a>), duplicate-free.

    p^(n-s) singletons (0, l) (p^n at s = 0), then for each t = 1..s the
    phi(p^(n-s)) orbits (t, l) of size p^t labelled by the units below
    p^(n-s). The members of all orbits must cover each chi-index
    0..p^n-1 exactly once.
    """
    p, n, s = params.p, params.n, params.s
    orbits = [(0, l) for l in range(p ** (n - s))]
    units = [l for l in range(1, p ** (n - s)) if l % p]
    for t in range(1, s + 1):
        orbits.extend((t, l) for l in units)
    hits = [0] * p ** n
    for t, l in orbits:
        for k in orbit_members(params, t, l):
            hits[k] += 1
    if any(h != 1 for h in hits):
        raise InternalInconsistencyError("orbits do not tile Irr(<a>)")
    return orbits


def orbit_members(params: GroupParams, t: int, l: int) -> list[int]:
    """The chi-indices k (characters chi_k of <a>) making up orbit (t, l):
    l p^(s-t) r^i mod p^n for i = 0..p^t-1 (p^t <= p^m, so the powers are
    the head of `group._r_power_table`)."""
    q = params.p ** params.n
    shift = params.p ** (params.s - t)
    return [l * step * shift % q for step in _r_power_table(params)[: params.p ** t]]


def enumerate_irreducibles(params: GroupParams) -> list[IrreducibleCharacter]:
    """The complete duplicate-free list of irreducible complex characters,
    in tuple order.

    p^(n+m-s) linear characters (t = 0) plus phi(p^(n-s)) p^(m-t)
    characters of degree p^t for each t = 1..s. The oracle bound is checked
    first; the count and sum(deg^2) = |G| are enforced before returning.
    """
    check_oracle_bound(params)
    p, m = params.p, params.m
    chars = [
        IrreducibleCharacter(t, l, u, p ** t)
        for t, l in orbit_decomposition(params)
        for u in range(p ** (m - t))
    ]
    if len(chars) != params.class_count:
        raise InternalInconsistencyError(
            f"character count {len(chars)} != {params.class_count}"
        )
    if sum(ch.degree ** 2 for ch in chars) != params.order:
        raise InternalInconsistencyError("sum of degree^2 != |G|")
    return chars


def complex_counts_from_characters(chars: list[IrreducibleCharacter]) -> dict[int, int]:
    """Table degree -> count of irreducible complex characters in `chars`."""
    counts: dict[int, int] = {}
    for ch in chars:
        counts[ch.degree] = counts.get(ch.degree, 0) + 1
    return dict(sorted(counts.items()))


def character_value(
    ch: IrreducibleCharacter, g: GroupElement, params: GroupParams
) -> cyclotomic.CyclotomicElement:
    """Exact value of the character at a^i b^j: with d = p^t,
    d * omega^(j/d) * zeta_{p^n}^(i l p^(s-t)) when d divides both i and j,
    else 0 (never 0 at t = 0, where it is zeta_{p^n}^(l p^s i) zeta_{p^m}^(u j)).
    """
    p, n, m, s = params.p, params.n, params.m, params.s
    t = ch.t
    d = p ** t
    if g.i % d or g.j % d:
        return cyclotomic.CyclotomicElement.rational(p, 0)
    omega = cyclotomic.root_power(p, m - t, ch.u * (g.j // d))
    za = cyclotomic.root_power(p, n, g.i * ch.l * p ** (s - t))
    return d * omega * za
