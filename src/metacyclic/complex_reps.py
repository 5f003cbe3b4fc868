"""Irreducible complex characters of the split metacyclic group, for every s.

The little-group construction specialised to N = <a> normal cyclic and
H = <b>: the b-action on Irr(N) is chi_k -> chi_{rk}, its orbits are
singletons {chi_{lam p^s}} plus orbits of size p^t indexed by a canonical
unit label l, and each orbit together with a character omega^u of the
inertia quotient yields one irreducible character of G (at s = 0, the
abelian group, all orbits are singletons and all characters linear).
Characters are stored as parameter tuples with an exact value function,
`character_value`.
Value tables and explicit (monomial) matrices exist only inside the
verification code, `verify.monomial_form` and `verify.monomial_generators`,
which the deep checks compare against `character_value`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .cyclotomic import CyclotomicElement, root_power
from .errors import InternalInconsistencyError
from .group import GroupElement, GroupParams


@dataclass(frozen=True, order=True, slots=True)
class LinearOrbit:
    """Singleton orbit {chi_{lam p^s}}, 0 <= lam < p^(n-s)."""

    lam: int


@dataclass(frozen=True, order=True, slots=True)
class InducedOrbit:
    """Orbit {l r^i mod p^(n-s+t)} of size p^t with canonical label
    l mod p^(n-s): the orbit is the residue class of l mod p^(n-s), so the
    label is its minimum, a unit below p^(n-s) (`canonical_orbit_label`)."""

    t: int
    l: int


OrbitDescriptor = Union[LinearOrbit, InducedOrbit]


@dataclass(frozen=True, slots=True)
class IrreducibleCharacter:
    """A parameterized irreducible character: orbit + exponent u of omega.

    Linear (degree 1): value zeta_{p^n}^(lam p^s i) * zeta_{p^m}^(u j).
    Induced (degree p^t): omega = zeta_{p^(m-t)}^u; values given by
    `character_value`. The tuple form (see `key`) orders characters
    deterministically.
    """

    orbit: OrbitDescriptor
    u: int
    degree: int

    def key(self) -> tuple:
        if isinstance(self.orbit, LinearOrbit):
            return (0, 0, self.orbit.lam, self.u)
        return (1, self.orbit.t, self.orbit.l, self.u)

    @property
    def is_linear(self) -> bool:
        return isinstance(self.orbit, LinearOrbit)


@lru_cache(maxsize=256)
def _orbit_step_table(params: GroupParams, t: int) -> tuple[int, ...]:
    """Powers r^i mod p^(n-s+t) for i = 0..p^t-1: one full orbit of steps."""
    q = params.p ** (params.n - params.s + t)
    table = [1] * (params.p ** t)
    for i in range(1, len(table)):
        table[i] = (table[i - 1] * params.r) % q
    return tuple(table)


def canonical_orbit_label(params: GroupParams, t: int, l: int) -> int:
    """Minimal element of the orbit {l r^i mod p^(n-s+t)} of the unit l.

    r = 1 + k p^(n-s) with gcd(k, p) = 1 has order exactly p^t mod
    p^(n-s+t), and the units = 1 mod p^(n-s) form a cyclic group of that
    order containing r, so <r> is all of them. The orbit of l is therefore
    l (1 + p^(n-s) Z), the whole residue class of l mod p^(n-s) inside
    Z/p^(n-s+t), and its minimum is l mod p^(n-s).
    """
    return l % params.p ** (params.n - params.s)


def orbit_decomposition(params: GroupParams) -> list[OrbitDescriptor]:
    """All orbits of the b-action on Irr(<a>), duplicate-free.

    p^(n-s) singletons (p^n at s = 0), then for each t = 1..s the
    phi(p^(n-s)) orbits of size p^t labelled by the units below p^(n-s).
    The members of all orbits must cover each chi-index 0..p^n-1 exactly
    once.
    """
    p, n, s = params.p, params.n, params.s
    orbits: list[OrbitDescriptor] = [LinearOrbit(lam) for lam in range(p ** (n - s))]
    units = [l for l in range(1, p ** (n - s)) if l % p]
    for t in range(1, s + 1):
        orbits.extend(InducedOrbit(t, l) for l in units)
    hits = [0] * p ** n
    for orbit in orbits:
        for k in orbit_members(params, orbit):
            hits[k] += 1
    if any(h != 1 for h in hits):
        raise InternalInconsistencyError("orbits do not tile Irr(<a>)")
    return orbits


def orbit_members(params: GroupParams, orbit: OrbitDescriptor) -> list[int]:
    """The chi-indices k (characters chi_k of <a>) making up the orbit."""
    if isinstance(orbit, LinearOrbit):
        return [orbit.lam * params.p ** params.s]
    q = params.p ** params.n
    shift = params.p ** (params.s - orbit.t)
    return [orbit.l * step * shift % q for step in _orbit_step_table(params, orbit.t)]


def enumerate_irreducibles(params: GroupParams) -> list[IrreducibleCharacter]:
    """The complete duplicate-free list of irreducible complex characters.

    p^(n+m-s) linear characters plus phi(p^(n-s)) p^(m-t) characters of
    degree p^t for each t = 1..s; the count and the degree-square identity
    sum(deg^2) = |G| are enforced before returning.
    """
    p, n, m, s = params.p, params.n, params.m, params.s
    chars: list[IrreducibleCharacter] = []
    for orbit in orbit_decomposition(params):  # the linear orbits come first
        t = orbit.t if isinstance(orbit, InducedOrbit) else 0
        chars.extend(IrreducibleCharacter(orbit, u, p ** t) for u in range(p ** (m - t)))
    expected_total = p ** (n + m - s) + p ** (n + m - s - 1) - p ** (n + m - 2 * s - 1)
    if len(chars) != expected_total:
        raise InternalInconsistencyError(
            f"character count {len(chars)} != {expected_total}"
        )
    if sum(ch.degree ** 2 for ch in chars) != params.order:
        raise InternalInconsistencyError("sum of degree^2 != |G|")
    return chars


def character_value(
    ch: IrreducibleCharacter, g: GroupElement, params: GroupParams
) -> CyclotomicElement:
    """Exact value of the character at a^i b^j.

    Linear: zeta_{p^n}^(lam p^s i) * zeta_{p^m}^(u j). Induced of degree
    p^t: p^t * omega^(j/p^t) * zeta_{p^n}^(i l p^(s-t)) when p^t divides
    both i and j, else 0.
    """
    p, n, m, s = params.p, params.n, params.m, params.s
    if isinstance(ch.orbit, LinearOrbit):
        za = root_power(p, n, ch.orbit.lam * p ** s * g.i)
        zb = root_power(p, m, ch.u * g.j)
        return za * zb
    t, l = ch.orbit.t, ch.orbit.l
    d = p ** t
    if g.i % d or g.j % d:
        return CyclotomicElement.rational(p, 0)
    omega = root_power(p, m - t, ch.u * (g.j // d))
    za = root_power(p, n, g.i * l * p ** (s - t))
    return d * omega * za

