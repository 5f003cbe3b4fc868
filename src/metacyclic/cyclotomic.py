"""Exact arithmetic in prime-power cyclotomic fields Q(zeta_{p^N}).

An element keeps only the nonzero coordinates of the power basis
{zeta^0, ..., zeta^{phi(p^N)-1}}: a sorted tuple of (exponent, Fraction)
terms, reduced modulo the single relation

    zeta^{(p-1)p^{N-1}} = -(zeta^0 + zeta^{p^{N-1}} + ... + zeta^{(p-2)p^{N-1}}),

i.e. Phi_{p^N}(zeta) = 0. `_fold` is the one reduction, so work and memory
follow the number of terms, not phi(p^N). Level 0 means a plain rational.
Arithmetic coerces levels implicitly via zeta_{p^a} = zeta_{p^b}^{p^(b-a)}
and never rounds; the reduced terms are a canonical form, so equality
(after common-level coercion) is term-wise. Coefficients are ints or
Fractions; nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .arith import _valuation, check_odd_prime, check_power_bound, phi_pk
from .errors import ValidationError


def _check_level(p: int, level: int) -> None:
    """The checks on (p, level), before p^level is computed: p is an odd
    prime, level >= 0, and p^level <= FORMULA_ORDER_BOUND by
    `arith.check_power_bound`, as `group._check_shape` bounds |G|. Every
    admissible group meets it, since p^C <= |G|."""
    check_odd_prime(p)
    if level < 0:
        raise ValidationError(f"level must be >= 0, got {level}")
    check_power_bound(p, level, "p^level")


def _fold(p: int, level: int, pairs) -> tuple:
    """Reduce raw (exponent, coefficient) pairs to canonical terms.

    Exponents wrap mod p^level and coefficients with one exponent are
    summed, zeros skipped; then each exponent e >= phi is rewritten as
    -sum_{j<p-1} zeta^(e-phi+j p^(level-1)). Every target is below phi, so
    one pass suffices. Raises ValidationError on a coefficient that is not
    an int or a Fraction, so nothing inexact enters an element.
    """
    q = p ** level
    acc: dict = {}
    for e, c in pairs:
        if not isinstance(c, (int, Fraction)):
            raise ValidationError(f"coefficients must be int or Fraction, got {c!r}")
        if c:
            e %= q
            acc[e] = acc.get(e, 0) + c
    phi = phi_pk(p, level)
    for e in [e for e in acc if e >= phi]:
        c = acc.pop(e)
        for f in range(e - phi, phi, q // p):
            acc[f] = acc.get(f, 0) - c
    return tuple(sorted(
        (e, c if type(c) is Fraction else Fraction(c)) for e, c in acc.items() if c
    ))


def reduce_power_vector(p: int, level: int, vec) -> list:
    """Fold raw zeta_{p^level} exponent coefficients into the power basis.

    `vec` is indexed by exponent (any length; exponents wrap mod p^level)
    with int or Fraction entries. Returns the dense canonical coordinates,
    a list of length phi(p^level). p and level are checked here, before
    p^level is computed.
    """
    _check_level(p, level)
    out = [0] * phi_pk(p, level)
    for e, c in _fold(p, level, enumerate(vec)):
        out[e] = c
    return out


class CyclotomicElement:
    """An element of Q(zeta_{p^level}) as its reduced nonzero terms.

    `CyclotomicElement(p, level, terms)` trusts `terms` to be canonical
    (sorted, nonzero, exponents below phi); use `rational`,
    `from_power_vector` or `root_power` to build from raw input. A level
    whose terms are at most a constant collapses to 0. Instances are
    immutable and safe to share across threads. Equality coerces both
    operands to a common level first, so e.g.
    root_power(3, 2, 3) == root_power(3, 1, 1). Level-0 elements are
    rationals and compare/combine with elements of any prime. A number type,
    so a slotted class rather than a NamedTuple: it must not inherit tuple
    order, len or iteration. Assigning or deleting an attribute raises
    AttributeError; `__reduce__` rebuilds through `__init__`, so pickle
    and `copy` never assign one.
    """

    __slots__ = ("p", "level", "terms")

    p: int
    level: int
    terms: tuple[tuple[int, Fraction], ...]

    def __init__(self, p: int, level: int, terms: tuple[tuple[int, Fraction], ...]):
        if level and (not terms or terms[-1][0] == 0):
            level = 0
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return CyclotomicElement, (self.p, self.level, self.terms)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The dense power-basis coordinates: phi(p^level) Fractions."""
        out = [Fraction(0)] * phi_pk(self.p, self.level)
        for e, c in self.terms:
            out[e] = c
        return tuple(out)

    # -- construction --------------------------------------------------

    @classmethod
    def rational(cls, p: int, value) -> "CyclotomicElement":
        check_odd_prime(p)
        return cls(p, 0, _fold(p, 0, [(0, value)]))

    @classmethod
    def from_power_vector(cls, p: int, level: int, vec) -> "CyclotomicElement":
        """Reduce raw exponent coefficients (any length) into an element."""
        _check_level(p, level)
        return cls(p, level, _fold(p, level, enumerate(vec)))

    # -- coercion -------------------------------------------------------

    def _lift(self, level: int) -> tuple:
        """Terms re-expressed at `level` >= self.level (no reduction
        needed: basis exponents map to basis exponents)."""
        scale = self.p ** (level - self.level)
        return tuple((e * scale, c) for e, c in self.terms)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.p)
        if other is NotImplemented:
            return NotImplemented
        p, level, a, b = _common(self, other)
        return CyclotomicElement(p, level, _fold(p, level, a + b))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.p, self.level,
                                 tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        other = _coerce(other, self.p)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other, self.p)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        # a scalar: no product to reduce, and a nonzero one keeps the
        # support, so the scaled terms are already canonical
        if isinstance(other, (int, Fraction)):
            if not other:
                return CyclotomicElement(self.p, 0, ())
            return CyclotomicElement(
                self.p, self.level, tuple((e, c * other) for e, c in self.terms)
            )
        other = _coerce(other, self.p)
        if other is NotImplemented:
            return NotImplemented
        p, level, a, b = _common(self, other)
        return CyclotomicElement(
            p, level, _fold(p, level, [(i + j, x * y) for i, x in a for j, y in b])
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValidationError("only non-negative integer powers")
        result = CyclotomicElement(self.p, 0, ((0, Fraction(1)),))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- structure ------------------------------------------------------

    def normalized(self) -> "CyclotomicElement":
        """Re-express at the minimal level (exact subfield descent)."""
        target = minimal_level(self)
        scale = self.p ** (self.level - target)
        return CyclotomicElement(
            self.p, target, tuple((e // scale, c) for e, c in self.terms)
        )

    # -- comparison -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.level == 0 and self.coeffs[0] == other
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        if self.level and other.level and self.p != other.p:
            return False
        _, _, a, b = _common(self, other)
        return a == b

    def __hash__(self):
        # a rational hashes as its coefficient, since it equals that int or Fraction
        n = self.normalized()
        return hash((n.level, n.terms, n.p) if n.level else n.coeffs[0])

    def __repr__(self):
        if self.level == 0:
            return f"Cyclo({self.coeffs[0]})"
        sym = f"z{self.p ** self.level}"
        terms = []
        for e, c in self.terms:
            if e == 0:
                terms.append(str(c))
            else:
                mono = sym if e == 1 else f"{sym}^{e}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        return " + ".join(terms).replace("+ -", "- ")


def _coerce(value, p: int):
    if isinstance(value, CyclotomicElement):
        return value
    if isinstance(value, (int, Fraction)):
        return CyclotomicElement(p, 0, _fold(p, 0, [(0, value)]))
    return NotImplemented


def _common(x: CyclotomicElement, y: CyclotomicElement):
    """Lift two elements to a shared (p, level); rationals adopt the other
    operand's prime, genuinely different primes are rejected."""
    if x.level and y.level and x.p != y.p:
        raise ValidationError(f"mismatched primes: {x.p} vs {y.p}")
    p = x.p if x.level else (y.p if y.level else x.p)
    level = max(x.level, y.level)
    return p, level, x._lift(level), y._lift(level)


def root_power(p: int, level: int, e: int) -> CyclotomicElement:
    """zeta_{p^level}^e, canonically reduced; e is taken mod p^level."""
    _check_level(p, level)
    return CyclotomicElement(p, level, _fold(p, level, [(e, 1)]))


def galois_apply(x: CyclotomicElement, alpha: int) -> CyclotomicElement:
    """Image of x under sigma_alpha: zeta_{p^N} -> zeta_{p^N}^alpha.

    alpha is interpreted mod p^N and must be coprime to p; rationals are
    fixed by every sigma_alpha.
    """
    if gcd(alpha, x.p) != 1:
        raise ValidationError(f"alpha={alpha} is divisible by p={x.p}")
    return CyclotomicElement(
        x.p, x.level, _fold(x.p, x.level, [(e * alpha, c) for e, c in x.terms])
    )


def minimal_level(x: CyclotomicElement) -> int:
    """Least L such that x lies in Q(zeta_{p^L}); 0 means rational.

    In the reduced power basis, Q(zeta_{p^L}) is spanned by exactly the
    basis monomials whose exponent is divisible by p^(N-L), so the answer
    is read off the p-adic valuations of the support.
    """
    return x.level - min(
        (_valuation(e, x.p) for e, _ in x.terms if e), default=x.level
    )
