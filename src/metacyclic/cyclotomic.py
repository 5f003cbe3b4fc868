"""Exact arithmetic in prime-power cyclotomic fields Q(zeta_{p^N}).

Elements are stored in the power basis {zeta^0, ..., zeta^{phi(p^N)-1}}
with exact rational coefficients, reduced modulo the single relation

    zeta^{(p-1)p^{N-1}} = -(zeta^0 + zeta^{p^{N-1}} + ... + zeta^{(p-2)p^{N-1}}),

i.e. Phi_{p^N}(zeta) = 0. Level 0 means a plain rational. Arithmetic coerces
levels implicitly via zeta_{p^a} = zeta_{p^b}^{p^(b-a)} and never rounds;
the reduced coefficient vector is a canonical form, so equality (after
common-level coercion) is coefficient-wise. Nothing here touches floating
point.
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


def reduce_power_vector(p: int, level: int, vec) -> list:
    """Fold raw zeta_{p^level} exponent coefficients into the power basis.

    `vec` is indexed by exponent (any length; exponents wrap mod p^level)
    with int or Fraction entries. Returns a list of length phi(p^level):
    the canonical coordinates. A single descending pass eliminates the
    exponents phi..p^level-1 because each rewrite only adds mass strictly
    below phi. p and level are checked here, before p^level is allocated.
    """
    _check_level(p, level)
    q = p ** level
    phi = phi_pk(p, level)
    acc = [0] * q
    for e, c in enumerate(vec):
        if c:
            acc[e % q] += c
    if level == 0:
        return acc
    step = p ** (level - 1)
    for e in range(q - 1, phi - 1, -1):
        c = acc[e]
        if c:
            acc[e] = 0
            f = e - phi
            for j in range(p - 1):
                acc[f + j * step] -= c
    del acc[phi:]
    return acc


# the coefficient of every absent basis monomial; Fractions are immutable
_ZERO = Fraction(0)


class CyclotomicElement:
    """An element of Q(zeta_{p^level}) in reduced power-basis coordinates.

    Instances are immutable and safe to share across threads. Equality
    coerces both operands to a common level first, so e.g.
    root_power(3, 2, 3) == root_power(3, 1, 1). Level-0 elements are
    rationals and compare/combine with elements of any prime. A number type,
    so a slotted class rather than a NamedTuple: it must not inherit tuple
    order, len or iteration. Assigning or deleting an attribute raises
    AttributeError; `__reduce__` rebuilds through `__init__`, so pickle
    and `copy` never assign one.
    """

    __slots__ = ("p", "level", "coeffs")

    p: int
    level: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, p: int, level: int, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return CyclotomicElement, (self.p, self.level, self.coeffs)

    # -- construction --------------------------------------------------

    @staticmethod
    def _make(p: int, level: int, coeffs) -> "CyclotomicElement":
        # trusted internal constructor: coeffs already has basis length
        if level > 0 and not any(coeffs[1:]):
            level, coeffs = 0, coeffs[:1]
        return CyclotomicElement(p, level, tuple(
            c if type(c) is Fraction else Fraction(c) if c else _ZERO for c in coeffs
        ))

    @classmethod
    def rational(cls, p: int, value) -> "CyclotomicElement":
        check_odd_prime(p)
        return cls._make(p, 0, [Fraction(value)])

    @classmethod
    def from_power_vector(cls, p: int, level: int, vec) -> "CyclotomicElement":
        """Reduce raw exponent coefficients (any length) into an element."""
        return cls._make(p, level, reduce_power_vector(p, level, vec))

    # -- coercion -------------------------------------------------------

    def _lift(self, level: int) -> list:
        """Coefficients re-expressed at `level` >= self.level (no reduction
        needed: basis exponents map to basis exponents)."""
        if level == self.level:
            return list(self.coeffs)
        scale = self.p ** (level - self.level)
        out = [_ZERO] * phi_pk(self.p, level)
        for e, c in enumerate(self.coeffs):
            if c:
                out[e * scale] = c
        return out

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.p)
        if other is NotImplemented:
            return NotImplemented
        p, level, a, b = _common(self, other)
        return CyclotomicElement._make(p, level, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.p, self.level,
                                 tuple(-c for c in self.coeffs))

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
        # support, so the scaled coordinates are already canonical
        if isinstance(other, (int, Fraction)):
            if not other:
                return CyclotomicElement._make(self.p, 0, [0])
            return CyclotomicElement(
                self.p, self.level, tuple(c * other if c else c for c in self.coeffs)
            )
        other = _coerce(other, self.p)
        if other is NotImplemented:
            return NotImplemented
        p, level, a, b = _common(self, other)
        out = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return CyclotomicElement._make(p, level, reduce_power_vector(p, level, out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValidationError("only non-negative integer powers")
        result = CyclotomicElement._make(self.p, 0, [1])
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
        if target == self.level:
            return self
        scale = self.p ** (self.level - target)
        coeffs = [self.coeffs[i * scale] for i in range(phi_pk(self.p, target))]
        return CyclotomicElement._make(self.p, target, coeffs)

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
        return hash((n.level, n.coeffs, n.p) if n.level else n.coeffs[0])

    def __repr__(self):
        if self.level == 0:
            return f"Cyclo({self.coeffs[0]})"
        sym = f"z{self.p ** self.level}"
        terms = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
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
        return CyclotomicElement._make(p, 0, [Fraction(value)])
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
    q = p ** level
    e %= q
    phi = phi_pk(p, level)
    if e < phi:
        coeffs = [0] * phi
        coeffs[e] = 1
        return CyclotomicElement._make(p, level, coeffs)
    vec = [0] * (e + 1)
    vec[e] = 1
    return CyclotomicElement.from_power_vector(p, level, vec)


def galois_apply(x: CyclotomicElement, alpha: int) -> CyclotomicElement:
    """Image of x under sigma_alpha: zeta_{p^N} -> zeta_{p^N}^alpha.

    alpha is interpreted mod p^N and must be coprime to p; rationals are
    fixed by every sigma_alpha.
    """
    if gcd(alpha, x.p) != 1:
        raise ValidationError(f"alpha={alpha} is divisible by p={x.p}")
    if x.level == 0:
        return x
    q = x.p ** x.level
    a = alpha % q
    vec = [0] * q
    for e, c in enumerate(x.coeffs):
        if c:
            vec[(e * a) % q] += c
    return CyclotomicElement.from_power_vector(x.p, x.level, vec)


def minimal_level(x: CyclotomicElement) -> int:
    """Least L such that x lies in Q(zeta_{p^L}); 0 means rational.

    In the reduced power basis, Q(zeta_{p^L}) is spanned by exactly the
    basis monomials whose exponent is divisible by p^(N-L), so the answer
    is read off the p-adic valuations of the support.
    """
    return x.level - min(
        (_valuation(e, x.p) for e, c in enumerate(x.coeffs) if e and c),
        default=x.level,
    )
