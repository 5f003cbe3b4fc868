"""Closed-form combinatorial description of the decomposition and counts.

Pure functions of (p, n, m, s), the abelian s = 0 included: the rational
group algebra's decomposition and its per-degree rational counts, each one
formula in w = n-s with no case split; the complex counts; the abelian
C_{p^n} x C_{p^m} decomposition stated on its own; and a totient partition
identity used as a counting self-check. Empty summation ranges contribute
nothing (Python range semantics make the degenerate bounds explicit).
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import check_odd_prime, phi_pk
from .components import WedderburnDecomposition, assemble_components
from .errors import InternalInconsistencyError, ValidationError
from .group import GroupParams


def _abelian_items(p: int, hi: int, lo: int) -> list[tuple[int, int, int]]:
    """Summands (q, lambda, mult) of Q(C_{p^hi} x C_{p^lo}), hi >= lo >= 0,
    as listed in `abelian_closed_form`."""
    items = [(1, 0, 1)]
    items += [(1, lam, p ** lam + p ** (lam - 1)) for lam in range(1, lo + 1)]
    items += [(1, lam, p ** lo) for lam in range(lo + 1, hi + 1)]
    return items


def wedderburn_closed_form(params: GroupParams) -> WedderburnDecomposition:
    """The decomposition of QG as a canonical component multiset.

    With w = n-s: Q(G/G') for G/G' = C_{p^w} x C_{p^m}, and for t = 1..s
    p^min(w, m-t) M_{p^t}(Q(zeta_{p^w})) plus phi(p^w) M_{p^t}(Q(zeta_{p^lam}))
    for lam = w+1..m-t. The paper's cases read off it with k = m-w: the
    minimum is m-t for every t if w >= m, w for t < k and m-t from t = k on
    if k <= s, and w for every t if k > s; the lam-range is empty from t = k
    on. At s = 0 only `abelian_closed_form` remains. The dimension identity
    sum(mult * q^2 * phi(p^lambda)) = p^(n+m) is asserted on every output.
    """
    p, n, m, s = params.p, params.n, params.m, params.s
    w = n - s
    items = _abelian_items(p, max(w, m), min(w, m))
    for t in range(1, s + 1):
        items.append((p ** t, w, p ** min(w, m - t)))
        items += [(p ** t, lam, phi_pk(p, w)) for lam in range(w + 1, m - t + 1)]
    decomposition = assemble_components(p, items)
    if decomposition.dimension() != params.order:
        raise InternalInconsistencyError(
            f"closed form dimension {decomposition.dimension()} != {params.order}"
        )
    return decomposition


def abelian_closed_form(p: int, n: int, m: int) -> WedderburnDecomposition:
    """Q(C_{p^n} x C_{p^m}) for n >= m >= 0 (caller swaps to enforce):
    Q + sum_{lam=1..m} (p^lam + p^(lam-1)) Q(zeta_{p^lam})
      + sum_{lam=m+1..n} p^m Q(zeta_{p^lam}); all matrix sizes are 1."""
    check_odd_prime(p)
    if not n >= m >= 0:
        raise ValidationError(f"need n >= m >= 0, got ({n}, {m})")
    decomposition = assemble_components(p, _abelian_items(p, n, m))
    if decomposition.dimension() != p ** (n + m):
        raise InternalInconsistencyError("abelian closed form dimension check failed")
    return decomposition


class RationalCounts(NamedTuple):
    """Counts of inequivalent irreducible rational representations.

    by_lambda[lam] counts those of degree phi(p^lam), the table the closed
    form produces; by_degree keys the same counts by the degree phi(p^lam).
    """

    p: int
    by_lambda: dict[int, int]

    @property
    def by_degree(self) -> dict[int, int]:
        return {phi_pk(self.p, lam): c for lam, c in self.by_lambda.items()}

    @property
    def total(self) -> int:
        return sum(self.by_lambda.values())


def rational_counts_closed_form(params: GroupParams) -> RationalCounts:
    """Per-degree counts of rational irreducibles, for every s.

    With w = n-s, lo = min(w, m), hi = max(w, m): 1 at lam = 0, and at each
    1 <= lam <= max(n, m) the sum of p^(lam-1)(p+1) if lam <= lo; p^lo if
    lo < lam <= hi; p^min(w, m+w-lam) if w < lam <= n (lam = w+t, t <= s);
    phi(p^w) min(s, lam-w-1) if w+1 < lam <= m. The paper's cases, k = m-w:
    if n-s >= m the last term is empty and the third is p^(m-t); if k <= s
    the third is p^w up to lam = m, then p^(m+w-lam); if k > s it is p^w
    throughout and the last reaches s. At s = 0 only the first two remain.
    """
    p, n, m, s = params.p, params.n, params.m, params.s
    w = n - s
    lo, hi = min(w, m), max(w, m)
    phi_w = phi_pk(p, w)
    by_lambda = {0: 1}
    for lam in range(1, max(n, m) + 1):
        count = 0
        if lam <= lo:
            count += p ** (lam - 1) * (p + 1)
        elif lam <= hi:
            count += p ** lo
        if w < lam <= n:
            count += p ** min(w, m + w - lam)
        if w + 1 < lam <= m:
            count += phi_w * min(s, lam - w - 1)
        by_lambda[lam] = count  # > 0: lam <= hi has term 1 or 2, lam > hi term 3
    return RationalCounts(p, by_lambda)


def complex_counts_closed_form(params: GroupParams) -> dict[int, int]:
    """Table degree -> count of irreducible complex representations:
    p^(n+m-s) of degree 1 and phi(p^(n-s)) p^(m-t) of degree p^t (only
    {1: p^(n+m)} at s = 0)."""
    p, n, m, s = params.p, params.n, params.m, params.s
    counts = {1: p ** (n + m - s)}
    for t in range(1, s + 1):
        counts[p ** t] = phi_pk(p, n - s) * p ** (m - t)
    if sum(counts.values()) != params.class_count:
        raise InternalInconsistencyError("complex representation count mismatch")
    if sum(deg ** 2 * c for deg, c in counts.items()) != params.order:
        raise InternalInconsistencyError("sum of degree^2 != |G|")
    return counts


def abelian_class_count_identity(p: int, n: int, m: int) -> bool:
    """Exact check that the Galois-class sizes of Irr(C_{p^n} x C_{p^m})
    partition the group order (n >= m >= 0):

    p^(n+m) = 1 + sum_{r=1..m} phi(p^r) (2 sum_{j<r} phi(p^j) + phi(p^r))
                + sum_{r=m+1..n} phi(p^r) p^m.
    """
    if not n >= m >= 0:
        raise ValidationError(f"need n >= m >= 0, got ({n}, {m})")
    total = 1
    prefix = 1  # sum of phi(p^j) for j < r, starting at phi(p^0)
    for r in range(1, m + 1):
        phi_r = phi_pk(p, r)
        total += phi_r * (2 * prefix + phi_r)
        prefix += phi_r
    for r in range(m + 1, n + 1):
        total += phi_pk(p, r) * p ** m
    return total == p ** (n + m)
