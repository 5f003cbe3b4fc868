"""Closed-form combinatorial description of the decomposition and counts.

Pure functions of (p, n, m, s): the decomposition of the rational group
algebra in three branches, the abelian C_{p^n} x C_{p^m} case, per-degree
counts of complex and rational irreducibles, and a totient partition
identity used as a counting self-check. Empty summation ranges contribute
nothing (Python range semantics make the degenerate bounds explicit).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    The commutative part is Q(G/G') with G/G' = C_{p^(n-s)} x C_{p^m}; the
    matrix components branch on n-s >= m, else on k = m-(n-s) <= s vs
    k > s. Abelian parameters are routed to `abelian_closed_form`. The
    dimension identity sum(mult * q^2 * phi(p^lambda)) = p^(n+m) is
    asserted on every output.
    """
    if params.abelian:
        hi, lo = max(params.n, params.m), min(params.n, params.m)
        return abelian_closed_form(params.p, hi, lo)
    p, n, m, s = params.p, params.n, params.m, params.s
    w = n - s
    items = _abelian_items(p, max(w, m), min(w, m))
    if w >= m:
        items += [(p ** t, w, p ** (m - t)) for t in range(1, s + 1)]
    else:
        k = m - w
        if k <= s:
            items += [(p ** t, w, p ** w) for t in range(1, k)]
            items += [
                (p ** t, lam, phi_pk(p, w))
                for t in range(1, k)
                for lam in range(w + 1, m - t + 1)
            ]
            items += [(p ** t, w, p ** (m - t)) for t in range(k, s + 1)]
        else:
            items += [(p ** t, w, p ** w) for t in range(1, s + 1)]
            items += [
                (p ** t, lam, phi_pk(p, w))
                for t in range(1, s + 1)
                for lam in range(w + 1, m - t + 1)
            ]
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


@dataclass(frozen=True)
class RationalCounts:
    """Counts of inequivalent irreducible rational representations.

    by_lambda[lam] counts those of degree phi(p^lam) (the table the closed
    form produces directly); by_degree keys the same counts by the actual
    degree value phi(p^lam).
    """

    p: int
    by_lambda: dict[int, int]
    by_degree: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.by_lambda.values())


def _counts_from_lambda(p: int, by_lambda: dict[int, int]) -> RationalCounts:
    by_lambda = {lam: c for lam, c in sorted(by_lambda.items()) if c}
    by_degree = {phi_pk(p, lam): c for lam, c in by_lambda.items()}
    return RationalCounts(p, by_lambda, by_degree)


def rational_counts_closed_form(params: GroupParams) -> RationalCounts:
    """Per-degree counts of rational irreducibles, non-abelian case.

    Case (n-s >= m): 1 at lam=0; p^(lam-1)(p+1) for 1 <= lam <= m; p^m for
    m < lam <= n-s; p^(m-t) at lam = n-s+t for t = 1..s.
    Case (n-s < m), k = m-(n-s):
      k <= s: 1 at lam=0; p^(lam-1)(p+1) for 1 <= lam <= n-s;
              2p^(n-s) + (t-1)phi(p^(n-s)) at lam = n-s+t for t < k;
              p^(n-s) + (k-1)phi(p^(n-s)) + p^(m-k) at lam = m (t = k);
              p^(m-t) at lam = n-s+t for k < t <= s.
      k > s:  1 at lam=0; p^(lam-1)(p+1) for 1 <= lam <= n-s;
              2p^(n-s) + (t-1)phi(p^(n-s)) at lam = n-s+t for t <= s;
              p^(n-s) + s*phi(p^(n-s)) for n+1 <= lam <= m.
    """
    if params.abelian:
        raise ValidationError("abelian parameters: derive counts from abelian_closed_form")
    p, n, m, s = params.p, params.n, params.m, params.s
    w = n - s
    phi_w = phi_pk(p, w)
    table: dict[int, int] = {0: 1}
    if w >= m:
        for lam in range(1, m + 1):
            table[lam] = p ** (lam - 1) * (p + 1)
        for lam in range(m + 1, w + 1):
            table[lam] = p ** m
        for t in range(1, s + 1):
            table[w + t] = table.get(w + t, 0) + p ** (m - t)
    else:
        k = m - w
        for lam in range(1, w + 1):
            table[lam] = p ** (lam - 1) * (p + 1)
        if k <= s:
            for t in range(1, k):
                table[w + t] = 2 * p ** w + (t - 1) * phi_w
            table[w + k] = p ** w + (k - 1) * phi_w + p ** (m - k)
            for t in range(k + 1, s + 1):
                table[w + t] = p ** (m - t)
        else:
            for t in range(1, s + 1):
                table[w + t] = 2 * p ** w + (t - 1) * phi_w
            for lam in range(n + 1, m + 1):
                table[lam] = p ** w + s * phi_w
    return _counts_from_lambda(p, table)


def complex_counts_closed_form(params: GroupParams) -> dict[int, int]:
    """Table degree -> count of irreducible complex representations:
    p^(n+m-s) of degree 1 and phi(p^(n-s)) p^(m-t) of degree p^t."""
    if params.abelian:
        raise ValidationError("abelian parameters: all p^(n+m) characters are linear")
    p, n, m, s = params.p, params.n, params.m, params.s
    counts = {1: p ** (n + m - s)}
    for t in range(1, s + 1):
        counts[p ** t] = phi_pk(p, n - s) * p ** (m - t)
    expected_total = p ** (n + m - s) + p ** (n + m - s - 1) - p ** (n + m - 2 * s - 1)
    if sum(counts.values()) != expected_total:
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
