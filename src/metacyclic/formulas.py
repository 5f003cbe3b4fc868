"""Closed-form combinatorial description of the decomposition and counts.

Pure functions of (p, n, m, s), the abelian s = 0 included: the rational
group algebra's decomposition and its per-degree rational counts, each one
formula in w = n-s with no case split, and the complex counts. At s = 0 the
decomposition is the Perlis-Walker decomposition of C_{p^n} x C_{p^m}, in
either order of n and m. Empty summation ranges contribute nothing (Python
range semantics make the degenerate bounds explicit).
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import phi_pk
from .components import WedderburnDecomposition, assemble_components
from .errors import InternalInconsistencyError
from .group import GroupParams


def wedderburn_closed_form(params: GroupParams) -> WedderburnDecomposition:
    """The decomposition of QG as a canonical component multiset.

    With w = n-s, lo = min(w, m), hi = max(w, m): Q(G/G') for G/G' =
    C_{p^w} x C_{p^m}, which is Q + sum_{lam=1..lo} (p^lam + p^(lam-1))
    Q(zeta_{p^lam}) + sum_{lam=lo+1..hi} p^lo Q(zeta_{p^lam}) (Perlis-Walker;
    all of QG at s = 0), and for t = 1..s p^min(w, m-t) M_{p^t}(Q(zeta_{p^w}))
    plus phi(p^w) M_{p^t}(Q(zeta_{p^lam})) for lam = w+1..m-t. The paper's
    cases read off it with k = m-w: the minimum is m-t for every t if w >= m,
    w for t < k and m-t from t = k on if k <= s, and w for every t if k > s;
    the lam-range is empty from t = k on. The dimension identity
    sum(mult * q^2 * phi(p^lambda)) = p^(n+m) is asserted on every output.
    """
    p, n, m, s = params.p, params.n, params.m, params.s
    w = n - s
    lo, hi = min(w, m), max(w, m)
    items = [(1, 0, 1)]
    items += [(1, lam, p ** lam + p ** (lam - 1)) for lam in range(1, lo + 1)]
    items += [(1, lam, p ** lo) for lam in range(lo + 1, hi + 1)]
    for t in range(1, s + 1):
        items.append((p ** t, w, p ** min(w, m - t)))
        items += [(p ** t, lam, phi_pk(p, w)) for lam in range(w + 1, m - t + 1)]
    decomposition = assemble_components(p, items)
    if decomposition.dimension() != params.order:
        raise InternalInconsistencyError(
            f"closed form dimension {decomposition.dimension()} != {params.order}"
        )
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

