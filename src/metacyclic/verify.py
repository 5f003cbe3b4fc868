"""Cross-validation between the closed form and the character-theoretic oracle.

`cross_validate` runs both routes on one group of any s (s = 0 is the
abelian group), and `diff_components` is the one comparison of their
component multisets. `cross_validate` and `decomposition_via_oracle` run
the oracle through `_oracle`; `enumerate_irreducibles` checks the oracle
bound first. The deep checks of `verify --deep` (monomial value tables and
matrices, `DeepChecker`) live in `deep`, which deepens the `CrossCheck`
built here, so a command without `--deep` never executes them.
"""

from __future__ import annotations

from typing import NamedTuple

from .components import WedderburnDecomposition
from .complex_reps import IrreducibleCharacter, enumerate_irreducibles
from .formulas import wedderburn_closed_form
from .group import GroupParams
from .rational import GaloisClass, galois_classes, wedderburn_from_classes


def _oracle(
    params: GroupParams,
) -> tuple[list[IrreducibleCharacter], list[GaloisClass], WedderburnDecomposition]:
    """Decompose from first principles: enumerate Irr(G), class it under
    the Galois action, and assemble one component per class. Returns the
    characters, the classes and the decomposition."""
    chars = enumerate_irreducibles(params)
    classes = galois_classes(chars, params)
    return chars, classes, wedderburn_from_classes(classes, params)


def decomposition_via_oracle(params: GroupParams) -> WedderburnDecomposition:
    """The oracle's decomposition alone; the closed form does not run."""
    return _oracle(params)[2]


class CrossCheck(NamedTuple):
    params: GroupParams
    closed: WedderburnDecomposition
    oracle: WedderburnDecomposition
    diff: tuple[str, ...]  # empty exactly when the two routes agree
    chars: list[IrreducibleCharacter]  # Irr(G) in enumeration order
    classes: list[GaloisClass]


def diff_components(
    a: WedderburnDecomposition, b: WedderburnDecomposition
) -> list[str]:
    """Human-readable per-component differences (empty when equal)."""
    ma, mb = a.as_multiset(), b.as_multiset()
    out = []
    for key in sorted(set(ma) | set(mb)):
        ca, cb = ma.get(key, 0), mb.get(key, 0)
        if ca != cb:
            out.append(f"q={key[0]} lambda={key[1]}: closed={ca} oracle={cb}")
    return out


def cross_validate(params: GroupParams) -> CrossCheck:
    """Run both routes and compare the component multisets exactly."""
    closed = wedderburn_closed_form(params)
    chars, classes, oracle = _oracle(params)
    diff = diff_components(closed, oracle)
    return CrossCheck(params, closed, oracle, tuple(diff), chars, classes)


# For the benchmark only: bench/traced_cli.py looks `DeepChecker` and
# `value_table` up under this module (and tests/test_traced_targets.py
# mirrors it), so these two names, and no others, resolve from `deep`.
def __getattr__(name: str):
    if name in ("DeepChecker", "value_table"):
        from . import deep

        return getattr(deep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
