"""Exact decomposition of rational group algebras of split metacyclic p-groups.

Two independent routes to the same object, cross-validated: closed-form
combinatorial formulas in (p, n, m, s), and a first-principles oracle that
enumerates the irreducible complex characters (little-group construction),
groups them into Galois conjugacy classes, and assembles one simple
component per class. All arithmetic is exact (big integers, rationals,
prime-power cyclotomics); p = 2 is out of scope.

Exports resolve lazily (PEP 562): `import metacyclic` runs no submodule
(reach one with `import metacyclic.verify`), and a name imports its home
module on first access. So closed-form use runs no oracle code: `decompose`,
and `counts` and `sweep` without `--oracle`, execute only `cli`, `errors`,
`arith`, `group`, `components` and `formulas` (see `cli` for the others).

Every record is a `typing.NamedTuple`: immutable, hashable, and equal to any
tuple with the same fields, so records are compared only with their own
type. The one exception is the number type `CyclotomicElement` (see
`cyclotomic`), which the closed form never loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name -> the submodule that defines it
_HOME = {
    "p_adic_valuation": "arith",
    "split_r": "arith",
    "CyclotomicElement": "cyclotomic",
    "root_power": "cyclotomic",
    "galois_apply": "cyclotomic",
    "minimal_level": "cyclotomic",
    "GroupElement": "group",
    "GroupParams": "group",
    "validate": "group",
    "from_s": "group",
    "conjugacy_classes": "group",
    "IrreducibleCharacter": "complex_reps",
    "orbit_decomposition": "complex_reps",
    "enumerate_irreducibles": "complex_reps",
    "complex_counts_from_characters": "complex_reps",
    "character_value": "complex_reps",
    "GaloisClass": "rational",
    "SimpleComponent": "components",
    "WedderburnDecomposition": "components",
    "character_field_level": "rational",
    "galois_classes": "rational",
    "wedderburn_from_classes": "rational",
    "rational_counts_from_classes": "rational",
    "wedderburn_closed_form": "formulas",
    "rational_counts_closed_form": "formulas",
    "complex_counts_closed_form": "formulas",
    "cross_validate": "verify",
    "decomposition_via_oracle": "verify",
    "DeepChecker": "deep",
    "MetacyclicError": "errors",
    "ValidationError": "errors",
    "SizeBoundError": "errors",
    "InternalInconsistencyError": "errors",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
