"""Every name a module of the package imports or defines has a reader.

A stdlib `ast` walk over `src/metacyclic/*.py`: each name bound by an
`import` or `from ... import` (the `__future__` import aside) must be read
somewhere in the same module: no module re-exports a name for its callers,
who import it from its home module. Each top-level function or class
(dunders aside) must be public, read elsewhere in `src/`, or wrapped by
the traced benchmark.
"""

import ast
from pathlib import Path

import metacyclic

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metacyclic"
TRACED_CLI = ROOT / "bench" / "traced_cli.py"


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _read_names(tree: ast.AST) -> set[str]:
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _traced_names() -> set[str]:
    """The function names in `bench/traced_cli.py`'s SPANS and COUNTED
    tables, read with `ast`; the file is not imported."""
    tree = ast.parse(TRACED_CLI.read_text(), filename=str(TRACED_CLI))
    return {
        attr
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "COUNTED")
        for _, attr in ast.literal_eval(node.value)
    }


def test_every_import_is_read_or_re_exported():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = _imported_names(tree) - _read_names(tree)
        if names:
            unused[path.stem] = sorted(names)
    assert unused == {}


def test_every_top_level_definition_has_a_reader():
    # each top-level statement of src/, with the names it reads as plain
    # names or as attributes (`verify.cross_validate`)
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            statements.append((node, _read_names(node) | attrs))
    kept = set(metacyclic._HOME) | _traced_names()
    unread = sorted(
        node.name for node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in kept
        # a read inside its own definition, such as recursion, does not count
        and not any(node.name in reads for other, reads in statements if other is not node)
    )
    assert unread == []
