"""Every name a module of the package imports is read in that module.

A stdlib `ast` walk over `src/metacyclic/*.py`: each name bound by an
`import` or `from ... import` (the `__future__` import aside) must be read
somewhere in the same module: no module re-exports a name for its callers,
who import it from its home module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "metacyclic"


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _read_names(tree: ast.Module) -> set[str]:
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_every_import_is_read_or_re_exported():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = _imported_names(tree) - _read_names(tree)
        if names:
            unused[path.stem] = sorted(names)
    assert unused == {}
