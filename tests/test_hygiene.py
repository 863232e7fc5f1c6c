"""Every module-level import is read by its module.

The scan parses src/, tests/ and perfbench/ with ast and fails on a name
that a module-level import binds and the module never reads.  A read is a
Name node in any expression, or the name listed in the module's __all__;
every import in an __init__.py is a re-export and counts as read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "perfbench")

# (path relative to the repository root, name): imports kept on purpose
ALLOWED = {
    # the acceptance criteria stay as written; pytest is imported unused
    ("tests/test_acceptance.py", "pytest"),
}


def _imported_names(tree):
    """(name, line) of each name bound by an import in the module body,
    also inside top-level if and try blocks."""
    todo = list(tree.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            todo[:0] = [*node.body, *node.orelse, *getattr(node, "finalbody", [])]
            for handler in getattr(node, "handlers", []):
                todo[:0] = handler.body
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _read_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return names


def unused_imports():
    found = []
    for top in DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            rel = path.relative_to(ROOT).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
            read = _read_names(tree)
            found += [
                f"{rel}:{line}: {name}"
                for name, line in _imported_names(tree)
                if name not in read and (rel, name) not in ALLOWED
            ]
    return found


def test_no_unused_module_level_imports():
    assert unused_imports() == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom a import b as c\nprint(sys.argv)\n")
    names = {name for name, _ in _imported_names(tree)}
    assert names - _read_names(tree) == {"os", "c"}
