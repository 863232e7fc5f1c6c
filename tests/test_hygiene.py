"""Every module-level import is read by its module, and every definition
in the package is named somewhere else.

The import scan parses src/, tests/ and perfbench/ with ast and fails on a
name that a module-level import binds and the module never reads.  A read
is a Name node in any expression, or the name listed in the module's
__all__; every import in an __init__.py is a re-export and counts as read.

The definition scan fails on a function, class or method of
src/treegromov, dunders aside, whose name occurs in the Python files of
src/, tests/ and perfbench/ and in README.md no more often than it is
defined in the package.  One pass counts every word (a run of word
characters) in those files.
"""

import ast
import re
from collections import Counter
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


def _definitions(tree):
    """(qualified name, line) of every function, class and method."""
    todo = [(node, "") for node in tree.body]
    while todo:
        node, prefix = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.lineno
            prefix += node.name + "."
        todo += [(child, prefix) for child in ast.iter_child_nodes(node)]


def unnamed_definitions():
    files = [p for top in DIRS for p in sorted((ROOT / top).rglob("*.py"))]
    files.append(ROOT / "README.md")
    words = Counter()
    for path in files:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defs = []
    for path in sorted((ROOT / "src" / "treegromov").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        for qual, line in _definitions(tree):
            name = qual.rsplit(".", 1)[-1]
            if not (name.startswith("__") and name.endswith("__")):
                defs.append((name, f"{rel}:{line}: {qual}"))
    defined = Counter(name for name, _ in defs)
    return sorted(where for name, where in defs if words[name] <= defined[name])


def test_every_definition_is_named_elsewhere():
    assert unnamed_definitions() == []


def test_the_scan_sees_a_nested_definition():
    tree = ast.parse("class A:\n    def f(self):\n        def g():\n            pass\n")
    assert sorted(q for q, _ in _definitions(tree)) == ["A", "A.f", "A.f.g"]
