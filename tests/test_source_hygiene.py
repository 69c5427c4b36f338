"""Dead code in src/fieldsep, found with the standard library's ast: an
import a module never uses, and a module-level _private function, class
or constant that nothing references.  Dunder names and modules (such as
__init__, whose imports are the package's public names) are exempt."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fieldsep"


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _referenced(node):
    """Every name node reads: loaded names, attributes and the names
    imported from other modules."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _private_definitions(tree):
    """(name, statement) for each module-level _private def, class or
    assigned constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not _dunder(name):
                yield name, stmt


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        if _dunder(module):
            continue
        used = set(_referenced(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert unused == []


def test_every_private_definition_is_referenced():
    modules = _modules()
    counts = {}
    for tree in modules.values():
        for name in _referenced(tree):
            counts[name] = counts.get(name, 0) + 1
    dead = []
    for module, tree in modules.items():
        for name, stmt in _private_definitions(tree):
            own = sum(n == name for n in _referenced(stmt))
            if counts.get(name, 0) - own == 0:
                dead.append(f"{module}: {name}")
    assert dead == []
