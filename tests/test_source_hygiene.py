"""Dead code in src/fieldsep, found with the standard library's ast: an
import a module never uses, a module-level _private function, class or
constant that nothing references, and a public function, class or method
that nothing in src/fieldsep or benchmark/ references.  Dunder names and
modules (such as __init__, whose imports are the package's public names)
are exempt.  Also the import graph: every import is at module level, and
the modules import each other without a cycle."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fieldsep"
BENCHMARK = ROOT / "benchmark"
# public names that only the tests call, kept on purpose
ONLY_TESTS_CALL = {
    # the paper's theorems, checked by tests/test_acceptance.py
    "hom_gt1_criterion", "membership_by_embeddings", "transitivity_check",
    "det_criterion",
    # the tests' fixture: every builtin entry, parsed
    "builtin_corpus",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _loaded(node):
    """The names node loads and the attributes it reads."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _referenced(node):
    """Every name node reads: _loaded's and the names imported from
    other modules."""
    yield from _loaded(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _reference_counts(trees):
    counts = {}
    for tree in trees:
        for name in _referenced(tree):
            counts[name] = counts.get(name, 0) + 1
    return counts


def _unreferenced(definitions, counts):
    """The names of the (name, statement) pairs that no statement but
    their own references."""
    return [name for name, stmt in definitions
            if counts.get(name, 0) == sum(n == name for n in _referenced(stmt))]


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
    # an imported name counts as used only where the module loads it: the
    # import statement itself does not read it
    unused = []
    for module, tree in _modules().items():
        if _dunder(module):
            continue
        used = set(_loaded(tree))
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
    counts = _reference_counts(modules.values())
    dead = [f"{module}: {name}" for module, tree in modules.items()
            for name in _unreferenced(_private_definitions(tree), counts)]
    assert dead == []


def _caller_counts(modules):
    bench = [ast.parse(path.read_text(), str(path))
             for path in sorted(BENCHMARK.glob("*.py"))]
    return _reference_counts(list(modules.values()) + bench)


def test_every_public_definition_has_a_caller():
    modules = _modules()
    counts = _caller_counts(modules)
    uncalled = []
    for module, tree in modules.items():
        public = [(stmt.name, stmt) for stmt in tree.body
                  if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                  and not stmt.name.startswith("_")]
        uncalled += [f"{module}: {name}"
                     for name in _unreferenced(public, counts)
                     if name not in ONLY_TESTS_CALL]
    assert uncalled == []


def test_every_public_method_has_a_caller():
    """The public methods and properties of the classes of src/fieldsep,
    by the same walk: a name nothing but its own definition reads."""
    modules = _modules()
    counts = _caller_counts(modules)
    uncalled = []
    for module, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            public = [(stmt.name, stmt) for stmt in cls.body
                      if isinstance(stmt, ast.FunctionDef)
                      and not stmt.name.startswith("_")]
            uncalled += [f"{module}: {cls.name}.{name}"
                         for name in _unreferenced(public, counts)]
    assert uncalled == []


def test_no_import_inside_a_function():
    deferred = [f"{module}:{node.lineno}"
                for module, tree in _modules().items()
                for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert deferred == []


def _package_imports(tree):
    """The sibling modules a module imports from: from .name import ..."""
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_the_modules_import_each_other_without_a_cycle():
    """Modules are taken off the graph once everything they import is off;
    a cycle leaves its modules on.  towers comes before the point fields
    and factoring, which build on it."""
    imports = {module: _package_imports(tree)
               for module, tree in _modules().items()}
    order = []
    while len(order) < len(imports):
        ready = sorted(m for m, deps in imports.items()
                       if m not in order and deps <= set(order))
        assert ready, f"import cycle among {sorted(set(imports) - set(order))}"
        order += ready
    assert imports["towers"].isdisjoint({"points", "factor"})
