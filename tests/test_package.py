"""Package hygiene, read from the syntax trees of the repository's Python
files, each parsed once: no unused import, no unread private name, no
definition that nothing reads and no import cycle."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quantmon"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@pytest.fixture(scope="module")
def trees():
    """Every .py file of the repository but this one, whose reads of the
    AST's field names would hide package definitions of the same names."""
    own = pathlib.Path(__file__).resolve()
    parsed = {path: ast.parse(path.read_text(encoding="utf-8"))
              for top in ("src", "tests", "demos", "benchmarks")
              for path in sorted((ROOT / top).rglob("*.py")) if path != own}
    assert PACKAGE / "machine.py" in parsed
    return parsed


@pytest.fixture(scope="module")
def package(trees):
    return {path: tree for path, tree in trees.items() if path.parent == PACKAGE}


def _loads(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _read(trees):
    """The names ``trees`` read, as a Name, an attribute or an imported name."""
    read = set()
    for tree in trees:
        read |= _loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
    return read


def test_no_unused_imports(package):
    """A name a module imports must be read as a Name (the base of an
    attribute is one too); ``__init__.py`` re-exports."""
    unused = []
    for path, tree in package.items():
        if path.name != "__init__.py":
            read = _loads(tree)
            unused += [f"{path.name}:{node.lineno}: {name} is imported but never read"
                       for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                       for name in (a.asname or a.name.partition(".")[0] for a in node.names)
                       if name != "*" and name not in read]
    assert not unused, "\n".join(unused)


def test_no_unread_private_names(package):
    """A top-level ``_name`` (function, class or assignment) must be read by
    some module of the package."""
    read = _read(package.values())
    unread = []
    for path, tree in package.items():
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{path.name}:{node.lineno}: {name} is defined but never read"
                       for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not unread, "\n".join(unread)


def test_every_definition_is_read(trees, package):
    """A top-level function or class of the package, or a method of such a
    class (dunders aside), must be read by some file of the repository;
    ``__init__.py`` re-exports."""
    read = _read(trees.values())
    unread = []
    for path, tree in package.items():
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                methods = [m for m in node.body if isinstance(m, FUNCTIONS)] \
                    if isinstance(node, ast.ClassDef) else []
                unread += [f"{path.name}:{d.lineno}: {d.name} is defined but never read"
                           for d in [node, *methods]
                           if not (d.name.startswith("__") and d.name.endswith("__"))
                           and d.name not in read]
    assert not unread, "\n".join(unread)


def test_no_import_cycle(package):
    """The graph of the modules' relative imports (``from .x import ...``,
    ``from . import x``) is acyclic."""
    graph = {path.stem: {dep for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.level == 1
                         for dep in ([node.module.partition(".")[0]] if node.module
                                     else [a.name for a in node.names])}
             for path, tree in package.items()}
    cycles, done = [], set()

    def visit(module, path):
        if module in path:
            cycles.append(" -> ".join(path[path.index(module):] + [module]))
        elif module in graph and module not in done:
            for dep in sorted(graph[module]):
                visit(dep, path + [module])
            done.add(module)

    for module in sorted(graph):
        visit(module, [])
    assert not cycles, "\n".join(f"import cycle: {cycle}" for cycle in cycles)
