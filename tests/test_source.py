"""Source hygiene: every name a module imports is used in that module,
no module imports another module's private name, every private
top-level helper is used somewhere in the package, every public
top-level function or class is used by the program or the benchmark
(or is on a named list of test-only names), the package's ``__all__``
lists exactly the public names it imports and no submodule, each
submodule is the package attribute of its name, every
Sphinx cross-reference role in a docstring names an object that exists,
every private name quoted as a literal in a docstring or comment is
defined in the package, and only ``precision.py`` reaches into
``mpmath.libmp``, so raw-mpf arithmetic stays behind one module.

No linter ships with the toolchain, so this reads each module's syntax
tree instead.  ``__init__.py`` is left out of the import check: it
imports names to re-export them.
"""

import ast
import functools
import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import pytest

import geokernel

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geokernel"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names if a.name != "*")
    return names


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"certificates.py", "spaces.py", "precision.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    # an attribute chain such as ``np.linalg.eigh`` starts from a Name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"{node.module}.{a.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for a in node.names if a.name.startswith("_") and not a.name.startswith("__")]
    assert private == []


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read as a bare name, an attribute (``sp._helper``) or an
    imported name anywhere in the module."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names | _imported_names(tree)


def _private_definitions(tree: ast.Module) -> set[str]:
    """Top-level ``_private`` functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_helper_is_referenced():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.rglob("*.py")]
    referenced = set().union(*map(_referenced_names, trees))
    defined = set().union(*map(_private_definitions, trees))
    assert sorted(defined - referenced) == []


def test_all_lists_exactly_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    public = {n for n in _imported_names(tree) if not n.startswith("_")}
    assert len(geokernel.__all__) == len(set(geokernel.__all__))
    assert set(geokernel.__all__) - {"__version__"} == public
    assert not [n for n in geokernel.__all__ if isinstance(getattr(geokernel, n), ModuleType)]


def test_each_submodule_is_the_package_attribute_of_its_name():
    # a re-exported function named after its module would hide the module
    # from ``import geokernel.x as m``, which reads the attribute first
    hidden = []
    for info in pkgutil.iter_modules(geokernel.__path__):
        module = importlib.import_module(f"geokernel.{info.name}")  # binds the attribute
        if getattr(geokernel, info.name) is not module:
            hidden.append(info.name)
    assert hidden == []


# public names only the tests reach, each with the test that reads it
TEST_ONLY = {
    "distance_matrix",  # the all-pairs reference behind the stacked digests
    "tail_decomposition_check",  # criterion 03, the tail identity
    "lambda_of_mu",  # criterion 07, the leading term's sign threshold
}


def _public_definitions(tree: ast.Module) -> list:
    return [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_name_is_used_outside_the_tests():
    # a use inside the name's own definition does not count, nor does the
    # re-export in ``__init__.py``; the benchmark's shims look names up by
    # their text, so its string constants count as uses
    defined, used = set(), set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        public = _public_definitions(tree)
        defined.update(node.name for node in public)
        for node in tree.body:
            used |= _referenced_names(node) - ({node.name} if node in public else set())
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= _referenced_names(tree)
        used |= {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(defined - used) == sorted(TEST_ONLY)


def test_only_precision_imports_mpmath_libmp():
    importers = []
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names]
        modules += [node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module]
        if any(m == "mpmath.libmp" or m.startswith("mpmath.libmp.") for m in modules):
            importers.append(path.name)
    assert importers == ["precision.py"]


ROLE = re.compile(r":(?:func|data|class|meth|attr|mod):`~?([^`]+)`")


def _resolve(name: str, namespace: dict):
    """The object a role names: a bare (or ``Class.attr``) name from the
    module's own namespace, a ``geokernel.x.y`` name by import."""
    parts = name.split(".")
    if parts[0] == "geokernel":
        # import the longest module prefix, so a submodule the package
        # does not import (``geokernel.cli``) resolves too
        for k in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:k]))
            except ModuleNotFoundError:
                continue
            return functools.reduce(getattr, parts[k:], obj)
    return functools.reduce(getattr, parts[1:], namespace[parts[0]])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_docstring_cross_references_resolve(path):
    namespace = vars(importlib.import_module(f"geokernel.{path.stem}"))
    missing = []
    for name in ROLE.findall(path.read_text()):
        try:
            _resolve(name, namespace)
        except (KeyError, AttributeError):
            missing.append(name)
    assert missing == []


# a private name quoted as a literal, bare or dotted: ``_forms``,
# ``circle._progression``, ``_check(points)``
LITERAL_PRIVATE = re.compile(r"``(?:\w+\.)*(_[A-Za-z]\w*)")


@functools.cache
def _package_definitions() -> frozenset:
    """Every function, class and method of the package, every name bound
    at module or class level and every attribute assigned (``self._x``)."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        bodies = [tree.body]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                bodies.append(node.body)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
        for node in (n for body in bodies for n in body):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return frozenset(names)


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_literal_private_names_are_defined(path):
    # the literal-name twin of the cross-reference check: a docstring or
    # comment that quotes a private helper names one that still exists
    quoted = set(LITERAL_PRIVATE.findall(path.read_text()))
    assert sorted(quoted - _package_definitions()) == []
