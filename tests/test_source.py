"""Source hygiene: every name a module imports is used in that module.

No linter ships with the toolchain, so this reads each module's syntax
tree instead.  ``__init__.py`` is left out: it imports names to re-export
them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geokernel"
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
