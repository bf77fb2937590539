"""numpy is the only runtime dependency of the package.

Every module under src/seqpred imports only from the standard library,
numpy or seqpred itself.  Other packages may be installed where the
tests run (scipy, for one), but the package does not declare them.
Every module but __init__.py also reads each name it imports, so an
import left behind by a deletion fails here.  The package and its tests
parse as Python 3.10, the oldest version pyproject.toml admits.
"""

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "seqpred"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "seqpred"}


def imported_roots(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name,
)
def test_imports_only_stdlib_numpy_and_seqpred(path):
    foreign = sorted(set(imported_roots(path)) - ALLOWED)
    assert foreign == []


def unread_imports(path):
    """Names path imports that no expression in it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda path: path.name,
)
def test_every_imported_name_is_read(path):
    assert unread_imports(path) == []


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_package_is_found():
    assert (PACKAGE / "__init__.py").is_file()
