"""Source hygiene: no module of ``disklab`` imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "disklab"


def unused_imports(tree: ast.Module) -> list:
    """Names the module's imports bind that nothing in it reads; the names ``__all__`` lists count as read."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_the_guard_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom .surface import TubedSurface, tube_side\n"
    assert unused_imports(ast.parse(source + "tube_side(1)\n")) == ["TubedSurface", "os"]
    assert unused_imports(ast.parse(source + "__all__ = ['TubedSurface', 'os']\ntube_side(1)\n")) == []


@pytest.mark.parametrize("path", sorted(SRC_DIR.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []
