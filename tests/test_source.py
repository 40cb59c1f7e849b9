"""Static checks on the package source."""

import ast
from pathlib import Path

import capfield

SOURCES = sorted(
    p for p in Path(capfield.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.stem}.{name}" for name in sorted(imported - used)]


def test_every_imported_name_is_used():
    assert SOURCES
    assert [name for path in SOURCES for name in _unused_imports(path)] == []
