"""Every import is used: no module under src/akzkit or tests binds an
imported name that it never reads.  Names listed in `__all__` and
`from __future__` imports are exempt."""

import ast
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_MODULES = sorted((_ROOT / "src" / "akzkit").glob("*.py")) + sorted((_ROOT / "tests").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`.
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported - {"*"})


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys\nfrom a import b, c\nsys.exit(b)\n"
    assert _unused_imports(source) == ["c", "os"]
    assert _unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
