"""Every import is used: no module under src/akzkit or tests binds an
imported name that it never reads.  Names listed in `__all__` and
`from __future__` imports are exempt.

Every private helper is used: each module-level function, class or
assigned name of src/akzkit that starts with an underscore is read
somewhere in src/akzkit outside its own definition.

Every export is bound: each name in the `__all__` of a module of
src/akzkit, the package's own included, is an attribute of that module
once imported.

Only `configure` sets mpmath's precision: no other statement in
src/akzkit assigns `prec` or `dps` of `mp` or of `<anything>.mp`."""

import ast
import importlib
import pathlib
import types

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_PACKAGE = sorted((_ROOT / "src" / "akzkit").glob("*.py"))
_MODULES = _PACKAGE + sorted((_ROOT / "tests").glob("*.py"))


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


def _defined_name(stmt: ast.stmt) -> str | None:
    # The name a module-level def, class or single-name assignment binds.
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def _dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """`module.name` for each private module-level def, class or assigned
    name that no module reads: not by name in its own module outside its
    own statement, not as `module.name`, and not through
    `from .module import name`."""
    defined = set()
    used = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = _defined_name(stmt)
            if owner and owner.startswith("_") and not owner.startswith("__"):
                defined.add((module, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != owner:
                    used.add((module, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    used.add((node.value.id, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.module:
                    source_module = node.module.rsplit(".", 1)[-1]
                    used.update((source_module, alias.name) for alias in node.names)
    return sorted(f"{module}.{name}" for module, name in defined - used)


def test_the_scan_finds_a_dead_private_helper():
    sources = {
        "a": "def _dead():\n    return _dead()\ndef _kept():\n    pass\nclass _Imported:\n    pass\n",
        "b": "from .a import _Imported\nfrom . import a\na._kept()\n",
        "c": "_cache: dict = {}\n_LIMIT = 3\n__all__ = []\ndef f():\n    return _LIMIT\n",
    }
    assert _dead_private_helpers(sources) == ["a._dead", "c._cache"]


def test_no_dead_private_helpers():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in _PACKAGE}
    assert _dead_private_helpers(sources) == []


def _unbound_exports(module: types.ModuleType) -> list[str]:
    return sorted(name for name in module.__all__ if not hasattr(module, name))


def test_the_scan_finds_an_unbound_export():
    module = types.ModuleType("m")
    module.__all__ = ["kept", "gone"]
    module.kept = 1
    assert _unbound_exports(module) == ["gone"]


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    name = "akzkit" if path.stem == "__init__" else f"akzkit.{path.stem}"
    assert _unbound_exports(importlib.import_module(name)) == []


def _is_mpmath_precision(node: ast.AST) -> bool:
    # `mp.prec`, `mpmath.mp.dps` and the like.
    if not (isinstance(node, ast.Attribute) and node.attr in ("prec", "dps")):
        return False
    owner = node.value
    return (isinstance(owner, ast.Name) and owner.id == "mp") or (
        isinstance(owner, ast.Attribute) and owner.attr == "mp"
    )


def _precision_assignments(source: str) -> list[int]:
    """The lines of the statements outside `configure` that assign
    mpmath's precision."""
    found = []

    def visit(node: ast.AST, in_configure: bool) -> None:
        for child in ast.iter_child_nodes(node):
            inside = in_configure or (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name == "configure"
            )
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and not inside:
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                if any(_is_mpmath_precision(n) for t in targets for n in ast.walk(t)):
                    found.append(child.lineno)
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


def test_the_scan_finds_a_precision_assignment():
    source = (
        "import mpmath\n"
        "from mpmath import mp\n"
        "def configure(bits):\n"
        "    mpmath.mp.prec = bits\n"
        "def lower():\n"
        "    mpmath.mp.prec = 53\n"
        "    mp.dps += 5\n"
        "    a, mpmath.mp.prec = 1, 2\n"
        "    prec = mpmath.mp.prec\n"
        "class Holder:\n"
        "    def run(self):\n"
        "        self.mp.prec: int = 53\n"
    )
    assert _precision_assignments(source) == [6, 7, 8, 12]


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_only_configure_sets_mpmath_precision(path):
    assert _precision_assignments(path.read_text(encoding="utf-8")) == []
