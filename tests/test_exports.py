"""The package's names: chbreak.__all__ against what __init__ imports, and
every exported name and module-level function and class against what the
package and its benchmark use. Routes that only tests call live in
tests/reference.py."""

import ast
from pathlib import Path

import chbreak

ROOT = Path(__file__).resolve().parents[1]
PACKAGE, BENCH = ROOT / "src" / "chbreak", ROOT / "bench"


def _imported_names() -> list[str]:
    tree = ast.parse(Path(chbreak.__file__).read_text(encoding="utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _referenced_names() -> set[str]:
    """Every name read, imported or taken as an attribute in src/ (outside
    __init__) and bench/."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    names = set()
    for path in paths + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_exported_name_resolves():
    missing = [name for name in chbreak.__all__ if not hasattr(chbreak, name)]
    assert missing == []


def test_every_exported_name_appears_once():
    assert len(chbreak.__all__) == len(set(chbreak.__all__))


def test_exports_match_the_imports():
    assert set(chbreak.__all__) == set(_imported_names()) | {"__version__"}


def _defined_names() -> list[str]:
    """Every module-level function and class in src/chbreak/, as module.name."""
    return [f"{path.stem}.{node.name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def test_every_exported_name_has_a_caller():
    assert sorted(set(chbreak.__all__) - _referenced_names()) == []


def test_every_defined_name_has_a_caller():
    referenced = _referenced_names()
    assert [name for name in _defined_names() if name.split(".")[1] not in referenced] == []
