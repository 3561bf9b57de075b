"""The package's public names: chbreak.__all__ against what __init__ imports,
and against what the package and its benchmark use."""

import ast
from pathlib import Path

import chbreak

ROOT = Path(__file__).resolve().parents[1]
PACKAGE, BENCH = ROOT / "src" / "chbreak", ROOT / "bench"

# exported names that nothing in src/ or bench/ calls, each with its reason
UNREFERENCED = {
    "second_deriv": "reference route for the uxx that build_aux takes from the kernel pass",
    "slope_rhs": "reference route for build_aux's slope channel",
    "helmholtz_inverse": "reference route for Field.smoothed_values",
    "bounded_forcing": "reference route for the continuation's frozen B field",
}


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


def test_every_exported_name_has_a_caller():
    referenced = _referenced_names()
    unused = sorted(set(chbreak.__all__) - referenced - set(UNREFERENCED))
    assert unused == []
    # an allowlisted name that gains a caller, or leaves __all__, leaves the list
    assert sorted(set(UNREFERENCED) & referenced) == []
    assert set(UNREFERENCED) <= set(chbreak.__all__)
