"""The package's public names: chbreak.__all__ against what __init__ imports."""

import ast
from pathlib import Path

import chbreak


def _imported_names() -> list[str]:
    tree = ast.parse(Path(chbreak.__file__).read_text(encoding="utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_every_exported_name_resolves():
    missing = [name for name in chbreak.__all__ if not hasattr(chbreak, name)]
    assert missing == []


def test_every_exported_name_appears_once():
    assert len(chbreak.__all__) == len(set(chbreak.__all__))


def test_exports_match_the_imports():
    assert set(chbreak.__all__) == set(_imported_names()) | {"__version__"}
