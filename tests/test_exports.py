"""The package's names: chbreak.__all__ against what __init__ imports, and
every exported name and module-level function, class and constant against
what the package and its benchmark use. Routes that only tests call live in
tests/reference.py, and a value that only tests set is a module constant
that they monkeypatch, not a defaulted parameter."""

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


def _calls_by_name(trees) -> dict[str, list[tuple[ast.Call, tuple]]]:
    """Every call in the given parsed files, by the name it calls, each with
    (file, module-level function) of the code that makes it."""
    calls = {}
    for path, tree in trees.items():
        for top in tree.body:
            owner = (path, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append((node, owner))
    return calls


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a default that no caller in src/ or bench/ overrides is a constant in
    # disguise: a value only tests can set
    paths = sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    calls = _calls_by_name(trees)
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in trees[path].body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):] + [
                p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            set_by_callers = set()
            for call, owner in calls.get(fn.name, []):
                if owner == (path, fn.name):
                    continue    # a function's calls to itself
                starred = any(isinstance(arg, ast.Starred) for arg in call.args)
                set_by_callers.update(positional if starred else positional[:len(call.args)])
                for kw in call.keywords:
                    # kw.arg is None for **mapping, which may set any of them
                    set_by_callers.update(defaulted if kw.arg is None else [kw.arg])
            unset += [f"{path.stem}.{fn.name}({p})" for p in defaulted
                      if p not in set_by_callers]
    assert unset == []


def _constants() -> list[str]:
    """Every name bound by a module-level assignment in src/chbreak/, as
    module.name; __all__ is the package's list of names, not a value."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names += [f"{path.stem}.{t.id}" for target in targets
                      for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [name for name in names if name.split(".")[1] != "__all__"]


def test_every_constant_is_read():
    # a constant that only tests read or monkeypatch sets nothing a run does
    read = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert [name for name in _constants() if name.split(".")[1] not in read] == []
