"""numpy is the only third-party runtime dependency of the package, and
`numerics` is its only door to native code."""
import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rslab"


def _imported_roots(path: pathlib.Path) -> list:
    roots = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "rslab"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [(path.name, r) for r in _imported_roots(path) if r not in allowed]
    assert len(list(SRC.glob("*.py"))) > 1
    assert found == []


def test_only_numerics_imports_ctypes():
    # the OpenBLAS thread cap is the package's one native call
    importers = [p.name for p in sorted(SRC.glob("*.py")) if "ctypes" in _imported_roots(p)]
    assert importers == ["numerics.py"]
