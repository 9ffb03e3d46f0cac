"""numpy is the only third-party runtime dependency of the package."""
import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rslab"


def test_package_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "rslab"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            found += [(path.name, r) for r in roots if r not in allowed]
    assert len(list(SRC.glob("*.py"))) > 1
    assert found == []
