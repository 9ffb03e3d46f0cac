"""Most demos train networks and are too slow for the test suite, so check
statically that every name they import from rslab still exists; removing a
public name then fails here instead of in a demo. Demo 01, which trains
nothing, is also run."""
import ast
import contextlib
import importlib
import io
import pathlib
import re
import runpy

import pytest

from rslab.simmetrics import METRIC_NAMES

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def rslab_imports(path):
    """(module, name or None) for each rslab import in a file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rslab":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rslab":
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_exist(path):
    imports = list(rslab_imports(path))
    assert imports, f"{path.name} imports nothing from rslab"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module} has no {name}"


def test_similarity_demo_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS[0].parent / "01_similarity_metrics.py"), run_name="__main__")
    rows = re.findall(r"^  (\S+) +related=-?\d\.\d{3}  unrelated=", out.getvalue(), re.M)
    assert rows == list(METRIC_NAMES)
