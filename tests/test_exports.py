"""Every name `rslab/__init__.py` exports has a user outside the tests.

Checked statically, like the demos: a name counts as used when some module
in src/rslab (other than `__init__.py`), demos/ or perfbench/ reads it as a
name or an attribute. Definitions and imports do not count, so a public
function that only its own tests call fails here.
"""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
INIT = ROOT / "src" / "rslab" / "__init__.py"


def exported_names():
    tree = ast.parse(INIT.read_text(), str(INIT))
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def used_names():
    files = [p for p in (ROOT / "src" / "rslab").glob("*.py") if p != INIT]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


EXPORTS = exported_names()
USED = used_names()


def test_exports_found():
    assert len(EXPORTS) >= 40


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_used_outside_tests(name):
    assert name in USED, f"rslab exports {name!r}, but only the tests use it"
