"""No module of the package or of the tests imports a name it never uses.

No linter ships with the project, so this reads each module's syntax tree
with the standard library: a name bound by an import must occur as a name
somewhere else in the module.  ``__init__.py`` is skipped, as its imports
are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "ogmirror", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names the module's imports bind and no other name reads."""
    tree = ast.parse(source)
    # "import a.b" binds a; "from a import b" binds b
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "import json\nfrom os import path, sep\nimport a.b as c\nprint(sep)\n"
    assert unused_imports(source) == ["json", "path", "c"]


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix()
)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
