"""Every name a `tautilt` module imports is used in that module.

A deletion that leaves its import behind fails here.  `__init__.py`
imports only to re-export, so it is exempt.
"""

import ast
import glob
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src", "tautilt")
MODULES = sorted(path for path in glob.glob(os.path.join(PACKAGE, "*.py"))
                 if os.path.basename(path) != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports(
        "import os\nimport a.b as c\nfrom x import y, z\nz(os)\n") \
        == [(2, "c"), (3, "y")]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
