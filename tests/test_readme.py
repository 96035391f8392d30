"""README's Library section against the package: its block runs as
printed, from the repository root, and it names exactly the exports, so
the documented interface cannot drift from `tautilt/__init__`."""

import inspect
import io
import os
import re
from contextlib import redirect_stdout

import tautilt

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def library_section():
    """(the source of README's one ```python block, the paragraph after
    it)."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = fh.read().split("```python\n")[1:]
    assert len(blocks) == 1
    block, rest = blocks[0].split("```\n", 1)
    return block, rest.strip().split("\n\n")[0]


def run_library_block():
    """Run the block from the repository root; return what it printed."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out):
            exec(compile(library_section()[0], "README.md", "exec"), {})
    finally:
        os.chdir(cwd)
    return out.getvalue()


def test_the_library_block_prints_what_its_comments_say():
    assert run_library_block() == "(0, 1)\n5 True\n"


def test_the_library_section_names_every_export():
    block, paragraph = library_section()
    imported = re.search(r"from tautilt import (.*)", block).group(1)
    named = set(imported.split(", ")) | set(re.findall(r"`(\w+)`", paragraph))
    named.discard("tautilt")
    exports = {name for name, value in vars(tautilt).items()
               if not name.startswith("_") and not inspect.ismodule(value)}
    assert named == exports
