"""No module of the package imports another module's private name: what one
module uses of another is public, so renaming a private helper breaks only
its own module."""

import ast
from pathlib import Path

import qcgibbs

PACKAGE = Path(qcgibbs.__file__).resolve().parent


def test_no_module_imports_a_private_name():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "qcgibbs":
                continue
            source = "." * node.level + (node.module or "")
            private += [f"{path.name}: from {source} import {alias.name}"
                        for alias in node.names if alias.name.startswith("_")]
    assert private == []
