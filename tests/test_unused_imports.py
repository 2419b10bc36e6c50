"""No module of the package imports a name at module level that it never
reads, so a deletion leaves no import behind. __init__.py is exempt: it
imports to re-export."""

import ast
from pathlib import Path

import qcgibbs

PACKAGE = Path(qcgibbs.__file__).resolve().parent


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name).split(".")[0]: a.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: a.name for a in node.names})
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported) if name not in read]
    assert unused == []
