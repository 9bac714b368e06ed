"""Every name a module of src/sdkit/ imports is used in that module.

__init__.py is left out: its imports are the package's exports.
"""
import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sdkit"


def imported_names(tree):
    """The names the import statements of tree bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_imported_name_is_used():
    modules = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")
    assert {"cli.py", "solver.py", "summaries.py"} <= {path.name for path in modules}
    unused = {}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # a Name node is also the base of every attribute chain (x in x.y.z)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        missing = [name for name in imported_names(tree) if name not in used]
        if missing:
            unused[path.name] = missing
    assert unused == {}
