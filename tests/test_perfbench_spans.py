"""perfbench's traced mode wraps sdkit functions by (module, name). A name it
no longer finds is skipped quietly and its time moves into its caller's, so
every name it spans must still exist."""
import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def spanned():
    """SPANNED of perfbench/tracer.py, read from the file without running it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SPANNED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANNED table in {TRACER}")


def test_every_spanned_function_exists():
    names = spanned()
    assert names
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
