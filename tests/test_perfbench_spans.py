"""perfbench's traced mode wraps sdkit functions by (module, name). A name it
no longer finds is skipped quietly and its time moves into its caller's, so
every name it spans must still exist. What it touches outside SPANNED it
reads unguarded, so a missing one would crash every traced pass."""
import ast
import dataclasses
import importlib
import pathlib

from util import ladder

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_constant(name):
    """A top-level constant of perfbench/tracer.py, read from the file
    without running it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {TRACER}")


def test_every_spanned_function_exists():
    names = tracer_constant("SPANNED")
    assert names
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_what_the_tracer_reads_outside_spanned_exists():
    for module in tracer_constant("MODULES"):
        importlib.import_module(module)
    # Tracer.install counts layerings through sdkit.width.is_layering
    assert callable(importlib.import_module("sdkit.width").is_layering)
    # ... and swaps in each predicate with a wrapped evaluator
    solver = importlib.import_module("sdkit.solver")
    assert solver.PREDICATES
    for predicate in solver.PREDICATES.values():
        assert "evaluator" in {field.name for field in dataclasses.fields(predicate)}
        assert dataclasses.replace(predicate, evaluator=predicate.evaluator) == predicate
    # every traced leaf enumeration and solve is read back
    g, d, _ = ladder(3)
    assert len(solver.enumerate_subp_bruteforce(g, solver.PATHS).entries) > 0
    result = solver.solve_on_decomposition(d, solver.PATHS, solver.MAX_EDGES)
    assert len(result.table.entries) == result.stats.table_sizes[-1]
    assert result.stats.pair_compositions == sum(l * r for l, r in result.stats.compositions)


def test_longest_path_reads_paths_at_call_time(monkeypatch):
    """Tracer.install swaps sdkit.solver.PATHS for a copy with a counting
    evaluator; longest_path must look the name up when it is called for the
    traced predicate counts to reach it."""
    solver = importlib.import_module("sdkit.solver")
    made = []
    counting = dataclasses.replace(
        solver.PATHS, evaluator=lambda sub, evaluate=solver.PATHS.evaluator: made.append(sub) or evaluate(sub)
    )
    monkeypatch.setattr(solver, "PATHS", counting)
    g, d, labeling = ladder(3)
    assert solver.longest_path(g, d, labeling)[0] == 5
    assert made


def test_solver_and_width_read_evaluate_colimit_at_call_time(monkeypatch):
    """Tracer.install wraps sdkit.decomposition.evaluate_colimit under every
    sdkit module name that binds it. The solve routes and the tree
    decomposition reading must look the name up in their own modules when
    they are called, for the decomposition.colimit span to see them."""
    solver = importlib.import_module("sdkit.solver")
    width = importlib.import_module("sdkit.width")
    made = []
    for module in (solver, width):
        original = module.evaluate_colimit
        monkeypatch.setattr(
            module, "evaluate_colimit", lambda d, module=module, original=original: made.append(module) or original(d)
        )
    g, d, labeling = ladder(3)
    assert width.tree_decomposition_reading(g, d, labeling) is not None
    assert made == [width]
    for predicate in (solver.PATHS, solver.PLANAR):
        made.clear()
        assert solver.solve(d, predicate, solver.MAX_EDGES).value is not None
        assert made == [solver]
