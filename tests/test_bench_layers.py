"""The benchmark's per-layer names must name functions the library has.

perfbench/run.py's _LAYER_FUNCTIONS is read with ast, without importing
or running the benchmark.  A name the library no longer defines turns
into a per-layer metric that reads 0 without a warning, so a rename of
a listed function fails here.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Listed names that had already left the library when this guard was
# added.  The list only shrinks: a name here that comes back fails too.
DEAD = frozenset({
    "exact_linalg.rank",
    "exact_linalg.kernel",
    "exact_linalg.solve",
    "exact_linalg.column_space_basis",
    "exact_linalg.kron",
    "clifford_core.gamma_polyvector",
    "clifford_core.cone_even_iso",
    "model_space.covariant_derivative",
    "model_space.dirac_residual",
    "cone_split.null_plane_rotations",
})


def _layer_functions():
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "_LAYER_FUNCTIONS"
        ]:
            return {f"{layer}.{name}" for layer, names in ast.literal_eval(node.value).items()
                    for name in names}
    raise AssertionError("perfbench/run.py defines no _LAYER_FUNCTIONS")


def _is_public_function(qualified):
    layer, name = qualified.split(".")
    module = importlib.import_module(f"spinorlab.{layer}")
    obj = getattr(module, name, None)
    return (not name.startswith("_") and callable(obj)
            and getattr(obj, "__module__", None) == module.__name__)


def test_every_listed_layer_name_is_a_public_function():
    listed = _layer_functions()
    assert DEAD <= listed
    assert [name for name in sorted(listed - DEAD) if not _is_public_function(name)] == []
    assert [name for name in sorted(DEAD) if _is_public_function(name)] == []


def test_exact_linalg_has_no_public_elimination_for_the_tracer_hook():
    # perfbench/tracer.py's _ELIMINATIONS hook reads .rows of the first
    # argument of these names, which only the deleted Matrix had
    exact_linalg = importlib.import_module("spinorlab.exact_linalg")
    assert [name for name in ("rank", "kernel", "solve") if hasattr(exact_linalg, name)] == []


def _report_attributes_the_tracer_reads():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    hooks = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_hooks"]
    assert len(hooks) == 1, "perfbench/tracer.py defines no single _hooks"
    return {
        node.attr for node in ast.walk(hooks[0])
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "report"
    }


def test_spin45_report_has_every_attribute_the_tracer_reads():
    # a missing one turns each traced subspace-search run into an
    # AttributeError inside the tracer's hook
    from spinorlab.subspace_lab import spin45_search

    read = _report_attributes_the_tracer_reads()
    assert read >= {"found", "trials_used"}
    report = spin45_search(7, 1)
    assert [name for name in sorted(read) if not hasattr(report, name)] == []
