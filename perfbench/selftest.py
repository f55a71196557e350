"""The benchmark's own tests (about two minutes on two cores):

    python3 -m pytest -q perfbench/selftest.py

They run from the root of a spinorlab checkout and start one benchmark
child at a time.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LAYERS  # noqa: E402


def _source_public_functions(layer):
    tree = ast.parse((ROOT / "src" / "spinorlab" / f"{layer}.py").read_text())
    return {
        f"{layer}.{node.name}"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def test_wrappers_cover_every_public_function():
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import spinorlab.cli, spinorlab.verify\n"
        "from tracer import Tracer, LAYERS, public_functions\n"
        "import importlib\n"
        "originals = {id(f): f'{layer}.{name}' for layer in LAYERS\n"
        "             for name, f in public_functions(importlib.import_module('spinorlab.' + layer))}\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "left = [f'{mod}.{key}' for mod, m in list(sys.modules.items())\n"
        "        if mod.startswith('spinorlab') for key, v in vars(m).items() if id(v) in originals]\n"
        "print(json.dumps({'wrapped': tracer.wrapped, 'unwrapped_refs': left}))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    report = json.loads(out.stdout)
    expected = set().union(*(_source_public_functions(layer) for layer in LAYERS))
    expected |= {
        "model_space.HyperquadricModel",
        "model_space.HyperquadricModel.select_patch",
        "model_space.HyperquadricModel.tangent_frame",
    }
    assert set(report["wrapped"]) == expected
    assert len(report["wrapped"]) == len(expected)
    assert report["unwrapped_refs"] == []


# A per-layer metric each workload must move, to catch a broken counter.
NONZERO = {
    "exact-table": ("exact_linalg.rank.nonint_inputs", "cone_split.invariant_spinors.calls"),
    "subspace-search": ("subspace_lab.spin45_search.hit_ratio", "serialize.load.calls",
                        "brackets.obstruction_vectors.calls"),
    "model-sweep": ("model_space.HyperquadricModel.tangent_frame.calls",
                    "model_space.spin_connection.calls"),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_match_untraced_and_repeat_counts(workload):
    seed = run.DEFAULT_SEED
    _, plain_ops, plain = run.run_child(ROOT, workload, seed)
    traced = [run.run_child(ROOT, workload, seed, trace=True) for _ in range(2)]
    assert plain is not None and all(done is not None for _, _, done in traced)
    names = [name for name, _ in run.operations(workload, seed)]
    digests = [e["digest"] for e in plain_ops]
    assert [e["name"] for e in plain_ops] == names
    assert all(e["ok"] for e in plain_ops)
    for _, ops, _ in traced:
        assert [e["digest"] for e in ops] == digests
        assert all(e["ok"] for e in ops)
    (_, _, first), (_, _, second) = traced
    assert run._calls(first) == run._calls(second)
    assert first["counters"] == second["counters"]
    metrics = run._layer_metrics([(first, {})])
    assert all(metrics[name] > 0 for name in NONZERO[workload])


def test_corrupted_reference_fails_an_operation(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    entry = reference["digests"]["subspace-search"][str(run.DEFAULT_SEED)]
    corrupted_name = entry[1][0]
    entry[1][1] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    result = run.measure(ROOT, "subspace-search", run.DEFAULT_SEED, seconds=0,
                         trace=False, reference=path)
    assert result["attempted"] == 4
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["metrics"]["passed_ops_ratio"]["value"] == 0.75
    _, ops, _ = run.run_child(ROOT, "subspace-search", run.DEFAULT_SEED, reference=path)
    assert [e["name"] for e in ops if not e["ok"]] == [corrupted_name]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "model-sweep",
                          "--seed", "7", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
