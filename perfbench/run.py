"""spinorlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload exact-table --seed 7 --seconds 40 --trace 0

Run from the root of a spinorlab checkout; the program is imported from
``src/``. Each repetition runs the workload's whole operation list in a
fresh Python process (closed loop, one client, one child at a time), and
repetitions continue while another one is predicted to fit in
``--seconds``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Workloads and metrics are described in README.md beside this file.

``--record`` re-records reference.json; only do that on a commit whose
outputs are known to be right, since every later run is checked against it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, operations

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Workload seeds are drawn from a pool of SEED_POOL consecutive seeds
# starting at DEFAULT_SEED, each with a recorded reference output.
DEFAULT_SEED = 7
SEED_POOL = 8

# Extra import-only children, so that set-up time is a median of at least
# this many samples even when few repetitions fit.
SETUP_SAMPLES = 7

# Every run ends within the contract's 180 s; a child still running at
# this point is killed and its remaining operations count as failed.
RUN_LIMIT_S = 150.0

_LAYER_FUNCTIONS = {
    "exact_linalg": ("rank", "kernel", "solve", "column_space_basis",
                     "signed_relation_basis", "kron"),
    "clifford_core": ("build_rep", "commutant_dimension", "gamma_vector",
                      "gamma_blade", "gamma_polyvector", "cone_even_iso"),
    "admissible_forms": ("find_admissible", "first_nondegenerate",
                         "nondegenerate_tau_exists"),
    "cone_split": ("semispinor_projectors", "invariant_spinors",
                   "null_plane_rotations"),
    "brackets": ("null_kernel", "beta_form", "obstruction_vectors", "pi_image",
                 "bracket_k", "random_subspace"),
    "subspace_lab": ("random_surjectivity_sweep", "extremal_witness",
                     "random_max_isotropic", "spin23_isotropic_scan",
                     "spin45_search", "mixed_rank_inequality",
                     "load_and_verify_spin45_witness"),
    "model_space": ("HyperquadricModel", "spin_connection", "covariant_derivative",
                    "killing_residual", "dirac_residual", "bracket_field_checks",
                    "homogeneity_span", "kappa_upper_bound",
                    "scalar_curvature_residual"),
    "serialize": ("load",),
}


def _per_layer_units():
    units = {}
    for layer, names in _LAYER_FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    for name in ("rank", "kernel", "solve"):
        units[f"exact_linalg.{name}.cells"] = "count"
        units[f"exact_linalg.{name}.nonint_inputs"] = "count"
    units["subspace_lab.spin45_search.hit_ratio"] = "ratio"
    for method in ("select_patch", "tangent_frame"):
        units[f"model_space.HyperquadricModel.{method}.calls"] = "count"
    for workload in WORKLOADS:
        for name, _ in operations(workload, DEFAULT_SEED):
            units[f"{name}.s"] = "s"
    units["trace.wall_s"] = "s"
    return units


PER_LAYER_UNITS = _per_layer_units()
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "passed_ops_ratio": "ratio",
}


def workload_seed(seed):
    """The spinorlab seed a benchmark seed selects from the pool."""
    return DEFAULT_SEED + (seed - DEFAULT_SEED) % SEED_POOL


def run_child(root, workload, seed, *, trace=False, setup_only=False,
              record=False, reference=REFERENCE, timeout=RUN_LIMIT_S):
    """Run one fresh process; returns its (ready, ops, done) events.

    ``ready`` or ``done`` is None when the child died or timed out before
    reaching it; ``ops`` then lacks the operations it never finished.
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--reference", str(reference)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if record:
        cmd.append("--record")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped it
        stdout = err.stdout.decode() if isinstance(err.stdout, bytes) else err.stdout or ""
        stderr, code = "timed out", None
    events = []
    for line in stdout.splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:  # a line cut short when the child was killed
            pass
    ready = next((e for e in events if e["event"] == "ready"), None)
    done = next((e for e in events if e["event"] == "done"), None)
    ops = [e for e in events if e["event"] == "op"]
    if code != 0 or done is None and not setup_only:
        sys.stderr.write(f"child {workload} seed {seed} exited {code}:\n{stderr}\n")
    return ready, ops, done


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(root, workload, seed, seconds, trace, reference=REFERENCE):
    """Repeat the workload in fresh processes for about `seconds`."""
    names = [name for name, _ in operations(workload, seed)]
    start = time.monotonic()
    reps = []
    setups = []
    attempted = failed = 0
    while True:
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        rep_start = time.monotonic()
        ready, ops, done = run_child(root, workload, seed, trace=trace,
                                     reference=reference, timeout=remaining)
        rep_s = time.monotonic() - rep_start
        attempted += len(names)
        ok_names = [e["name"] for e in ops if e["ok"]]
        failed += len(names) - len(ok_names)
        for e in ops:
            if not e["ok"]:
                sys.stderr.write(f"failed: {e['name']}: {e['error']}\n")
        if ready is None:
            raise SystemExit(f"the {workload} child did not start; is src/spinorlab importable?")
        setups.append(ready["setup_s"])
        if done is not None:
            reps.append((done, {e["name"]: e["s"] for e in ops}))
        elapsed = time.monotonic() - start
        if done is None or elapsed + rep_s > seconds:
            break
    while len(setups) < SETUP_SAMPLES and time.monotonic() - start < RUN_LIMIT_S - 10:
        ready, _, _ = run_child(root, workload, seed, setup_only=True)
        if ready is None:
            raise SystemExit("an import-only child did not start")
        setups.append(ready["setup_s"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    # Raw (unscaled) figures go to stderr; spread.py keeps them.
    sys.stderr.write(json.dumps({
        "reps": len(reps),
        "raw_wall_s": _median([d["wall_s"] for d, _ in reps]),
        "probe_s": _median([d["probe_s"] for d, _ in reps]),
        "run_s": time.monotonic() - start,
    }) + "\n")
    if trace:
        result["metrics"] = _layer_metrics(reps)
    else:
        result["metrics"] = {
            "wall_s": _median([d["norm_wall_s"] for d, _ in reps]),
            "setup_s": _median(setups),
            "peak_rss_mib": _median([d["rss_kib"] / 1024 for d, _ in reps]),
            "passed_ops_ratio": (attempted - failed) / attempted,
        }
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    return result


def _calls(done):
    return {name: entry["calls"] for name, entry in done["layers"].items()}


def _layer_metrics(reps):
    """Per-layer metrics: counts from the first traced repetition (they
    repeat exactly), times as medians over repetitions."""
    values = dict.fromkeys(PER_LAYER_UNITS, 0)
    if not reps:
        return values
    first = reps[0][0]
    if any(_calls(done) != _calls(first) for done, _ in reps):
        sys.stderr.write("warning: per-layer call counts differ between repetitions\n")
    counts = {f"{name}.calls": n for name, n in _calls(first).items()}
    counts.update(first["counters"])
    found = counts.get("subspace_lab.spin45_search.found", 0)
    used = counts.get("subspace_lab.spin45_search.trials_used", 0)
    counts["subspace_lab.spin45_search.hit_ratio"] = found / used if used else 0.0
    times = {}
    for done, op_times in reps:
        for name, entry in done["layers"].items():
            times.setdefault(f"{name}.self_s", []).append(entry["self_s"])
        for name, op_s in op_times.items():
            times.setdefault(f"{name}.s", []).append(op_s)
        times.setdefault("trace.wall_s", []).append(done["norm_wall_s"])
    for name in values:
        if name in counts:
            values[name] = counts[name]
        elif name in times:
            values[name] = statistics.median(times[name])
    return values


def record(root):
    """Record every workload's output digests for every pool seed."""
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for seed in range(DEFAULT_SEED, DEFAULT_SEED + SEED_POOL):
            _, ops, done = run_child(root, workload, seed, record=True, timeout=600)
            names = [name for name, _ in operations(workload, seed)]
            if done is None or [e["name"] for e in ops] != names or not all(e["ok"] for e in ops):
                raise SystemExit(f"cannot record {workload} seed {seed}: {ops}")
            for e in ops:
                if e.get("passed") is False:
                    print(f"finding: {workload} seed {seed} {e['name']} did not pass",
                          file=sys.stderr)
            digests[workload][str(seed)] = [[e["name"], e["digest"]] for e in ops]
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump({"digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record reference.json from the current code")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "spinorlab" / "__init__.py").is_file():
        print("error: run from the root of a spinorlab checkout (src/spinorlab not found)",
              file=sys.stderr)
        return 2
    if args.record:
        record(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(root, args.workload, workload_seed(args.seed), args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
