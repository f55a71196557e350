"""The benchmark's workloads: fixed, ordered operation lists over
spinorlab's public entry points, and the output summaries the oracle
compares against the recorded reference.

Each operation returns ``(exact, bounds)``. ``exact`` is a JSON-able
object that must match the reference byte for byte (as sorted-key JSON).
``bounds`` lists ``(label, value, limit, relation)`` checks for floating
residuals, whose last bits may change: ``"lt"`` means value < limit,
``"ge"`` means value >= limit. See README.md for why each workload is here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

WORKLOADS = ("exact-table", "subspace-search", "model-sweep")

# The exact-table sizes: every signature with p + q <= 9.
EXACT_MAX_N = 9

# model-verify cones and sample counts; (5,3) has N = 32 spinor components.
MODEL_CASES = ((3, 0, 16), (4, 1, 8), (5, 3, 4))
MODEL_TOL = 1e-6

# Thresholds stated by criterion_model_sphere and criterion_convergence.
SPHERE_LIMITS = {
    "dirac_residual": 1e-5,
    "killing_vector_residual": 1e-5,
    "scal_residual": 1e-6,
}
CONVERGENCE_MIN_RATIO = 3.0


def _criterion(fn_name, **kwargs):
    """An exact operation: `passed` plus the full `details` must match."""

    def op():
        from spinorlab import verify

        result = getattr(verify, fn_name)(**kwargs)
        return {"passed": result.passed, "details": result.details}, []

    return f"verify.{fn_name}", op


def _model_verify(p, q, samples):
    """`spinorlab model-verify`: flags and Killing numbers exact; Killing
    residuals on the right side of the command's tolerance, and Dirac
    residuals of passing spinors under criterion_model_sphere's threshold."""
    argv = ["model-verify", "--cone", f"{p},{q}", "--samples", str(samples),
            "--tol", str(MODEL_TOL)]

    def op():
        from spinorlab import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        payload = json.loads(out.getvalue())
        rows = payload["rows"]
        exact = {
            "exit": code,
            "cone": payload["cone"],
            "rows": [[r["spinor"], r["passed"], r["killing_number"]] for r in rows],
        }
        bounds = [
            (f"spinor{r['spinor']}.residual", r["residual"], MODEL_TOL,
             "lt" if r["passed"] else "ge")
            for r in rows
        ] + [
            (f"spinor{r['spinor']}.dirac_residual", r["dirac_residual"],
             SPHERE_LIMITS["dirac_residual"], "lt")
            for r in rows if r["passed"]
        ]
        return exact, bounds

    return f"cli.model-verify.{p}-{q}", op


def _model_sphere():
    def op():
        from spinorlab import verify

        result = verify.criterion_model_sphere()
        details = dict(result.details)
        bounds = [(k, details.pop(k), v, "lt") for k, v in SPHERE_LIMITS.items()]
        return {"passed": result.passed, "details": details}, bounds

    return "verify.criterion_model_sphere", op


def _convergence():
    def op():
        from spinorlab import verify

        result = verify.criterion_convergence()
        ratios = result.details["ratios"]
        exact = {
            "passed": result.passed,
            "ratio_names": sorted(ratios),
            "at_noise_floor": result.details["at_noise_floor"],
        }
        bounds = [(k, v, CONVERGENCE_MIN_RATIO, "ge") for k, v in sorted(ratios.items())]
        return exact, bounds

    return "verify.criterion_convergence", op


def operations(workload, seed):
    """The ordered (name, op) list of a workload for a spinorlab seed."""
    if workload == "exact-table":
        return [
            _criterion("criterion_clifford_relations", max_n=EXACT_MAX_N, seed=seed),
            _criterion("criterion_admissible_table", max_n=EXACT_MAX_N),
            _criterion("criterion_null_kernel", max_n=EXACT_MAX_N, seed=seed),
            _criterion("criterion_beta", max_n=EXACT_MAX_N, seed=seed),
            _criterion("criterion_cone_iso", max_n=EXACT_MAX_N),
            _criterion("criterion_invariant_spinors", max_n=EXACT_MAX_N),
        ]
    if workload == "subspace-search":
        return [
            _criterion("criterion_bound_tightness", seed=seed, trials=500),
            _criterion("criterion_spin23", seed=seed, trials=200),
            _criterion("criterion_spin45"),
            _criterion("criterion_mixed_bound", seed=seed),
        ]
    if workload == "model-sweep":
        return [_model_verify(*case) for case in MODEL_CASES] + [
            _model_sphere(),
            _convergence(),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def digest(exact):
    text = json.dumps(exact, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def bound_failures(bounds):
    """Labels of the residual checks that do not hold (NaN fails both ways)."""
    bad = []
    for label, value, limit, relation in bounds:
        ok = value < limit if relation == "lt" else value >= limit
        if not ok:
            bad.append(f"{label}={value!r} ({relation} {limit})")
    return bad
