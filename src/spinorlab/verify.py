"""Acceptance checks, shared by the test suite and the command line.

Each criterion returns a CheckResult; nothing is asserted here so the
CLI can render failures as falsification reports.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .admissible_forms import first_nondegenerate, nondegenerate_tau_exists
from .brackets import (
    beta_form,
    null_kernel,
    random_null_vector,
)
from .clifford_core import (
    Signature,
    build_rep,
    clifford_relation_failures,
    cone_even_iso,
    gamma_vector,
    metric_value,
)
from .cone_split import (
    invariant_spinors,
    null_plane_rotations,
    semispinor_projectors,
)
from .exact_linalg import Matrix
from .model_space import (
    ConstantCurvatureFrameModel,
    ConstantSpinorField,
    HyperquadricModel,
    SphereProductModel,
    bracket_field_checks,
    homogeneity_span,
    kappa_upper_bound,
    killing_residual,
    scalar_curvature_residual,
)
from .subspace_lab import (
    IsotropicSearchError,
    extremal_witness,
    load_and_verify_spin45_witness,
    mixed_rank_inequality,
    random_surjectivity_sweep,
    spin23_isotropic_scan,
    spin45_search,
)

DEFAULT_WITNESS = Path(__file__).resolve().parents[2] / "witnesses" / "spin45_max_isotropic.json"


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    elapsed: float
    budget: float | None
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "criterion": self.criterion,
            "name": self.name,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed, 3),
            "budget_s": self.budget,
            "details": self.details,
        }


def _signatures(max_n):
    for n in range(1, max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def _indefinite_signatures(max_n):
    for sig in _signatures(max_n):
        if not sig.is_definite():
            yield sig


def criterion_clifford_relations(max_n=8, seed=0) -> CheckResult:
    start = time.time()
    failures = []
    rng = random.Random(seed)
    for sig in _signatures(max_n):
        rep = build_rep(sig)
        ident = Matrix.identity(rep.N)
        for i, j in clifford_relation_failures(rep.generators, rep.eta):
            failures.append(f"{sig}:relation({i},{j})")
        for _ in range(10):
            v = [rng.randint(-3, 3) for _ in range(rep.n)]
            gv = gamma_vector(rep, v)
            if gv * gv != ident.scale(-metric_value(rep.eta, v, v)):
                failures.append(f"{sig}:square({v})")
    return CheckResult(
        1,
        "clifford_relations",
        not failures,
        time.time() - start,
        30.0,
        {"signatures": sum(1 for _ in _signatures(max_n)), "failures": failures},
    )


def criterion_admissible_table(max_n=8) -> CheckResult:
    start = time.time()
    failures = []
    rows = 0
    for sig in _signatures(max_n):
        rep = build_rep(sig)
        excluded = sig.n % 4 == 1 and sig.s % 4 == 3
        exists = nondegenerate_tau_exists(rep, -1)
        rows += 1
        if exists == excluded:
            failures.append(str(sig))
        # the exclusion simultaneously forces a type +1 form whenever the
        # mixed-bound hypothesis (n or s not 3 mod 4) holds
        if (sig.n % 4 != 3 or sig.s % 4 != 3) and not nondegenerate_tau_exists(rep, 1):
            failures.append(f"{sig}:tau_plus_missing")
    return CheckResult(
        2,
        "admissible_tau_minus_rule",
        not failures,
        time.time() - start,
        120.0,
        {"signatures": rows, "failures": failures},
    )


def criterion_null_kernel(max_n=8, seed=0) -> CheckResult:
    start = time.time()
    failures = []
    checked = 0
    for sig in _indefinite_signatures(max_n):
        rep = build_rep(sig)
        form = first_nondegenerate(rep)
        rng = random.Random(seed * 7919 + sig.p * 64 + sig.q)
        for _ in range(10):
            v = random_null_vector(sig, rng)
            try:
                sub = null_kernel(rep, form, v)
                checked += 1
                if 2 * sub.dim != rep.N:
                    failures.append(f"{sig}:dim")
            except ArithmeticError as err:
                failures.append(f"{sig}:{err}")
    return CheckResult(
        3,
        "null_kernel_lemma",
        not failures,
        time.time() - start,
        None,
        {"kernels_checked": checked, "failures": failures},
    )


def criterion_beta(max_n=8, seed=0) -> CheckResult:
    start = time.time()
    failures = []
    checked = 0
    for sig in _indefinite_signatures(max_n):
        rep = build_rep(sig)
        form = first_nondegenerate(rep)
        rng = random.Random(seed * 104729 + sig.p * 64 + sig.q)
        for _ in range(10):
            v = random_null_vector(sig, rng)
            try:
                report = beta_form(rep, form, v)
                checked += 1
                if 2 * report.rank != rep.N:
                    failures.append(f"{sig}:rank")
            except ArithmeticError as err:
                failures.append(f"{sig}:{err}")
    return CheckResult(
        4,
        "beta_symmetry_and_rank",
        not failures,
        time.time() - start,
        None,
        {"betas_checked": checked, "failures": failures},
    )


def criterion_bound_tightness(seed=0, trials=500) -> CheckResult:
    start = time.time()
    failures = []
    details = {}
    for sig in (Signature(2, 3), Signature(1, 3), Signature(3, 3)):
        rep = build_rep(sig)
        try:
            form, v, sub = extremal_witness(sig, seed)
            details[f"extremal{sig}"] = sub.dim
            if sub.dim != 3 * rep.N // 4:
                failures.append(f"{sig}:extremal_dim")
        except (IsotropicSearchError, ArithmeticError) as err:  # a failed construction
            failures.append(f"{sig}:extremal:{err}")
        form = first_nondegenerate(rep)
        sweep = random_surjectivity_sweep(rep, form, 3 * rep.N // 4 + 1, trials, seed)
        details[f"sweep{sig}"] = {
            "dim": sweep.dim,
            "trials": sweep.trials,
            "counterexamples": len(sweep.counterexamples),
        }
        if sweep.counterexamples:
            failures.append(f"{sig}:sweep")
    return CheckResult(
        5,
        "bound_tightness",
        not failures,
        time.time() - start,
        300.0,
        {**details, "failures": failures},
    )


def criterion_spin23(seed=0, trials=200) -> CheckResult:
    start = time.time()
    report = spin23_isotropic_scan(trials, seed)
    passed = report.distribution == {1: trials}
    return CheckResult(
        6,
        "spin23_isotropic_planes",
        passed,
        time.time() - start,
        None,
        {"distribution": report.distribution},
    )


def criterion_spin45(witness_path=None) -> CheckResult:
    start = time.time()
    if witness_path:
        path = Path(witness_path)
    elif DEFAULT_WITNESS.exists():
        path = DEFAULT_WITNESS
    else:
        path = Path("witnesses") / "spin45_max_isotropic.json"
    details = {}
    passed = True
    try:
        info = load_and_verify_spin45_witness(path)
        details["witness"] = info
        if info["isotropy_dim"] != 8 or info["image_dim"] != 4:
            passed = False
        rerun = spin45_search(info["seed"], max(info["trials_used"], 4))
        details["search_reproduced"] = rerun.found and rerun.image_dim == 4
        if not details["search_reproduced"]:
            passed = False
    except Exception as err:
        passed = False
        details["error"] = str(err)
    return CheckResult(
        7,
        "spin45_witness",
        passed,
        time.time() - start,
        600.0,
        details,
    )


def criterion_mixed_bound(seed=0, trials=8) -> CheckResult:
    start = time.time()
    failures = []
    details = {}
    cases = {
        Signature(2, 3): [(4, 4), (4, 3), (3, 4)],
        Signature(4, 1): [(8, 5), (7, 6), (8, 8)],
    }
    for sig, pairs in cases.items():
        rep = build_rep(sig)
        form = first_nondegenerate(rep, tau=1)
        for k_plus, k_minus in pairs:
            report = mixed_rank_inequality(rep, form, k_plus, k_minus, trials, seed)
            key = f"{sig}:{k_plus}+{k_minus}"
            details[key] = sorted(set(report.image_dims))
            if not report.in_hypothesis:
                failures.append(f"{key}:hypothesis")
            if report.counterexamples:
                failures.append(f"{key}:span")
    return CheckResult(
        8,
        "mixed_killing_bound",
        not failures,
        time.time() - start,
        None,
        {**details, "failures": failures},
    )


def criterion_cone_iso(max_n=8) -> CheckResult:
    start = time.time()
    failures = []
    quoted_disagreements = []
    for sig in _signatures(6):
        report = cone_even_iso(build_rep(sig), build_rep(Signature(sig.p + 1, sig.q)))
        if not report.ok:
            failures.append(f"{sig}:{report.failures}")
    for sig in _signatures(max_n):
        cone = build_rep(Signature(sig.p + 1, sig.q))
        try:
            report = semispinor_projectors(cone)
        except ArithmeticError as err:
            failures.append(f"{sig}:{err}")
            continue
        if not report.quoted_list_agrees:
            quoted_disagreements.append(f"{sig}(s%8={sig.s_mod8})")
    # the quoted residue lists are falsified exactly on the s = 0 bases;
    # anything else disagreeing is a failure
    unexpected = [d for d in quoted_disagreements if "s%8=0" not in d]
    if unexpected:
        failures.extend(unexpected)
    return CheckResult(
        9,
        "cone_iso_and_semispinors",
        not failures,
        time.time() - start,
        None,
        {
            "quoted_list_falsified_on": quoted_disagreements,
            "failures": failures,
        },
    )


def criterion_invariant_spinors(max_n=8) -> CheckResult:
    start = time.time()
    failures = []
    checked = 0
    for n in range(3, max_n + 2):
        for (p, q) in {(1, n - 1), (n - 1, 1)}:
            rep = build_rep(Signature(p, q))
            dim, _ = invariant_spinors(rep, null_plane_rotations(rep))
            checked += 1
            if 2 * dim != rep.N:
                failures.append(f"({p},{q}): dim {dim}")
    return CheckResult(
        10,
        "null_plane_invariant_spinors",
        not failures,
        time.time() - start,
        None,
        {"cones_checked": checked, "failures": failures},
    )


def criterion_model_sphere() -> CheckResult:
    start = time.time()
    failures = []
    details = {}
    tol = 1e-6
    model = HyperquadricModel(Signature(3, 0), num_samples=32, step=1e-4)
    fields = [ConstantSpinorField(np.eye(model.N)[i]) for i in range(model.N)]
    passing = []
    lam = None
    for s in fields:
        rep = killing_residual(model, s)
        if rep.residual < tol:
            passing.append(rep)
            lam = rep.killing_number
    details["killing_passing"] = len(passing)
    if len(passing) != 4:
        failures.append("killing_count")
    if lam is None:
        return CheckResult(
            11,
            "model_sphere_suite",
            False,
            time.time() - start,
            180.0,
            {**details, "failures": failures + ["no_killing_spinors"]},
        )
    d_res = max(rep.dirac_residual for rep in passing)
    details["dirac_residual"] = d_res
    if d_res >= 1e-5:
        failures.append("dirac")
    bracket = bracket_field_checks(
        model, fields[0], fields[1], k=1, tau_intrinsic=-1, lambda_s=lam, lambda_t=lam
    )
    details["killing_vector_residual"] = bracket.killing_vector_residual
    if bracket.killing_vector_residual >= 1e-5:
        failures.append("killing_vector")
    spans = homogeneity_span(model, fields)
    details["homogeneity_dims"] = sorted(set(spans))
    if set(spans) != {2}:
        failures.append("homogeneity")
    kappa = kappa_upper_bound(SphereProductModel(2, 2), 0.5)
    details["kappa_product_bound"] = kappa
    if kappa != 0:
        failures.append("kappa_product")
    details["kappa_sphere_bound"] = kappa_upper_bound(
        ConstantCurvatureFrameModel(Signature(2, 0)), 0.5
    )
    scal = scalar_curvature_residual(model, lam)
    details["scal_residual"] = scal
    if scal >= 1e-6:
        failures.append("scal")
    return CheckResult(
        11,
        "model_sphere_suite",
        not failures,
        time.time() - start,
        180.0,
        {**details, "failures": failures},
    )


def criterion_convergence() -> CheckResult:
    """Every residual must shrink at least 3x under step halving, except
    residuals already at the rounding floor: quantities that are exactly
    constant along the probe curves (the contraction of a Killing vector
    along geodesics, for instance) have no truncation error to converge
    and only show float noise."""
    start = time.time()
    noise_floor = 1e-10
    coarse = HyperquadricModel(Signature(3, 0), num_samples=4, step=1e-2)
    fine = HyperquadricModel(Signature(3, 0), num_samples=4, step=5e-3)
    s = ConstantSpinorField(np.eye(coarse.N)[0])
    t = ConstantSpinorField(np.eye(coarse.N)[1])
    kc, kf = killing_residual(coarse, s, 0.5), killing_residual(fine, s, 0.5)
    pairs = {
        "killing": (kc.residual, kf.residual),
        "dirac": (kc.dirac_residual, kf.dirac_residual),
        "scal": (
            scalar_curvature_residual(coarse, 0.5),
            scalar_curvature_residual(fine, 0.5),
        ),
    }
    bc = bracket_field_checks(coarse, s, t, 1, -1, 0.5, 0.5)
    bf = bracket_field_checks(fine, s, t, 1, -1, 0.5, 0.5)
    pairs["bracket_conformal"] = (bc.conformal_residual, bf.conformal_residual)
    pairs["bracket_geodesic"] = (bc.geodesic_residual, bf.geodesic_residual)
    ratios = {}
    at_floor = []
    ok = True
    for name, (coarse_r, fine_r) in pairs.items():
        if not (math.isfinite(coarse_r) and math.isfinite(fine_r)):
            ratios[name] = None  # a non-finite residual has no convergence rate
            ok = False
            continue
        if coarse_r < noise_floor and fine_r < noise_floor:
            at_floor.append(name)
            continue
        ratio = coarse_r / fine_r if fine_r > 0 else float("inf")
        ratios[name] = round(ratio, 2)
        if ratio < 3.0:
            ok = False
    return CheckResult(
        12,
        "step_halving_convergence",
        ok,
        time.time() - start,
        None,
        {"ratios": ratios, "at_noise_floor": at_floor},
    )


def run_all(max_n=8, seed=0, witness_path=None) -> list[CheckResult]:
    results = []
    results.append(criterion_clifford_relations(max_n, seed))
    results.append(criterion_admissible_table(max_n))
    results.append(criterion_null_kernel(max_n, seed))
    results.append(criterion_beta(max_n, seed))
    results.append(criterion_bound_tightness(seed))
    results.append(criterion_spin23(seed))
    results.append(criterion_spin45(witness_path))
    results.append(criterion_mixed_bound(seed))
    results.append(criterion_cone_iso(max_n))
    results.append(criterion_invariant_spinors(max_n))
    results.append(criterion_model_sphere())
    results.append(criterion_convergence())
    return results
