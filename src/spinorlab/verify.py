"""Acceptance checks, shared by the test suite and the command line.

Each criterion states its number, name and budget once, in _criterion,
and returns (passed, details); the harness times it and builds its
CheckResult.  Nothing is asserted here so the CLI can render failures as
falsification reports.
"""

from __future__ import annotations

import functools
import inspect
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .admissible_forms import first_nondegenerate, nondegenerate_tau_exists
from .brackets import beta_form, check_null_vector, random_null_vector
from .clifford_core import (
    Signature,
    build_rep,
    clifford_relation_failures,
    even_subalgebra_images,
    relation_failures,
)
from .cone_split import null_plane_invariants, semispinor_projectors
from .model_space import (
    ConstantSpinorField,
    HyperquadricModel,
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
            "budget_s": self.budget,
            "details": self.details,
        }


def _criterion(number, name, budget=None):
    """The harness of every criterion: the decorated function returns
    (passed, details), and the public function under its name, with its
    parameters, returns the CheckResult, timed over the call."""

    def decorate(fn):
        @functools.wraps(fn)
        def check(*args, **kwargs):
            start = time.time()
            passed, details = fn(*args, **kwargs)
            return CheckResult(number, name, passed, time.time() - start, budget, details)

        check.__signature__ = inspect.signature(fn).replace(return_annotation="CheckResult")
        return check

    return decorate


def _signatures(max_n):
    for n in range(1, max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def _indefinite_signatures(max_n):
    for sig in _signatures(max_n):
        if not sig.is_definite():
            yield sig


@_criterion(1, "clifford_relations", 30.0)
def criterion_clifford_relations(max_n=8, seed=0):
    # the relation table kept per rep, which by polarization gives
    # gamma_v^2 = -g(v,v) Id for every v; the seed draws nothing
    failures = []
    for sig in _signatures(max_n):
        failures += [f"{sig}:relation({i},{j})" for i, j in relation_failures(build_rep(sig))]
    return not failures, {"signatures": sum(1 for _ in _signatures(max_n)), "failures": failures}


@_criterion(2, "admissible_tau_minus_rule", 120.0)
def criterion_admissible_table(max_n=8):
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
    return not failures, {"signatures": rows, "failures": failures}


def _beta_rank_details(max_n, rng_offset, key, suffix):
    """beta_form on ten seeded null vectors per indefinite signature,
    drawn from random.Random(rng_offset + 64 p + q): the count that
    certified under key, and a failure {sig}:{suffix} where rank beta is
    not N/2, or one {sig}:{err} where a certificate of the rep or form
    fails."""
    failures = []
    checked = 0
    for sig in _indefinite_signatures(max_n):
        rep = build_rep(sig)
        form = first_nondegenerate(rep)
        rng = random.Random(rng_offset + sig.p * 64 + sig.q)
        vectors = [random_null_vector(sig, rng) for _ in range(10)]
        for v in vectors:
            check_null_vector(rep, v)
        try:
            ranks = beta_form(rep, form, vectors)
        except ArithmeticError as err:
            failures.append(f"{sig}:{err}")
            continue
        checked += len(ranks)
        failures += [f"{sig}:{suffix}" for rank in ranks if 2 * rank != rep.N]
    return {key: checked, "failures": failures}


@_criterion(3, "null_kernel_lemma")
def criterion_null_kernel(max_n=8, seed=0):
    # dim L_v = dim ker gamma_v = N - rank beta, which is N/2 exactly
    # when rank beta is
    details = _beta_rank_details(max_n, seed * 7919, "kernels_checked", "dim")
    return not details["failures"], details


@_criterion(4, "beta_symmetry_and_rank")
def criterion_beta(max_n=8, seed=0):
    details = _beta_rank_details(max_n, seed * 104729, "betas_checked", "rank")
    return not details["failures"], details


@_criterion(5, "bound_tightness", 300.0)
def criterion_bound_tightness(seed=0, trials=500):
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
        dim = 3 * rep.N // 4 + 1
        sweep = random_surjectivity_sweep(rep, form, dim, trials, seed)
        details[f"sweep{sig}"] = {
            "dim": dim,
            "trials": trials,
            "counterexamples": len(sweep.counterexamples),
        }
        if sweep.counterexamples:
            failures.append(f"{sig}:sweep")
    return not failures, {**details, "failures": failures}


@_criterion(6, "spin23_isotropic_planes")
def criterion_spin23(seed=0, trials=200):
    distribution = spin23_isotropic_scan(trials, seed)
    return distribution == {1: trials}, {"distribution": distribution}


@_criterion(7, "spin45_witness", 600.0)
def criterion_spin45(witness_path=None):
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
    except (OSError, ValueError, KeyError, ArithmeticError) as err:  # a bad witness file
        passed = False
        details["error"] = str(err)
    return passed, details


@_criterion(8, "mixed_killing_bound")
def criterion_mixed_bound(seed=0, trials=8):
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
    return not failures, {**details, "failures": failures}


@_criterion(9, "cone_iso_and_semispinors")
def criterion_cone_iso(max_n=8):
    failures = []
    quoted_disagreements = []
    for sig in _signatures(6):
        # the correspondence e_i e_0 -> e_i of the cone's even subalgebra
        # with the base Clifford algebra respects the base relations
        cone = build_rep(Signature(sig.p + 1, sig.q))
        for i, j in clifford_relation_failures(even_subalgebra_images(cone), sig.eta()):
            failures.append(f"{sig}:even_relation({i},{j})")
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
    failures += [d for d in quoted_disagreements if "s%8=0" not in d]
    return not failures, {"quoted_list_falsified_on": quoted_disagreements, "failures": failures}


@_criterion(10, "null_plane_invariant_spinors")
def criterion_invariant_spinors(max_n=8):
    failures = []
    checked = 0
    for n in range(3, max_n + 2):
        for (p, q) in {(1, n - 1), (n - 1, 1)}:
            rep = build_rep(Signature(p, q))
            dim = null_plane_invariants(rep)
            checked += 1
            if 2 * dim != rep.N:
                failures.append(f"({p},{q}): dim {dim}")
    return not failures, {"cones_checked": checked, "failures": failures}


@_criterion(11, "model_sphere_suite", 180.0)
def criterion_model_sphere():
    failures = []
    details = {}
    tol = 1e-6
    model = HyperquadricModel(Signature(3, 0), num_samples=32, step=1e-4)
    fields = [ConstantSpinorField(np.eye(model.N)[i]) for i in range(model.N)]
    passing = [rep for rep in killing_residual(model, fields) if rep.residual < tol]
    lam = passing[-1].killing_number if passing else None
    details["killing_passing"] = len(passing)
    if len(passing) != 4:
        failures.append("killing_count")
    if lam is None:
        return False, {**details, "failures": failures + ["no_killing_spinors"]}
    d_res = max(rep.dirac_residual for rep in passing)
    details["dirac_residual"] = d_res
    if d_res >= 1e-5:
        failures.append("dirac")
    bracket = bracket_field_checks(model, fields[0], fields[1])
    details["killing_vector_residual"] = bracket.killing_vector_residual
    if bracket.killing_vector_residual >= 1e-5:
        failures.append("killing_vector")
    spans = homogeneity_span(model, fields)
    details["homogeneity_dims"] = sorted(set(spans))
    if set(spans) != {2}:
        failures.append("homogeneity")
    kappa = kappa_upper_bound(Signature(4, 0), (2, 2), 0.5)
    details["kappa_product_bound"] = kappa
    if kappa != 0:
        failures.append("kappa_product")
    # on the round S^2 every spinor is Killing with number 1/2
    kappa = kappa_upper_bound(Signature(2, 0), (2,), 0.5)
    details["kappa_sphere_bound"] = kappa
    if kappa != build_rep(Signature(2, 0)).N:
        failures.append("kappa_sphere")
    scal = scalar_curvature_residual(model, lam)
    details["scal_residual"] = scal
    if scal >= 1e-6:
        failures.append("scal")
    return not failures, {**details, "failures": failures}


@_criterion(12, "step_halving_convergence")
def criterion_convergence():
    """Every residual must shrink at least 3x under step halving, except
    residuals already at the rounding floor: quantities that are exactly
    constant along the probe curves (the contraction of a Killing vector
    along geodesics, for instance) have no truncation error to converge
    and only show float noise."""
    noise_floor = 1e-10
    coarse = HyperquadricModel(Signature(3, 0), num_samples=4, step=1e-2)
    fine = HyperquadricModel(Signature(3, 0), num_samples=4, step=5e-3)
    s = ConstantSpinorField(np.eye(coarse.N)[0])
    t = ConstantSpinorField(np.eye(coarse.N)[1])
    (kc,), (kf,) = killing_residual(coarse, [s], 0.5), killing_residual(fine, [s], 0.5)
    pairs = {
        "killing": (kc.residual, kf.residual),
        "dirac": (kc.dirac_residual, kf.dirac_residual),
        "scal": (
            scalar_curvature_residual(coarse, 0.5),
            scalar_curvature_residual(fine, 0.5),
        ),
    }
    bc = bracket_field_checks(coarse, s, t)
    bf = bracket_field_checks(fine, s, t)
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
    return ok, {"ratios": ratios, "at_noise_floor": at_floor}


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
