"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime against the stated budget."""

import pytest

from spinorlab import verify
from spinorlab.subspace_lab import IsotropicSearchError

SEED = 7


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    budget = f" (budget {result.budget:.0f}s)" if result.budget else ""
    print(f"[{status}] criterion {result.criterion:2d} {result.name}: "
          f"{result.elapsed:.1f}s{budget}")
    if not result.passed:
        print(f"       details: {result.details}")
    assert result.passed, result.details
    if result.budget is not None:
        assert result.elapsed < result.budget


def test_c01_clifford_relation_suite():
    _report(verify.criterion_clifford_relations(max_n=8, seed=SEED))


def test_c02_admissible_form_table():
    _report(verify.criterion_admissible_table(max_n=8))


def test_c03_null_kernel_lemma():
    _report(verify.criterion_null_kernel(max_n=8, seed=SEED))


def test_c04_beta_symmetry_and_rank():
    _report(verify.criterion_beta(max_n=8, seed=SEED))


def test_c05_bound_tightness():
    _report(verify.criterion_bound_tightness(seed=SEED, trials=500))


def test_c05_reports_a_failed_construction_but_not_a_defect(monkeypatch):
    def raising(err):
        def raise_it(*args, **kwargs):
            raise err

        return raise_it

    monkeypatch.setattr(verify, "extremal_witness", raising(IsotropicSearchError("no lift")))
    result = verify.criterion_bound_tightness(seed=SEED, trials=1)
    assert not result.passed
    assert "(2,3):extremal:no lift" in result.details["failures"]
    monkeypatch.setattr(verify, "extremal_witness", raising(TypeError("planted defect")))
    with pytest.raises(TypeError, match="planted defect"):
        verify.criterion_bound_tightness(seed=SEED, trials=1)


def test_c06_spin23_remark():
    _report(verify.criterion_spin23(seed=SEED, trials=200))


def test_c07_spin45_remark():
    _report(verify.criterion_spin45())


def test_c08_mixed_bound():
    _report(verify.criterion_mixed_bound(seed=SEED))


def test_c09_cone_even_iso_and_semispinors():
    result = verify.criterion_cone_iso(max_n=8)
    _report(result)
    # the quoted residue lists break exactly on the s = 0 mod 8 bases
    assert result.details["quoted_list_falsified_on"]
    assert all("s%8=0" in d for d in result.details["quoted_list_falsified_on"])


def test_c10_invariant_spinors():
    _report(verify.criterion_invariant_spinors(max_n=8))


def test_c11_model_space_sphere():
    result = verify.criterion_model_sphere()
    _report(result)
    assert result.details["killing_passing"] == 4
    assert result.details["dirac_residual"] < 1e-5
    assert result.details["killing_vector_residual"] < 1e-5
    assert result.details["homogeneity_dims"] == [2]
    assert result.details["kappa_product_bound"] == 0
    assert result.details["kappa_sphere_bound"] == 4
    assert result.details["scal_residual"] < 1e-6


def test_c12_convergence():
    result = verify.criterion_convergence()
    _report(result)
    for name, ratio in result.details["ratios"].items():
        assert ratio >= 3.0, name


@pytest.mark.parametrize("nan_step", [1e-2, 5e-3], ids=["coarse", "fine"])
def test_c12_convergence_fails_on_nan_residual(monkeypatch, nan_step):
    # a NaN residual on either side of the step halving has no rate and
    # must fail the criterion, not pass as ratio inf or as nan < 3
    scal = verify.scalar_curvature_residual

    def nan_at_step(model, killing_number):
        return float("nan") if model.step == nan_step else scal(model, killing_number)

    monkeypatch.setattr(verify, "scalar_curvature_residual", nan_at_step)
    result = verify.criterion_convergence()
    assert not result.passed
    assert result.details["ratios"]["scal"] is None
