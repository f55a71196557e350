"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime against the stated budget."""

import dataclasses

import pytest

from spinorlab import brackets, clifford_core, subspace_lab, verify
from spinorlab.admissible_forms import BilinearForm
from spinorlab.cli import main
from spinorlab.exact_linalg import Echelon, SignedPerm
from spinorlab.subspace_lab import IsotropicSearchError
from test_brackets import _flip_sign

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


def _unchanged(x):
    return x


def _wrong_sigma(form):
    return BilinearForm(form.matrix, -form.sigma, form.tau)


def _negated_eta(rep):
    """rep with -eta: null vectors stay null and gamma_v is unchanged, but
    the anticommutator constant -2 eta_k v_k changes sign."""
    return dataclasses.replace(rep, eta=tuple(-e for e in rep.eta))


@pytest.mark.parametrize("check", [verify.criterion_null_kernel, verify.criterion_beta],
                         ids=["c03", "c04"])
@pytest.mark.parametrize(
    "break_rep, break_form, message, everywhere",
    [
        (lambda rep: _flip_sign(rep, 0), _unchanged,
         "gamma_v squared must vanish on a null vector", False),
        (_unchanged, _wrong_sigma, "beta does not have symmetry sigma*tau", True),
        (_negated_eta, _unchanged, "gamma_v gamma_k + gamma_k gamma_v is not -2 eta_k v_k Id", True),
    ],
    ids=["square", "symmetry", "anticommutator"],
)
def test_c03_c04_report_each_failed_identity(monkeypatch, check, break_rep, break_form,
                                             message, everywhere):
    # the admissible form is found on the true rep, then broken or not
    build, first = verify.build_rep, verify.first_nondegenerate
    monkeypatch.setattr(verify, "build_rep", lambda sig: break_rep(build(sig)))
    monkeypatch.setattr(verify, "first_nondegenerate",
                        lambda rep: break_form(first(build(rep.signature))))
    result = check(max_n=4, seed=SEED)
    failures = result.details["failures"]
    assert not result.passed
    named = [f for f in failures if f.endswith(":" + message)]
    assert named
    if everywhere:  # all 10 vectors on each of the 6 indefinite signatures
        assert named == failures and len(failures) == 60


def test_c03_c04_run_without_elimination_or_dense_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("an elimination or a dense product on the c03/c04 path")

    monkeypatch.setattr(Echelon, "add", refuse)
    monkeypatch.setattr(brackets, "dense_rows", refuse)
    _report(verify.criterion_null_kernel(max_n=7, seed=SEED))
    _report(verify.criterion_beta(max_n=7, seed=SEED))


def test_c06_c08_form_no_dense_product(monkeypatch):
    # the bracket images and isotropy checks run on signed gathers alone:
    # no gamma_v is ever expanded into dense rows
    def refuse(*args):
        raise AssertionError("a dense product on the bracket-image path")

    monkeypatch.setattr(brackets, "dense_rows", refuse)
    monkeypatch.setattr(subspace_lab, "dense_rows", refuse)
    _report(verify.criterion_spin23(seed=SEED, trials=20))
    _report(verify.criterion_mixed_bound(seed=SEED, trials=2))


def test_c01_reports_a_broken_square(monkeypatch):
    build = verify.build_rep
    monkeypatch.setattr(verify, "build_rep", lambda sig: _flip_sign(build(sig), 0))
    result = verify.criterion_clifford_relations(max_n=2, seed=SEED)
    assert not result.passed
    assert any(":square([" in f for f in result.details["failures"])


def test_a_broken_generator_relation_stops_verify_all(monkeypatch, capsys):
    # c01 leaves the generator relations to build_rep, which checks them
    # on every rep it builds: a sign flipped inside the tensor recursion
    # is a falsification before any criterion reports
    build = clifford_core._build

    def broken(p, q):
        positives, negatives, comm = build(p, q)
        if (p, q) == (1, 1):
            g = positives[0]
            positives[0] = SignedPerm(g.perm, (-g.signs[0],) + g.signs[1:])
        return positives, negatives, comm

    monkeypatch.setattr(clifford_core, "_build", broken)
    clifford_core._build_rep_cached.cache_clear()
    try:
        code = main(["verify-all", "--max-n", "2", "--seed", str(SEED)])
    finally:
        clifford_core._build_rep_cached.cache_clear()
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "falsification: Clifford relation failed at (0,0) for (1,1)" in err


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


def test_c07_lets_a_program_defect_propagate(monkeypatch):
    # a bad witness file fails the criterion; a defect in the program raises
    def raise_it(err):
        def raising(path):
            raise err

        return raising

    monkeypatch.setattr(verify, "load_and_verify_spin45_witness", raise_it(ValueError("bad file")))
    result = verify.criterion_spin45()
    assert not result.passed and result.details == {"error": "bad file"}
    monkeypatch.setattr(verify, "load_and_verify_spin45_witness", raise_it(TypeError("planted defect")))
    with pytest.raises(TypeError, match="planted defect"):
        verify.criterion_spin45()


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


def test_c09_reports_broken_even_relations(monkeypatch):
    # the (3,1) cone with generator 2 := generator 1: its images e_1 e_0
    # and e_2 e_0 coincide, so they fail to anticommute, and every
    # square still matches the base metric
    images = verify.even_subalgebra_images

    def broken_on_31(cone):
        if cone.signature == verify.Signature(3, 1):
            c = cone.generators
            cone = dataclasses.replace(cone, generators=(c[0], c[1], c[1], c[3]))
        return images(cone)

    monkeypatch.setattr(verify, "even_subalgebra_images", broken_on_31)
    result = verify.criterion_cone_iso(max_n=1)
    assert not result.passed
    assert result.details["failures"] == ["(2,1):even_relation(0,1)"]


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


def test_c11_fails_on_a_wrong_sphere_kappa(monkeypatch):
    # the round S^2 bound is checked against N = 4, not only reported
    kappa = verify.kappa_upper_bound

    def short_on_sphere(signature, factors, killing_number):
        return 3 if factors == (2,) else kappa(signature, factors, killing_number)

    monkeypatch.setattr(verify, "kappa_upper_bound", short_on_sphere)
    result = verify.criterion_model_sphere()
    assert not result.passed
    assert result.details["kappa_sphere_bound"] == 3
    assert result.details["failures"] == ["kappa_sphere"]


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
