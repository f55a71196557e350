"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime against the stated budget."""

import dataclasses
import random
from fractions import Fraction

import pytest

from spinorlab import admissible_forms, brackets, clifford_core, cone_split, subspace_lab, verify
from spinorlab.admissible_forms import BilinearForm, first_nondegenerate
from spinorlab.cli import main
from spinorlab.exact_linalg import Echelon
from spinorlab.subspace_lab import IsotropicSearchError
from dense_oracle import clifford_relation_failures_oracle, flip_sign
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


def _wrong_tau(form):
    return BilinearForm(form.matrix, form.sigma, -form.tau)


def _negated_eta(rep):
    """rep with -eta: null vectors stay null and gamma_v is unchanged, but
    the anticommutator constant -2 eta_k v_k changes sign."""
    return dataclasses.replace(rep, eta=tuple(-e for e in rep.eta))


@pytest.mark.parametrize("check", [verify.criterion_null_kernel, verify.criterion_beta],
                         ids=["c03", "c04"])
@pytest.mark.parametrize(
    "break_rep, break_form, message",
    [
        (lambda rep: _flip_sign(rep, 0), _unchanged, "Clifford relation failed at (0,0) for {sig}"),
        (_unchanged, _wrong_sigma, "admissible form relation H^T = sigma H fails for {sig}"),
        (_negated_eta, _unchanged, "Clifford relation failed at (0,0) for {sig}"),
        (_unchanged, _wrong_tau, "admissible form relation G_0^T H = tau H G_0 fails for {sig}"),
    ],
    ids=["square", "symmetry", "anticommutator", "tau"],
)
def test_c03_c04_report_each_failed_identity(monkeypatch, check, break_rep, break_form, message):
    # the admissible form is found on the true rep, then broken or not; the
    # identities of the null-kernel lemma follow from the rep and form
    # certificates, so a broken one fails each signature once, by name
    build, first = verify.build_rep, verify.first_nondegenerate
    monkeypatch.setattr(verify, "build_rep", lambda sig: break_rep(build(sig)))
    monkeypatch.setattr(verify, "first_nondegenerate",
                        lambda rep: break_form(first(build(rep.signature))))
    result = check(max_n=4, seed=SEED)
    assert not result.passed
    signatures = list(verify._indefinite_signatures(4))
    assert len(signatures) == 6
    assert result.details["failures"] == [f"{sig}:{message.format(sig=sig)}" for sig in signatures]
    assert next(v for k, v in result.details.items() if k.endswith("_checked")) == 0


def test_c03_c04_run_without_elimination_or_dense_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("an elimination or a dense product on the c03/c04 path")

    monkeypatch.setattr(Echelon, "add", refuse)
    monkeypatch.setattr(brackets, "term_rows", refuse)
    _report(verify.criterion_null_kernel(max_n=7, seed=SEED))
    _report(verify.criterion_beta(max_n=7, seed=SEED))


def test_c06_c08_form_no_dense_product(monkeypatch):
    # the bracket images and isotropy checks run on signed gathers alone:
    # no gamma_v is ever expanded into dense rows
    def refuse(*args):
        raise AssertionError("a dense product on the bracket-image path")

    monkeypatch.setattr(brackets, "term_rows", refuse)
    monkeypatch.setattr(subspace_lab, "term_rows", refuse)
    _report(verify.criterion_spin23(seed=SEED, trials=20))
    _report(verify.criterion_mixed_bound(seed=SEED, trials=2))


def test_the_exact_paths_make_no_fraction(monkeypatch):
    # kernels, null directions and spin45 columns are integer ones: with
    # Fraction refused, each call returns what it returns with it allowed
    def calls():
        extremal = [
            subspace_lab.extremal_witness(clifford_core.Signature(p, q))
            for p, q in ((2, 1), (2, 2), (2, 3), (1, 3), (3, 3))
        ]
        rep = clifford_core.build_rep(clifford_core.Signature(2, 3))
        form = first_nondegenerate(rep)
        kernels = [brackets.null_kernel(rep, form, v).basis for v in ([1, 0, 1, 0, 0], [3, 4, 0, 0, 5])]
        criteria = [
            verify.criterion_spin23(seed=SEED, trials=20),
            verify.criterion_mixed_bound(seed=SEED, trials=2),
        ]
        spin45 = subspace_lab.spin45_search(7, 20)
        return (
            [(form, v, sub.basis) for form, v, sub in extremal],
            kernels,
            [(c.passed, c.details) for c in criteria],
            (spin45.found, spin45.trials_used, spin45.distribution, spin45.subspace.basis),
        )

    want = calls()

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction on an exact path")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    with pytest.raises(AssertionError, match="a Fraction"):
        Fraction(1, 2)
    assert calls() == want


def _randint_null_vector(sig, rng):
    """random_null_vector with its z drawn by a randint loop."""
    eta, p_vec = sig.eta(), clifford_core.null_direction(sig)
    while True:
        z = [rng.randint(-3, 3) for _ in range(sig.n)]
        gzp = clifford_core.metric_value(eta, z, p_vec)
        if gzp == 0:
            continue
        gzz = clifford_core.metric_value(eta, z, z)
        v = [2 * gzp * zi - gzz * pi for zi, pi in zip(z, p_vec)]
        if any(v):
            return v


def test_c03_c04_draw_the_vectors_of_a_randint_loop(monkeypatch):
    # each signature's ten vectors are drawn before its one batched call,
    # through random_integers; they are the vectors of the randint loop
    drawn = []
    beta = verify.beta_form

    def record_beta(rep, form, vectors):
        drawn.append((rep.signature, vectors))
        return beta(rep, form, vectors)

    monkeypatch.setattr(verify, "beta_form", record_beta)
    signatures = [clifford_core.Signature(p, n - p) for n in range(1, 10) for p in range(n + 1)]
    for check, offset in ((verify.criterion_null_kernel, SEED * 7919),
                          (verify.criterion_beta, SEED * 104729)):
        drawn.clear()
        assert check(max_n=9, seed=SEED).passed
        want = []
        for sig in signatures:
            if not sig.is_definite():
                rng = random.Random(offset + 64 * sig.p + sig.q)
                want.append((sig, [_randint_null_vector(sig, rng) for _ in range(10)]))
        assert drawn == want


def test_c01_reports_a_broken_square(monkeypatch):
    # the relation table, which gives every square gamma_v^2 by polarization
    build = verify.build_rep
    monkeypatch.setattr(verify, "build_rep", lambda sig: _flip_sign(build(sig), 0))
    result = verify.criterion_clifford_relations(max_n=2, seed=SEED)
    assert not result.passed
    assert "(1,1):relation(0,0)" in result.details["failures"]
    assert all(":relation(" in f for f in result.details["failures"])


def test_exact_criteria_add_at_most_one_elimination_row_per_spinor(monkeypatch):
    # c01, c03 and c04 read certificates and eliminate nothing; c10 reads
    # the trace of the signed permutation G_a^T G_b per cone and adds no
    # row either, where gamma_p's elimination added N rows and the stacked
    # joint kernel of the null-plane rotations (n - 2) N
    added = []
    add = Echelon.add

    def counted(self, vector):
        added.append(len(vector))
        return add(self, vector)

    monkeypatch.setattr(Echelon, "add", counted)
    for check in (verify.criterion_clifford_relations, verify.criterion_null_kernel,
                  verify.criterion_beta):
        assert check(max_n=9, seed=SEED).passed
        assert added == [], check.__name__
    per_cone = []
    invariants = verify.null_plane_invariants

    def one_cone(rep):
        added.clear()
        dim = invariants(rep)
        per_cone.append((rep.N, len(added)))
        return dim

    monkeypatch.setattr(verify, "null_plane_invariants", one_cone)
    result = verify.criterion_invariant_spinors(max_n=9)
    assert result.passed and len(per_cone) == result.details["cones_checked"] == 16
    assert all(rows == 0 for N, rows in per_cone), per_cone


def test_a_broken_generator_relation_stops_verify_all(monkeypatch, capsys):
    # c01 leaves the generator relations to build_rep, which checks them
    # on every rep it builds: a sign flipped inside the tensor recursion
    # is a falsification before any criterion reports.  _build memoizes
    # read-only stacks: the planted module is a fresh stack, and both
    # caches are cleared around the run so no broken module outlives it
    build = clifford_core._build

    def broken(p, q):
        gens, comm = build(p, q)
        if (p, q) == (1, 1):
            gens = flip_sign(gens, (0, 0))
        return gens, comm

    def clear_caches():
        build.cache_clear()
        clifford_core._build_rep_cached.cache_clear()

    monkeypatch.setattr(clifford_core, "_build", broken)
    clear_caches()
    try:
        code = main(["verify-all", "--max-n", "2", "--seed", str(SEED)])
    finally:
        clear_caches()
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "falsification: Clifford relation failed at (0,0) for (1,1)" in err


def test_exact_criteria_walk_only_where_a_form_or_projector_is_exhibited(monkeypatch):
    # no orbit walk is left in the library: c02 reads admissible-form
    # counts and exhibits nothing, and c09 exhibits one twisted commutant
    # basis, the cone's anticommutant, per counted split
    from spinorlab import exact_linalg

    for module in (exact_linalg, clifford_core, admissible_forms, cone_split, verify):
        assert not hasattr(module, "signed_relation_basis") and not hasattr(module, "_walk")
    bases = []
    for module in (admissible_forms, cone_split):
        build = module.twisted_commutant
        monkeypatch.setattr(module, "twisted_commutant",
                            lambda rep, chi, build=build: bases.append(rep.signature) or build(rep, chi))
    assert verify.criterion_admissible_table(max_n=9).passed
    assert bases == []
    assert verify.criterion_cone_iso(max_n=9).passed
    splits = [verify.Signature(p + 1, n - p) for n in range(1, 10) for p in range(n + 1)
              if (p - (n - p)) % 8 in (0, 1, 3, 7)]
    assert bases == splits and len(splits) == 29


def test_c09_tables_each_cones_even_images_once(monkeypatch):
    # semispinor_projectors reads the even images' relations off the
    # cone's own table, kept per rep: at max_n 9, c09 tables no stack of
    # even images, and with that cache cleared it tables each of its 54
    # cones once, through relation_failures
    cones = [verify.build_rep(verify.Signature(p + 1, n - p)) for n in range(1, 10) for p in range(n + 1)]
    images = {verify.even_subalgebra_images(cone) for cone in cones}
    tables = []
    failures = clifford_core.clifford_relation_failures

    def counted(generators, eta):
        tables.append(generators)
        return failures(generators, eta)

    monkeypatch.setattr(clifford_core, "clifford_relation_failures", counted)
    monkeypatch.setattr(verify, "clifford_relation_failures", counted)
    clifford_core.relation_failures.cache_clear()
    assert verify.criterion_cone_iso(max_n=9).passed
    assert [x for x in tables if x in images] == []
    tabled = [x for x in tables if x in {cone.generators for cone in cones}]
    assert len(tabled) == len(set(tabled)) == len(cones) == 54


def test_exact_criteria_build_one_relation_table_per_rep(monkeypatch):
    # c01, c03, c04, c09 and c10 read the table kept per rep: 54 reps
    # with n <= 9 and the ten cones with n = 10 of c09, among them the
    # cones (1,9), (9,1) of c10, each tabled once
    tables = []
    failures = clifford_core.clifford_relation_failures

    def counted(generators, eta):
        tables.append((generators.perm.tobytes(), generators.signs.tobytes(), tuple(eta)))
        return failures(generators, eta)

    monkeypatch.setattr(clifford_core, "clifford_relation_failures", counted)
    clifford_core.relation_failures.cache_clear()
    for check in (verify.criterion_clifford_relations, verify.criterion_null_kernel,
                  verify.criterion_beta):
        assert check(max_n=9, seed=SEED).passed
    assert verify.criterion_cone_iso(max_n=9).passed
    assert verify.criterion_invariant_spinors(max_n=9).passed
    assert len(tables) == len(set(tables)) == 64


def test_a_planted_rep_is_not_served_the_built_reps_relation_table(monkeypatch):
    # a copy of the built (2,1) rep with one sign of G_1 flipped has the
    # built rep's signature, eta and commutant, and its own relation
    # table: c01 lists its failed pairs and beta_form refuses it, after
    # the built rep's table was read by both
    rep = verify.build_rep(verify.Signature(2, 1))
    form = first_nondegenerate(rep)
    vectors = [[1, 0, 1]]
    assert brackets.beta_form(rep, form, vectors) == [rep.N // 2]
    assert verify.criterion_clifford_relations(max_n=3).passed
    broken = dataclasses.replace(rep, generators=flip_sign(rep.generators, (1, 0)))
    pairs = clifford_relation_failures_oracle(broken.generators, broken.eta)
    assert pairs
    build = verify.build_rep
    monkeypatch.setattr(verify, "build_rep", lambda sig: broken if sig == rep.signature else build(sig))
    result = verify.criterion_clifford_relations(max_n=3)
    assert not result.passed
    assert result.details["failures"] == [f"(2,1):relation({i},{j})" for i, j in pairs]
    i, j = pairs[0]
    with pytest.raises(ArithmeticError, match=rf"Clifford relation failed at \({i},{j}\) for \(2,1\)"):
        brackets.beta_form(broken, form, vectors)


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
            cone = dataclasses.replace(cone, generators=cone.generators[[0, 1, 1, 3]])
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
