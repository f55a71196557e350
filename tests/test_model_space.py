import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from spinorlab.admissible_forms import first_nondegenerate
from spinorlab.clifford_core import Signature, build_rep
from spinorlab.model_space import (
    BracketFieldReport,
    ConstantSpinorField,
    HyperquadricModel,
    _first_primes,
    _worst,
    _worst_rows,
    bracket_field_checks,
    frame_rotation_rates,
    homogeneity_span,
    kappa_upper_bound,
    killing_residual,
    scalar_curvature_residual,
    spin_connection,
)
from dense_oracle import (
    at_one_point,
    bracket_field_checks_oracle,
    dense,
    dirac_at,
    homogeneity_span_oracle,
    killing_residual_oracle,
    nablas_at,
    scalar_curvature_residual_oracle,
    select_patch_oracle,
    tangent_frame_oracle,
)


class VolumeFlippedField:
    """The intrinsic volume element applied to another field; flips the
    Killing number by (-1)^(n+1)."""

    def __init__(self, inner):
        self.inner = inner

    def eval(self, model, y, patch):
        frame = at_one_point(model.tangent_frame, y, patch)
        vol = np.eye(model.N)
        for i in range(model.n):
            vol = vol @ model.gamma_intrinsic(y, frame[:, i])
        return vol @ self.inner.eval(model, y, patch)


def covariant_derivative(model, field, x, direction, patch):
    """nabla_X s at x: the central difference of s along the curve with
    velocity X, plus Omega(x, X) s(x) from a fresh spin connection."""
    h = model.step
    plus = field.eval(model, model.curve(x, direction, h), patch)
    minus = field.eval(model, model.curve(x, direction, -h), patch)
    cone = at_one_point(model.cone_frame, x, patch)
    omega = at_one_point(spin_connection, model, cone, direction, patch)
    return (plus - minus) / (2.0 * h) + omega @ field.eval(model, x, patch)


def _float_matrix(g):
    """The signed permutation g as a float64 array: signs[j] at row
    perm[j] of column j."""
    out = np.zeros((g.N, g.N))
    out[g.perm, np.arange(g.N)] = g.signs
    return out


def dense_gamma(model, v):
    """gamma_v = sum_i v^i G_i as a dense sum of the float generators."""
    out = np.zeros((model.N, model.N))
    for c, g in zip(v, model.rep.generators):
        if c:
            out += c * _float_matrix(g)
    return out


def dense_gamma_intrinsic(model, x, v):
    """gamma^M_v as the dense product gamma_v gamma_x."""
    return dense_gamma(model, v) @ dense_gamma(model, x)


def dense_spin_connection(model, frame, direction, patch):
    """Omega assembled term by term from dense products: minus the
    full-frame quarter sum of the ambient action plus the tangential
    quarter sum of the intrinsic action gamma^M."""
    lam_low = at_one_point(frame_rotation_rates, model, frame, direction, patch)
    lam_low = 0.5 * (lam_low - lam_low.T)
    eta_frame = np.concatenate([[1.0], np.array(model.base_signature.eta(), float)])
    frame_gammas = [dense_gamma(model, f) for f in frame.T]
    mu_full = np.zeros((model.N, model.N))
    for a in range(model.dim):
        for b in range(model.dim):
            if a == b or lam_low[a, b] == 0.0:
                continue
            mu_full -= 0.25 * lam_low[a, b] * eta_frame[a] * eta_frame[b] * (
                frame_gammas[a] @ frame_gammas[b]
            )
    gamma_x = frame_gammas[0]
    intrinsic = [g @ gamma_x for g in frame_gammas[1:]]
    eta_base = eta_frame[1:]
    theta = np.zeros((model.N, model.N))
    for i in range(model.n):
        for j in range(model.n):
            w = lam_low[i + 1, j + 1]
            if i != j and w:
                theta -= 0.25 * w * eta_base[i] * eta_base[j] * (intrinsic[i] @ intrinsic[j])
    return -mu_full + theta


def dirac_form_consistency(model, s_field, t_field, lambda_s, lambda_t):
    """Worst |n omega_tilde - (h(Ds, t) + tau h(s, Dt))| of the degree-one
    bracket over its sample points, against the model's form, with
    omega_tilde = -(lambda_s + tau lambda_t) h(s, t) and D the frame Dirac
    sum; the identity follows from D s = -n lambda s."""
    h_mat = model.form_matrix
    gaps = []
    for point in model.sample_points(12):
        x, patch = point.x, point.patch
        s_val = s_field.eval(model, x, patch)
        t_val = t_field.eval(model, x, patch)
        ds = dirac_at(model, point, nablas_at(model, [s_field], point, s_val[:, None]))[:, 0]
        dt = dirac_at(model, point, nablas_at(model, [t_field], point, t_val[:, None]))[:, 0]
        # the intrinsic type of the form decides tau
        tau = _intrinsic_tau(h_mat, point)
        lhs = -model.n * (lambda_s + tau * lambda_t) * float(s_val @ h_mat @ t_val)
        rhs = float(ds @ h_mat @ t_val) + tau * float(s_val @ h_mat @ dt)
        gaps.append(abs(lhs - rhs))
    return _worst(gaps)


def _intrinsic_tau(h_mat, point):
    g1 = point.gammas[0]
    plus = np.max(np.abs(g1.T @ h_mat - h_mat @ g1))
    minus = np.max(np.abs(g1.T @ h_mat + h_mat @ g1))
    return 1.0 if plus < minus else -1.0


def svd_kappa(signature, riemann, killing_number):
    """Float oracle for kappa_upper_bound: the singular values below 1e-8
    of the stacked operators R_spin(e_i, e_j) + lambda^2 [gamma_i, gamma_j],
    from dense float generators and a Riemann tensor callable."""
    rep = build_rep(signature)
    n, N = signature.n, rep.N
    gammas = [np.array(dense(g).to_lists(), dtype=float) for g in rep.generators]
    eta = signature.eta()
    blocks = []
    for i in range(n):
        for j in range(i + 1, n):
            r_spin = np.zeros((N, N))
            for k in range(n):
                for l in range(n):
                    if k == l:
                        continue
                    r = riemann(i, j, k, l)
                    if r:
                        r_spin -= 0.25 * r * eta[k] * eta[l] * (gammas[k] @ gammas[l])
            commutator = gammas[i] @ gammas[j] - gammas[j] @ gammas[i]
            blocks.append(r_spin + killing_number**2 * commutator)
    svals = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return int(np.sum(svals < 1e-8))


def sphere_product_riemann(n1, n2):
    """Lowered curvature of the product of unit round spheres S^n1 x S^n2."""
    blocks = [0] * n1 + [1] * n2

    def riemann(i, j, k, l):
        if not (blocks[i] == blocks[j] == blocks[k] == blocks[l]):
            return 0.0
        return float((i == k) * (j == l) - (i == l) * (j == k))

    return riemann


def round_riemann(signature):
    """Lowered curvature of constant sectional curvature one in an
    orthonormal frame of the given signature."""
    eta = signature.eta()

    def riemann(i, j, k, l):
        return float(
            eta[i] * (i == k) * eta[j] * (j == l) - eta[i] * (i == l) * eta[j] * (j == k)
        )

    return riemann


@pytest.fixture(scope="module")
def sphere():
    return HyperquadricModel(Signature(3, 0), num_samples=8, step=1e-4)


@pytest.fixture(scope="module")
def pseudo_sphere():
    return HyperquadricModel(Signature(2, 2), num_samples=8, step=1e-4)


def test_samples_on_quadric(sphere, pseudo_sphere):
    for model in (sphere, pseudo_sphere):
        for x in model.samples:
            assert abs(model.g_hat(x, x) - 1.0) < 1e-12


def test_every_cone_up_to_ten_builds_its_sample_points():
    # one Halton base per ambient coordinate; the first eight are the
    # bases every cone with p + q <= 8 has always used
    assert _first_primes(8) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert _first_primes(10)[8:] == [23, 29]
    for n in range(2, 11):
        for p in range(1, n + 1):
            model = HyperquadricModel(Signature(p, n - p), num_samples=4)
            assert len(model.samples) == 4
            for x in model.samples:
                assert abs(model.g_hat(x, x) - 1.0) < 1e-12
            (point,) = model.sample_points(1)
            assert point.frame.shape == (n, n - 1)


def test_frames_orthonormal(sphere, pseudo_sphere):
    for model in (sphere, pseudo_sphere):
        x = model.samples[0]
        patch = at_one_point(model.select_patch, x)
        frame = at_one_point(model.tangent_frame, x, patch)
        eta = model.base_signature.eta()
        for i in range(model.n):
            assert abs(model.g_hat(frame[:, i], x)) < 1e-12
            for j in range(model.n):
                want = eta[i] if i == j else 0.0
                assert abs(model.g_hat(frame[:, i], frame[:, j]) - want) < 1e-10


def test_rotation_rates_antisymmetric(sphere):
    x = sphere.samples[0]
    patch = at_one_point(sphere.select_patch, x)
    frame = at_one_point(sphere.tangent_frame, x, patch)
    cone = at_one_point(sphere.cone_frame, x, patch)
    lam = at_one_point(frame_rotation_rates, sphere, cone, frame[:, 0], patch)
    assert np.max(np.abs(lam + lam.T)) < 1e-8


def test_spin_connection_rejects_non_tangent(sphere):
    x = sphere.samples[0]
    patch = at_one_point(sphere.select_patch, x)
    with pytest.raises(ValueError):
        at_one_point(spin_connection, sphere, at_one_point(sphere.cone_frame, x, patch), x, patch)


def test_constant_field_flat_along_rays(sphere):
    # ambient differences of a constant spinor along the radial line vanish
    s = ConstantSpinorField(np.eye(4)[0])
    x = sphere.samples[0]
    patch = at_one_point(sphere.select_patch, x)
    h = sphere.step
    plus = s.eval(sphere, (1 + h) * x, patch)
    minus = s.eval(sphere, (1 - h) * x, patch)
    assert np.max(np.abs((plus - minus) / (2 * h))) == 0.0


def test_all_constant_spinors_killing_on_sphere(sphere):
    passing = 0
    for i in range(sphere.N):
        field = ConstantSpinorField(np.eye(sphere.N)[i])
        (rep,) = killing_residual(sphere, [field])
        if rep.residual < 1e-6:
            passing += 1
        assert killing_residual(sphere, [field], -rep.killing_number)[0].residual > 0.1
    assert passing == 4


def test_epsilon_detection_stable(sphere):
    fields = [ConstantSpinorField(np.eye(4)[i]) for i in range(4)]
    eps = {rep.killing_number for rep in killing_residual(sphere, fields)}
    assert len(eps) == 1


def test_dirac_on_sphere(sphere):
    s = ConstantSpinorField(np.eye(4)[0])
    (rep,) = killing_residual(sphere, [s])
    assert rep.dirac_residual < 1e-5
    zero = ConstantSpinorField(np.zeros(4))
    assert killing_residual(sphere, [zero], 0.5)[0].dirac_residual == 0.0


def test_volume_flip_reverses_killing_number(sphere):
    s = ConstantSpinorField(np.eye(4)[0])
    base, flipped = killing_residual(sphere, [s, VolumeFlippedField(s)])
    assert flipped.residual < 1e-6
    assert flipped.killing_number == -base.killing_number


def test_bracket_killing_vector_on_sphere(sphere):
    s = ConstantSpinorField(np.eye(4)[0])
    t = ConstantSpinorField(np.eye(4)[1])
    report = bracket_field_checks(sphere, s, t)
    assert report.conformal_residual < 1e-5
    assert report.killing_vector_residual < 1e-5
    assert report.geodesic_residual < 1e-5
    assert dirac_form_consistency(sphere, s, t, 0.5, 0.5) < 1e-5


def test_bracket_of_opposite_killing_numbers_is_not_a_killing_vector(sphere):
    # the negative control: s and its volume flip have Killing numbers of
    # opposite sign, so [s,t]_1 is neither conformal nor Killing
    s = ConstantSpinorField(np.eye(4)[0])
    t = VolumeFlippedField(ConstantSpinorField(np.eye(4)[1]))
    report = bracket_field_checks(sphere, s, t)
    assert report.killing_vector_residual > 0.1
    assert report.conformal_residual > 0.1


def test_bracket_zero_fields(sphere):
    zero = ConstantSpinorField(np.zeros(4))
    report = bracket_field_checks(sphere, zero, zero)
    assert report.conformal_residual == 0.0
    assert report.killing_vector_residual == 0.0
    assert report.geodesic_residual == 0.0


def test_homogeneity_span_sphere(sphere):
    fields = [ConstantSpinorField(np.eye(4)[i]) for i in range(4)]
    assert homogeneity_span(sphere, fields) == [2] * len(sphere.samples[:8])


def test_single_pair_span_nonzero(sphere):
    fields = [ConstantSpinorField(np.eye(4)[0]), ConstantSpinorField(np.eye(4)[1])]
    dims = homogeneity_span(sphere, fields)
    assert all(d >= 1 for d in dims)


def test_pseudo_sphere_killing_and_span(pseudo_sphere):
    fields = [ConstantSpinorField(np.eye(4)[i]) for i in range(4)]
    for rep in killing_residual(pseudo_sphere, fields):
        assert rep.residual < 1e-6
    dims = homogeneity_span(pseudo_sphere, fields)
    assert dims == [3] * len(dims)


def test_kappa_bounds():
    assert kappa_upper_bound(Signature(2, 0), (2,), 0.5) == 4
    assert kappa_upper_bound(Signature(4, 0), (2, 2), 0.5) == 0
    with pytest.raises(ValueError, match="add up to n"):
        kappa_upper_bound(Signature(4, 0), (2,), 0.5)


def test_exact_kappa_matches_svd_oracle():
    cases = [
        (Signature(4, 0), (2, 2), sphere_product_riemann(2, 2)),
        (Signature(5, 0), (3, 2), sphere_product_riemann(3, 2)),
    ] + [
        (sig, (sig.n,), round_riemann(sig))
        for sig in (
            Signature(2, 0),
            Signature(3, 0),
            Signature(5, 0),
            Signature(7, 0),
            Signature(1, 3),
            Signature(2, 3),
            Signature(3, 3),
        )
    ]
    for signature, factors, riemann in cases:
        for lam in (0, 0.5, 1):
            want = svd_kappa(signature, riemann, lam)
            assert kappa_upper_bound(signature, factors, lam) == want, (str(signature), lam)


def test_scalar_curvature(sphere):
    assert scalar_curvature_residual(sphere, 0.5) < 1e-6


def test_epsilon_stable_across_steps():
    s = ConstantSpinorField(np.eye(4)[0])
    eps = set()
    for h in (1e-3, 1e-4):
        model = HyperquadricModel(Signature(3, 0), num_samples=4, step=h)
        eps.add(killing_residual(model, [s])[0].killing_number)
    assert len(eps) == 1


def test_default_suite_small_cones():
    # every hyperquadric with cone dimension <= 6 in the default sweep:
    # all constant spinors are Killing at the detected sign
    for cone in [
        Signature(3, 0),
        Signature(4, 0),
        Signature(5, 0),
        Signature(6, 0),
        Signature(3, 1),
        Signature(2, 2),
        Signature(1, 3),
        Signature(2, 3),
    ]:
        model = HyperquadricModel(cone, num_samples=4, step=1e-4)
        fields = [ConstantSpinorField(column) for column in np.eye(model.N)]
        for i, rep in enumerate(killing_residual(model, fields)):
            assert rep.residual < 1e-6, (str(cone), i)


def test_connection_clifford_compatibility(sphere):
    # Leibniz rule for the intrinsic Clifford action: differentiating the
    # field y -> gamma^M_(e_j(y)) s(y) must match gamma^M of the projected
    # frame derivative plus the action on nabla s; this probes the
    # connection assembly independently of the Killing equation
    s = ConstantSpinorField(np.eye(4)[2])
    x = sphere.samples[1]
    patch = at_one_point(sphere.select_patch, x)
    frame = at_one_point(sphere.tangent_frame, x, patch)
    h = sphere.step
    for i in range(sphere.n):
        direction = frame[:, i]
        for j in range(sphere.n):

            def product_field(y):
                fr = at_one_point(sphere.tangent_frame, y, patch)
                return sphere.gamma_intrinsic(y, fr[:, j]) @ s.eval(sphere, y, patch)

            plus = product_field(sphere.curve(x, direction, h))
            minus = product_field(sphere.curve(x, direction, -h))
            d_field = (plus - minus) / (2.0 * h)
            cone = at_one_point(sphere.cone_frame, x, patch)
            omega = at_one_point(spin_connection, sphere, cone, direction, patch)
            lhs = d_field + omega @ product_field(x)
            fp = at_one_point(sphere.tangent_frame, sphere.curve(x, direction, h), patch)
            fm = at_one_point(sphere.tangent_frame, sphere.curve(x, direction, -h), patch)
            de = sphere.tangent_projector(x) @ ((fp[:, j] - fm[:, j]) / (2.0 * h))
            rhs = sphere.gamma_intrinsic(x, de) @ s.eval(sphere, x, patch)
            rhs = rhs + sphere.gamma_intrinsic(x, frame[:, j]) @ covariant_derivative(
                sphere, s, x, direction, patch
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_intrinsic_form_types(sphere):
    point = sphere.sample_points(1)[0]
    assert _intrinsic_tau(sphere.form_matrix, point) == -1.0


def test_kappa_product_lambda_zero_logged():
    # the joint kernel at lambda = 0 bounds the parallel spinors of the
    # product, and S^2 x S^2 has none
    bound = kappa_upper_bound(Signature(4, 0), (2, 2), 0)
    print(f"parallel-spinor bound on the sphere product: {bound}")
    assert bound == 0


def test_convergence_second_order():
    s = ConstantSpinorField(np.eye(4)[0])
    coarse = HyperquadricModel(Signature(3, 0), num_samples=4, step=1e-2)
    fine = HyperquadricModel(Signature(3, 0), num_samples=4, step=5e-3)
    (r_coarse,) = killing_residual(coarse, [s], 0.5)
    (r_fine,) = killing_residual(fine, [s], 0.5)
    assert r_coarse.residual / r_fine.residual >= 3.0
    assert r_coarse.dirac_residual / r_fine.dirac_residual >= 3.0


def test_zero_step_fails_closed():
    # step 0 makes every central difference 0/0; the NaN residuals must
    # fail, not vanish in the max reduction
    model = HyperquadricModel(Signature(3, 0), num_samples=4, step=0.0)
    s = ConstantSpinorField(np.eye(model.N)[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        (report,) = killing_residual(model, [s])
    assert not report.residual < 1e-6
    assert not report.dirac_residual < 1e-6


class _LinearField:
    """arange(N) scaled by the first cone coordinate: not a Killing field."""

    def eval(self, model, y, patch):
        return np.arange(model.N) * y[0]


def test_empty_sample_set_fails_closed():
    with pytest.raises(ValueError, match="at least one sample point"):
        HyperquadricModel(Signature(3, 0), num_samples=0)
    model = HyperquadricModel(Signature(3, 0), num_samples=4)
    field = _LinearField()
    assert not killing_residual(model, [field])[0].residual < 1e-6
    # with its sample set emptied the model still cannot rate the field 0.0
    model.samples = []
    (report,) = killing_residual(model, [field])
    assert report.residual == report.dirac_residual == np.inf


def test_killing_residual_of_no_fields_is_no_reports():
    model = HyperquadricModel(Signature(3, 0), num_samples=4)
    assert killing_residual(model, []) == []
    assert killing_residual(model, [], 0.5) == []
    model.samples = []  # no fields and no points: still no reports
    assert killing_residual(model, []) == []


def test_a_model_without_sample_points_is_refused():
    for count in (0, -1):
        with pytest.raises(ValueError, match="at least one sample point"):
            HyperquadricModel(Signature(2, 1), num_samples=count)


def test_spin_connection_built_once_per_sample_and_direction(monkeypatch, capsys):
    # the batched builder returns one matrix per row it is given; over a
    # whole model-verify its rows are each sample point once per frame
    # direction, in sample order, whatever the number of fields
    from spinorlab import model_space
    from spinorlab.cli import main

    built = []
    original = model_space.spin_connection

    def counting(model, frames, directions, patches):
        omegas = original(model, frames, directions, patches)
        built.append((model, frames[:, :, 0], directions, len(omegas)))
        return omegas

    monkeypatch.setattr(model_space, "spin_connection", counting)
    for cone, samples in (("3,0", 4), ("4,1", 3)):
        built.clear()
        assert main(["model-verify", "--cone", cone, "--samples", str(samples)]) == 0
        capsys.readouterr()
        (model, xs, directions, count), = built
        assert count == samples * model.n  # samples x frame directions, for all N fields
        points = model.sample_points()
        assert np.array_equal(xs, np.repeat([point.x for point in points], model.n, axis=0))
        assert np.array_equal(directions, np.concatenate([point.frame.T for point in points]))


def test_each_sample_build_makes_three_batched_frame_calls(monkeypatch):
    # the patch trials, the frames at the points and the frames one step
    # either side: three Gram-Schmidt calls per build, not one per point
    calls = []
    original = HyperquadricModel._orthonormalize

    def counting(self, ys, drops):
        calls.append(len(ys))
        return original(self, ys, drops)

    monkeypatch.setattr(HyperquadricModel, "_orthonormalize", counting)
    for cone, samples in ((Signature(3, 0), 4), (Signature(4, 1), 16), (Signature(2, 2), 1)):
        model = HyperquadricModel(cone, num_samples=samples)
        calls.clear()
        model.sample_points()
        dim, n = model.dim, model.n
        assert calls == [samples * dim, samples, 2 * samples * n]
        model.sample_points()  # built once
        assert len(calls) == 3
    model = HyperquadricModel(Signature(4, 1), num_samples=16)
    calls.clear()
    model.sample_points(5)
    model.sample_points()  # the eleven missing points in one more build
    assert calls == [5 * 5, 5, 2 * 5 * 4, 11 * 5, 11, 2 * 11 * 4]


def test_one_killing_residual_call_per_model_verify(monkeypatch, capsys):
    # all N fields, both candidate Killing numbers and the Dirac residuals
    # share one array sweep
    from spinorlab import cli, model_space

    calls = []
    original = model_space.killing_residual

    def counting(model, fields, killing_number=None):
        calls.append(len(fields))
        return original(model, fields, killing_number)

    monkeypatch.setattr(model_space, "killing_residual", counting)
    assert cli.main(["model-verify", "--cone", "3,0", "--samples", "4"]) == 0
    assert cli.main(["model-verify", "--cone", "4,1", "--samples", "2", "--lambda-sign", "-1"]) == 1
    capsys.readouterr()
    assert calls == [4, 8]  # one call with all N fields per command


def test_table_residuals_match_public_derivative_bit_for_bit():
    model = HyperquadricModel(Signature(4, 1), num_samples=4, step=1e-4)

    def direct(field, lam):
        killing, dirac = 0.0, 0.0
        eta = model.base_signature.eta()
        for x in model.samples:
            patch = at_one_point(model.select_patch, x)
            frame = at_one_point(model.tangent_frame, x, patch)
            s_here = field.eval(model, x, patch)
            d_sum = np.zeros(model.N)
            for i in range(model.n):
                gamma = model.gamma_intrinsic(x, frame[:, i])
                nabla = covariant_derivative(model, field, x, frame[:, i], patch)
                killing = max(killing, float(np.max(np.abs(nabla - lam * gamma @ s_here))))
                d_sum += eta[i] * gamma @ nabla
            dirac = max(dirac, float(np.max(np.abs(d_sum + model.n * lam * s_here))))
        return killing, dirac

    for field in (
        ConstantSpinorField(np.eye(model.N)[0]),
        VolumeFlippedField(ConstantSpinorField(np.eye(model.N)[1])),
    ):
        (report,) = killing_residual(model, [field])
        lam = report.killing_number
        assert (report.residual, report.dirac_residual) == direct(field, lam)
        assert killing_residual(model, [field], -lam)[0].residual == direct(field, -lam)[0]


def test_float_clifford_data_is_the_dense_conversion_bit_for_bit():
    # the bivector table holds the SignedPerm products G_i G_j, i < j, and
    # the form is scattered from its SignedPerm; the float64 bytes equal
    # those of the dense exact matrix
    def from_dense(m):
        return np.array([[float(x) for x in row] for row in dense(m).data], dtype=float)

    for sig in (Signature(1, 0), Signature(3, 0), Signature(2, 2), Signature(5, 3)):
        model = HyperquadricModel(sig, num_samples=1)
        rep = build_rep(sig)
        gens = rep.generators
        pairs = [(i, j) for i in range(sig.n) for j in range(i + 1, sig.n)]
        assert list(zip(*model.pairs)) == pairs
        assert model.pair_perms.shape == model.pair_signs.shape == (len(pairs), rep.N)
        for k, (i, j) in enumerate(pairs):
            product = gens[i] * gens[j]
            assert model.pair_perms[k].tolist() == product.perm.tolist()
            assert model.pair_signs[k].tobytes() == product.signs.astype(float).tobytes()
        got, want = model.form_matrix, from_dense(first_nondegenerate(rep).matrix)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cone", [(3, 0), (2, 2), (4, 1), (5, 3), (5, 4), (7, 5)])
def test_bivector_scatter_matches_dense_oracles(cone):
    # Omega and gamma^M of the sample table against their dense assembly
    # from float generator products, at every direction of two samples
    model = HyperquadricModel(Signature(*cone), num_samples=2)
    for point in model.sample_points():
        frame = at_one_point(model.cone_frame, point.x, point.patch)
        for e, omega, gamma in zip(point.frame.T, point.omegas, point.gammas):
            want = dense_spin_connection(model, frame, e, point.patch)
            assert np.max(np.abs(omega - want)) < 1e-12
            want = dense_gamma_intrinsic(model, point.x, e)
            assert np.max(np.abs(gamma - want)) < 1e-12


@pytest.mark.parametrize("cone", [(4, 1), (2, 2), (5, 3)])
def test_one_sweep_for_all_fields_matches_one_field_sweeps(cone):
    # unit fields make every product with Omega and gamma^M exact, so the
    # Killing residuals agree bit for bit; the Dirac sum multiplies
    # general nabla columns, whose matrix products may round differently
    model = HyperquadricModel(Signature(*cone), num_samples=4)
    fields = [ConstantSpinorField(column) for column in np.eye(model.N)]
    for field, batched in zip(fields, killing_residual(model, fields), strict=True):
        (alone,) = killing_residual(model, [field])
        assert batched.killing_number == alone.killing_number
        assert batched.residual == alone.residual
        assert abs(batched.dirac_residual - alone.dirac_residual) < 1e-12


def test_mixed_fields_keep_their_own_verdicts(sphere):
    fields = [
        ConstantSpinorField(np.eye(4)[0]),
        VolumeFlippedField(ConstantSpinorField(np.eye(4)[1])),
        _LinearField(),
    ]
    reports = killing_residual(sphere, fields)
    verdicts = [(rep.killing_number, rep.residual < 1e-6) for rep in reports]
    assert verdicts == [(0.5, True), (-0.5, True), (verdicts[2][0], False)]
    for field, rep in zip(fields, reports, strict=True):
        (alone,) = killing_residual(sphere, [field])
        assert (alone.killing_number, alone.residual < 1e-6) == (
            rep.killing_number,
            rep.residual < 1e-6,
        )
        assert (alone.dirac_residual < 1e-5) == (rep.dirac_residual < 1e-5)


def test_zero_step_and_empty_samples_fail_every_field_closed():
    fields = [ConstantSpinorField(np.eye(4)[0]), _LinearField(), ConstantSpinorField(np.zeros(4))]
    model = HyperquadricModel(Signature(3, 0), num_samples=4, step=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        reports = killing_residual(model, fields)
    assert all(rep.residual == rep.dirac_residual == np.inf for rep in reports)
    model = HyperquadricModel(Signature(3, 0), num_samples=4)
    model.samples = []
    for lam in (None, 0.5):
        reports = killing_residual(model, fields, lam)
        assert len(reports) == 3
        assert all(rep.residual == rep.dirac_residual == np.inf for rep in reports)


def test_batched_frames_match_the_per_point_oracle():
    # every cone with p + q <= 10: at 4 samples and at their points one
    # step either side along each frame direction, the same patch as the
    # per-drop loop and frames within 1e-12 of per-point Gram-Schmidt
    cones = [Signature(p, n - p) for n in range(2, 11) for p in range(1, n + 1)]
    assert len(cones) == 54
    for cone in cones:
        model = HyperquadricModel(cone, num_samples=4)
        xs = np.array(model.samples)
        patches = model.select_patch(xs)
        assert patches == [select_patch_oracle(model, x) for x in xs], str(cone)
        frames = model.tangent_frame(xs, patches)
        for x, patch, frame in zip(xs, patches, frames):
            assert np.max(np.abs(frame - tangent_frame_oracle(model, x, patch))) < 1e-12
            ends = np.concatenate(
                [model.curve(x, frame.T, model.step), model.curve(x, frame.T, -model.step)]
            )
            assert model.select_patch(ends) == [select_patch_oracle(model, y) for y in ends]
            got = model.tangent_frame(ends, [patch] * len(ends))
            for y, frame_y in zip(ends, got):
                want = tangent_frame_oracle(model, y, patch)
                assert np.max(np.abs(frame_y - want)) < 1e-12, str(cone)


def test_single_points_are_batches_of_one_bit_for_bit():
    model = HyperquadricModel(Signature(5, 3), num_samples=6)
    xs = np.array(model.samples)
    patches = model.select_patch(xs)
    frames = model.tangent_frame(xs, patches)
    for x, patch, frame in zip(xs, patches, frames):
        assert at_one_point(model.select_patch, x) == patch
        assert at_one_point(model.tangent_frame, x, patch).tobytes() == frame.tobytes()
        cone = at_one_point(model.cone_frame, x, patch)
        cones = np.repeat(cone[None], model.n, axis=0)
        omegas = spin_connection(model, cones, frame.T, [patch] * model.n)
        for e, omega in zip(frame.T, omegas):
            single = at_one_point(spin_connection, model, cone, e, patch)
            assert single.tobytes() == omega.tobytes()


def test_planted_frames_raise_the_oracle_errors():
    # (1, 1, 1) on the (2, 1) cone has a zero first pivot in every patch:
    # the first kept projector column is null whichever coordinate drops
    model = HyperquadricModel(Signature(2, 1), num_samples=2)
    bad = np.array([1.0, 1.0, 1.0])
    good = model.samples[0]
    for drop in range(3):
        patch = (drop, (0, 1))
        with pytest.raises(ArithmeticError, match="frame degenerated inside its patch"):
            tangent_frame_oracle(model, bad, patch)
        with pytest.raises(ArithmeticError, match="frame degenerated inside its patch"):
            at_one_point(model.tangent_frame, bad, patch)
    with pytest.raises(ArithmeticError, match="no usable frame patch"):
        select_patch_oracle(model, bad)
    with pytest.raises(ArithmeticError, match="no usable frame patch"):
        at_one_point(model.select_patch, bad)
    for points in (np.array([good, bad]), np.array([bad, good, good])):
        with pytest.raises(ArithmeticError, match="no usable frame patch"):
            model.select_patch(points)
    # a stack mixing good rows and a degenerate row
    patch = at_one_point(model.select_patch, good)
    with pytest.raises(ArithmeticError, match="frame degenerated inside its patch"):
        model.tangent_frame(np.array([good, bad, good]), [patch, (0, (0, 1)), patch])
    # a sign-sorting order that does not match the base, alone and in a stack
    model = HyperquadricModel(Signature(2, 2), num_samples=2)
    x, y = model.samples
    patch = at_one_point(model.select_patch, x)
    flipped = (patch[0], patch[1][::-1])
    with pytest.raises(ArithmeticError, match="sign pattern does not match the base"):
        tangent_frame_oracle(model, x, flipped)
    with pytest.raises(ArithmeticError, match="sign pattern does not match the base"):
        at_one_point(model.tangent_frame, x, flipped)
    with pytest.raises(ArithmeticError, match="sign pattern does not match the base"):
        model.tangent_frame(np.array([y, x]), [at_one_point(model.select_patch, y), flipped])
    with pytest.raises(ValueError, match="tangent"):
        cones = np.array([at_one_point(model.cone_frame, x, patch)] * 2)
        spin_connection(model, cones, np.array([x, x]), [patch] * 2)


def test_worst_rows_take_the_first_worst_and_fail_closed():
    values, rows = _worst_rows([[1.0, 2.0, 0.5], [3.0, 2.0, 0.5], [3.0, 1.0, 0.25]], 3)
    assert (values, rows) == ([3.0, 2.0, 0.5], [1, 0, 0])  # ties: the first row
    nan, inf = float("nan"), float("inf")
    values, rows = _worst_rows([[5.0, 1.0, 9.0], [nan, inf, 1.0], [inf, nan, nan]], 3)
    assert (values, rows) == ([inf, inf, inf], [1, 1, 2])  # any non-finite value wins
    assert _worst_rows(np.empty((0, 2)), 2) == ([inf, inf], [None, None])


class _NanNearField:
    """_LinearField, with NaN values within 1e-3 of one point."""

    def __init__(self, point):
        self.point = point

    def eval(self, model, y, patch):
        if np.max(np.abs(y - self.point)) < 1e-3:
            return np.full(model.N, np.nan)
        return _LinearField().eval(model, y, patch)


def test_killing_report_names_the_worst_sample_and_direction():
    model = HyperquadricModel(Signature(4, 1), num_samples=4, step=1e-4)
    for field in (_LinearField(), VolumeFlippedField(ConstantSpinorField(np.eye(model.N)[1]))):
        (report,) = killing_residual(model, [field])
        lam = report.killing_number
        residuals = []
        for x in model.samples:
            patch = at_one_point(model.select_patch, x)
            frame = at_one_point(model.tangent_frame, x, patch)
            s_here = field.eval(model, x, patch)
            for i in range(model.n):
                gamma = model.gamma_intrinsic(x, frame[:, i])
                nabla = covariant_derivative(model, field, x, frame[:, i], patch)
                residuals.append(float(np.max(np.abs(nabla - lam * gamma @ s_here))))
        worst = int(np.argmax(residuals))
        assert (report.worst_sample, report.worst_direction) == divmod(worst, model.n)
        assert report.residual == residuals[worst]
    # a non-finite residual at sample 2 beats larger finite ones elsewhere
    (report,) = killing_residual(model, [_NanNearField(model.samples[2])])
    assert report.residual == np.inf
    assert (report.worst_sample, report.worst_direction) == (2, 0)
    model.samples = []
    (report,) = killing_residual(model, [_LinearField()])
    assert (report.worst_sample, report.worst_direction) == (None, None)


def test_killing_pass_matches_the_per_point_oracle_on_every_cone():
    # every cone with p + q <= 10 at 4 samples, all N unit fields, the
    # auto-detected and a fixed Killing number: the array pass gives the
    # per-point, per-direction loop's reports bit for bit; so it does for
    # general constant fields, whose products round
    rng = np.random.default_rng(7)
    cones = [Signature(p, n - p) for n in range(2, 11) for p in range(1, n + 1)]
    assert len(cones) == 54
    for cone in cones:
        model = HyperquadricModel(cone, num_samples=4)
        fields = [ConstantSpinorField(column) for column in np.eye(model.N)]
        general = [ConstantSpinorField(rng.standard_normal(model.N)) for _ in range(2)]
        for batch, lam in ((fields, None), (fields, 0.5), (general, None)):
            got = killing_residual(model, batch, lam)
            assert got == killing_residual_oracle(model, batch, lam), (str(cone), lam)


@pytest.mark.parametrize("cone", [(3, 0), (2, 2), (4, 1), (5, 3)])
def test_bracket_span_and_curvature_match_the_per_point_oracles(cone):
    model = HyperquadricModel(Signature(*cone), num_samples=12)
    s, t = (ConstantSpinorField(np.eye(model.N)[k]) for k in (0, 1))
    assert homogeneity_span(model, [s, t]) == homogeneity_span_oracle(model, [s, t])
    for lam in (0.5, -0.5):
        got = scalar_curvature_residual(model, lam)
        assert got == scalar_curvature_residual_oracle(model, lam)
    # held to 1e-12, not to the bit: a reordered batched sum would move
    # the last bits of these differences over 2h
    got, want = bracket_field_checks(model, s, t), bracket_field_checks_oracle(model, s, t)
    for name in ("conformal_residual", "killing_vector_residual", "geodesic_residual"):
        assert abs(getattr(got, name) - getattr(want, name)) < 1e-12, name


def test_bracket_span_and_curvature_fail_closed():
    s, t = ConstantSpinorField(np.eye(4)[0]), ConstantSpinorField(np.eye(4)[1])
    model = HyperquadricModel(Signature(3, 0), num_samples=4, step=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        report = bracket_field_checks(model, s, t)
        assert scalar_curvature_residual(model, 0.5) == np.inf
    assert report == BracketFieldReport(np.inf, np.inf, np.inf)
    model = HyperquadricModel(Signature(3, 0), num_samples=4)
    model.samples = []
    assert bracket_field_checks(model, s, t) == BracketFieldReport(np.inf, np.inf, np.inf)
    assert scalar_curvature_residual(model, 0.5) == np.inf
    assert homogeneity_span(model, [s, t]) == []


def test_homogeneity_span_of_no_fields_is_zero_at_each_point():
    # the span of no brackets, at every one of the sample points
    model = HyperquadricModel(Signature(3, 0), num_samples=3)
    assert homogeneity_span(model, []) == [0, 0, 0]
    model = HyperquadricModel(Signature(2, 2), num_samples=2)
    assert homogeneity_span(model, []) == [0, 0]


def test_homogeneity_span_fails_closed_on_non_finite_values():
    # a point whose bracket matrix holds a NaN or inf gets dimension -1,
    # which no check accepts, where the SVD would raise LinAlgError; the
    # other points keep the oracle's dimensions
    model = HyperquadricModel(Signature(3, 0), num_samples=8)
    s = ConstantSpinorField(np.eye(model.N)[0])
    for bad in (np.nan, np.inf):
        t = ConstantSpinorField(np.full(model.N, bad))
        with np.errstate(invalid="ignore", over="ignore"):
            assert homogeneity_span(model, [s, t]) == [-1] * 8
            assert homogeneity_span(model, [t]) == [-1] * 8
    want = homogeneity_span_oracle(model, [s, _LinearField()])
    with np.errstate(invalid="ignore"):
        got = homogeneity_span(model, [s, _NanNearField(model.samples[2])])
    assert got == want[:2] + [-1] + want[3:]
    assert homogeneity_span(model, [s, _LinearField()]) == want


class _CountingField(ConstantSpinorField):
    def __init__(self, column, calls):
        super().__init__(column)
        self.calls = calls

    def eval(self, model, y, patch):
        self.calls.append(self)
        return super().eval(model, y, patch)


def test_residual_checks_make_one_frame_call_once_the_table_is_built(monkeypatch):
    frame_calls = []
    original = HyperquadricModel._orthonormalize

    def counting(self, ys, drops):
        frame_calls.append(len(ys))
        return original(self, ys, drops)

    monkeypatch.setattr(HyperquadricModel, "_orthonormalize", counting)
    for cone, samples in ((Signature(3, 0), 4), (Signature(4, 1), 16), (Signature(2, 2), 32)):
        model = HyperquadricModel(cone, num_samples=samples)
        model.sample_points()
        evals = []
        fields = [_CountingField(column, evals) for column in np.eye(model.N)]
        frame_calls.clear()
        killing_residual(model, fields)
        assert frame_calls == []
        assert all(evals.count(f) == (1 + 2 * model.n) * samples for f in fields)
        bracket_field_checks(model, fields[0], fields[1])
        assert len(frame_calls) == 1
        scalar_curvature_residual(model, 0.5)
        assert len(frame_calls) == 2


def test_benchmark_counted_methods_are_stack_methods_of_the_model():
    # the benchmark's tracer looks these names up on HyperquadricModel with
    # getattr; a rename or a single-point signature breaks every traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    model = HyperquadricModel(Signature(4, 1), num_samples=3)
    xs = np.array(model.samples)
    patches = model.select_patch(xs)
    stacks = {"select_patch": (xs,), "tangent_frame": (xs, patches)}
    assert tracer._COUNTED_METHODS
    for name in tracer._COUNTED_METHODS:
        method = getattr(HyperquadricModel, name, None)
        assert inspect.isfunction(method), name
        assert len(method(model, *stacks[name])) == len(xs), name
