import numpy as np
import pytest

from spinorlab.clifford_core import Signature
from spinorlab.model_space import (
    ConstantCurvatureFrameModel,
    ConstantSpinorField,
    HyperquadricModel,
    SphereProductModel,
    bracket_field_checks,
    frame_rotation_rates,
    homogeneity_span,
    kappa_upper_bound,
    killing_residual,
    scalar_curvature_residual,
    spin_connection,
)


class VolumeFlippedField:
    """The intrinsic volume element applied to another field; flips the
    Killing number by (-1)^(n+1)."""

    def __init__(self, inner):
        self.inner = inner

    def eval(self, model, y, patch):
        frame = model.tangent_frame(y, patch)
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
    omega = spin_connection(model, x, direction, patch)
    return (plus - minus) / (2.0 * h) + omega @ field.eval(model, x, patch)


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


def test_frames_orthonormal(sphere, pseudo_sphere):
    for model in (sphere, pseudo_sphere):
        x = model.samples[0]
        patch = model.select_patch(x)
        frame = model.tangent_frame(x, patch)
        eta = model.base_signature.eta()
        for i in range(model.n):
            assert abs(model.g_hat(frame[:, i], x)) < 1e-12
            for j in range(model.n):
                want = eta[i] if i == j else 0.0
                assert abs(model.g_hat(frame[:, i], frame[:, j]) - want) < 1e-10


def test_rotation_rates_antisymmetric(sphere):
    x = sphere.samples[0]
    patch = sphere.select_patch(x)
    frame = sphere.tangent_frame(x, patch)
    lam, _ = frame_rotation_rates(sphere, x, frame[:, 0], patch)
    assert np.max(np.abs(lam + lam.T)) < 1e-8


def test_spin_connection_rejects_non_tangent(sphere):
    x = sphere.samples[0]
    with pytest.raises(ValueError):
        spin_connection(sphere, x, x)


def test_constant_field_flat_along_rays(sphere):
    # ambient differences of a constant spinor along the radial line vanish
    s = ConstantSpinorField(np.eye(4)[0])
    x = sphere.samples[0]
    patch = sphere.select_patch(x)
    h = sphere.step
    plus = s.eval(sphere, (1 + h) * x, patch)
    minus = s.eval(sphere, (1 - h) * x, patch)
    assert np.max(np.abs((plus - minus) / (2 * h))) == 0.0


def test_all_constant_spinors_killing_on_sphere(sphere):
    passing = 0
    for i in range(sphere.N):
        rep = killing_residual(sphere, ConstantSpinorField(np.eye(sphere.N)[i]))
        if rep.residual < 1e-6:
            passing += 1
        assert rep.residual_opposite > 0.1
    assert passing == 4


def test_epsilon_detection_stable(sphere):
    eps = {killing_residual(sphere, ConstantSpinorField(np.eye(4)[i])).killing_number for i in range(4)}
    assert len(eps) == 1


def test_dirac_on_sphere(sphere):
    s = ConstantSpinorField(np.eye(4)[0])
    rep = killing_residual(sphere, s)
    assert rep.dirac_residual < 1e-5
    zero = ConstantSpinorField(np.zeros(4))
    assert killing_residual(sphere, zero, 0.5).dirac_residual == 0.0


def test_volume_flip_reverses_killing_number(sphere):
    s = ConstantSpinorField(np.eye(4)[0])
    base = killing_residual(sphere, s)
    flipped = killing_residual(sphere, VolumeFlippedField(s))
    assert flipped.residual < 1e-6
    assert flipped.killing_number == -base.killing_number


def test_bracket_killing_vector_on_sphere(sphere):
    s = ConstantSpinorField(np.eye(4)[0])
    t = ConstantSpinorField(np.eye(4)[1])
    report = bracket_field_checks(
        sphere, s, t, k=1, tau_intrinsic=-1, lambda_s=0.5, lambda_t=0.5
    )
    assert report.conformal_residual < 1e-5
    assert report.killing_polyvector_residual < 1e-5
    assert report.killing_vector_residual < 1e-5
    assert report.geodesic_residual < 1e-5
    assert report.dirac_consistency_residual < 1e-5


def test_bracket_zero_fields(sphere):
    zero = ConstantSpinorField(np.zeros(4))
    report = bracket_field_checks(
        sphere, zero, zero, k=1, tau_intrinsic=-1, lambda_s=0.5, lambda_t=0.5
    )
    assert report.conformal_residual == 0.0
    assert report.geodesic_residual == 0.0


def test_bracket_degree_two_killing_case(sphere):
    # mu = (-1)^k tau lambda with k = 2, tau = -1 needs mu = -lambda: pair a
    # spinor with its volume flip
    s = ConstantSpinorField(np.eye(4)[0])
    report = bracket_field_checks(
        sphere, s, VolumeFlippedField(s), k=2, tau_intrinsic=-1, lambda_s=0.5, lambda_t=-0.5
    )
    assert report.killing_polyvector_residual < 1e-5


def test_homogeneity_span_sphere(sphere):
    fields = [ConstantSpinorField(np.eye(4)[i]) for i in range(4)]
    assert homogeneity_span(sphere, fields) == [2] * len(sphere.samples[:8])


def test_single_pair_span_nonzero(sphere):
    fields = [ConstantSpinorField(np.eye(4)[0]), ConstantSpinorField(np.eye(4)[1])]
    dims = homogeneity_span(sphere, fields)
    assert all(d >= 1 for d in dims)


def test_pseudo_sphere_killing_and_span(pseudo_sphere):
    fields = []
    for i in range(4):
        s = ConstantSpinorField(np.eye(4)[i])
        rep = killing_residual(pseudo_sphere, s)
        assert rep.residual < 1e-6
        fields.append(s)
    dims = homogeneity_span(pseudo_sphere, fields)
    assert dims == [3] * len(dims)


def test_kappa_bounds():
    assert kappa_upper_bound(ConstantCurvatureFrameModel(Signature(2, 0)), 0.5) == 4
    assert kappa_upper_bound(SphereProductModel(2, 2), 0.5) == 0


def test_scalar_curvature(sphere):
    assert scalar_curvature_residual(sphere, 0.5) < 1e-6


def test_epsilon_stable_across_steps():
    s = ConstantSpinorField(np.eye(4)[0])
    eps = set()
    for h in (1e-3, 1e-4):
        model = HyperquadricModel(Signature(3, 0), num_samples=4, step=h)
        eps.add(killing_residual(model, s).killing_number)
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
        for i in range(model.N):
            rep = killing_residual(model, ConstantSpinorField(np.eye(model.N)[i]))
            assert rep.residual < 1e-6, (str(cone), i)


def test_connection_clifford_compatibility(sphere):
    # Leibniz rule for the intrinsic Clifford action: differentiating the
    # field y -> gamma^M_(e_j(y)) s(y) must match gamma^M of the projected
    # frame derivative plus the action on nabla s; this probes the
    # connection assembly independently of the Killing equation
    s = ConstantSpinorField(np.eye(4)[2])
    x = sphere.samples[1]
    patch = sphere.select_patch(x)
    frame = sphere.tangent_frame(x, patch)
    h = sphere.step
    for i in range(sphere.n):
        direction = frame[:, i]
        for j in range(sphere.n):

            def product_field(y):
                fr = sphere.tangent_frame(y, patch)
                return sphere.gamma_intrinsic(y, fr[:, j]) @ s.eval(sphere, y, patch)

            plus = product_field(sphere.curve(x, direction, h))
            minus = product_field(sphere.curve(x, direction, -h))
            d_field = (plus - minus) / (2.0 * h)
            omega = spin_connection(sphere, x, direction, patch)
            lhs = d_field + omega @ product_field(x)
            fp = sphere.tangent_frame(sphere.curve(x, direction, h), patch)
            fm = sphere.tangent_frame(sphere.curve(x, direction, -h), patch)
            de = sphere.tangent_projector(x) @ ((fp[:, j] - fm[:, j]) / (2.0 * h))
            rhs = sphere.gamma_intrinsic(x, de) @ s.eval(sphere, x, patch)
            rhs = rhs + sphere.gamma_intrinsic(x, frame[:, j]) @ covariant_derivative(
                sphere, s, x, direction, patch
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_bracket_conformal_with_type_plus_form(sphere):
    # same Killing numbers against a type +1 intrinsic form: not a Killing
    # vector, but still conformal with omega_tilde = -2 lambda h(s,t)
    s = ConstantSpinorField(np.eye(4)[0])
    t = ConstantSpinorField(np.eye(4)[1])
    report = bracket_field_checks(
        sphere, s, t, k=1, tau_intrinsic=1, lambda_s=0.5, lambda_t=0.5
    )
    assert report.conformal_residual < 1e-5
    assert report.dirac_consistency_residual < 1e-5


def test_intrinsic_form_types(sphere):
    from spinorlab.model_space import _intrinsic_tau

    point = sphere.sample_points(1)[0]
    assert _intrinsic_tau(sphere.cone_form(-1), point) == -1.0
    assert _intrinsic_tau(sphere.cone_form(1), point) == 1.0


def test_kappa_product_lambda_zero_logged():
    # no assertion on the value beyond consistency: the joint kernel at
    # lambda = 0 bounds the parallel spinors of the product
    bound = kappa_upper_bound(SphereProductModel(2, 2), 0.0)
    print(f"parallel-spinor bound on the sphere product: {bound}")
    assert bound >= 0


def test_convergence_second_order():
    s = ConstantSpinorField(np.eye(4)[0])
    coarse = HyperquadricModel(Signature(3, 0), num_samples=4, step=1e-2)
    fine = HyperquadricModel(Signature(3, 0), num_samples=4, step=5e-3)
    r_coarse = killing_residual(coarse, s, 0.5)
    r_fine = killing_residual(fine, s, 0.5)
    assert r_coarse.residual / r_fine.residual >= 3.0
    assert r_coarse.dirac_residual / r_fine.dirac_residual >= 3.0


def test_zero_step_fails_closed():
    # step 0 makes every central difference 0/0; the NaN residuals must
    # fail, not vanish in the max reduction
    model = HyperquadricModel(Signature(3, 0), num_samples=4, step=0.0)
    s = ConstantSpinorField(np.eye(model.N)[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        report = killing_residual(model, s)
    assert not report.residual < 1e-6
    assert not report.dirac_residual < 1e-6


def test_spin_connection_built_once_per_sample_and_direction(monkeypatch, capsys):
    from spinorlab import model_space
    from spinorlab.cli import main

    calls = []
    original = model_space.spin_connection

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(model_space, "spin_connection", counting)
    assert main(["model-verify", "--cone", "3,0", "--samples", "4"]) == 0
    capsys.readouterr()
    assert len(calls) == 4 * 2  # samples x frame directions, for all N fields


def test_one_covariant_sweep_per_field(monkeypatch, capsys):
    # the Killing and Dirac residuals of a field share one nabla sweep
    from spinorlab import model_space
    from spinorlab.cli import main

    sweeps = []
    original = model_space._covariant_sweep

    def counting(model, field):
        sweeps.append(field)
        return original(model, field)

    monkeypatch.setattr(model_space, "_covariant_sweep", counting)
    assert main(["model-verify", "--cone", "3,0", "--samples", "4"]) == 0
    capsys.readouterr()
    assert len(sweeps) == 4  # N = 4 fields


def test_table_residuals_match_public_derivative_bit_for_bit():
    model = HyperquadricModel(Signature(4, 1), num_samples=4, step=1e-4)

    def direct(field, lam):
        killing, dirac = 0.0, 0.0
        eta = model.base_signature.eta()
        for x in model.samples:
            patch = model.select_patch(x)
            frame = model.tangent_frame(x, patch)
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
        report = killing_residual(model, field)
        lam = report.killing_number
        assert (report.residual, report.dirac_residual) == direct(field, lam)
        assert report.residual_opposite == direct(field, -lam)[0]
