"""Floating-point verification on model hyperquadrics.

The model space is the unit level set {g(x,x) = 1} inside a flat cone
R^(P,Q); constant spinor fields on the cone are parallel, and their
restrictions are checked against the Killing equation through an
independently assembled numeric spin connection: smooth local
orthonormal frames, frame-rotation rates by central differences, and
the quarter-sum bivector term.  Clifford data (cone generators, the
intrinsic action gamma^M_X = gamma_X gamma_x, admissible forms) comes
from the exact modules, converted to float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissible_forms import find_admissible
from .clifford_core import Polyvector, Signature, blade_index_list, build_rep
from .exact_linalg import Matrix


def _to_numpy(m: Matrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m.data], dtype=float)


def _halton(index, base):
    out, f = 0.0, 1.0
    while index > 0:
        f /= base
        out += f * (index % base)
        index //= base
    return out


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _worst(values) -> float:
    """Largest of non-negative residuals, failing closed: a NaN or
    infinite residual makes the result inf, which no tolerance passes."""
    values = [float(v) for v in values]
    if not all(math.isfinite(v) for v in values):
        return math.inf
    return max(values, default=0.0)


@dataclass(frozen=True)
class SamplePoint:
    """Geometry at one sample point x: its frame patch and tangent frame,
    and per frame direction e_i the spin connection Omega(x, e_i) and the
    intrinsic action gamma^M_(e_i)."""

    x: np.ndarray
    patch: tuple
    frame: np.ndarray
    omegas: tuple
    gammas: tuple


class HyperquadricModel:
    """Unit hyperquadric of a flat cone with deterministic sample points.

    cone_signature: the ambient (P, Q); the base has signature (P-1, Q).
    """

    def __init__(self, cone_signature: Signature, num_samples=32, step=1e-4):
        if cone_signature.p < 1:
            raise ValueError("the cone needs a positive-norm direction")
        self.cone_signature = cone_signature
        self.base_signature = Signature(cone_signature.p - 1, cone_signature.q)
        self.step = step
        self.rep = build_rep(cone_signature)
        self.N = self.rep.N
        self.gammas = [_to_numpy(g.dense()) for g in self.rep.generators]
        self.eta_hat = np.array(cone_signature.eta(), dtype=float)
        self.dim = cone_signature.n
        self.n = cone_signature.n - 1
        self.samples = self._sample_points(num_samples)
        self._points = []  # SamplePoint of samples[k], built in sample order

    # -- geometry ---------------------------------------------------------

    def g_hat(self, x, y):
        return float(np.dot(x * self.eta_hat, y))

    def _sample_points(self, count):
        pts = []
        idx = 1
        while len(pts) < count:
            v = np.array(
                [2.0 * _halton(idx, _PRIMES[d]) - 1.0 for d in range(self.dim)]
            )
            idx += 1
            norm = self.g_hat(v, v)
            if norm > 0.3:
                pts.append(v / np.sqrt(norm))
        return pts

    def sample_points(self, count=None):
        """The SamplePoint of each of samples[:count], built on first use
        and shared by every field, candidate lambda and residual sweep."""
        wanted = len(self.samples[:count])
        while len(self._points) < wanted:
            x = self.samples[len(self._points)]
            patch = self.select_patch(x)
            frame = self.tangent_frame(x, patch)
            directions = [frame[:, i] for i in range(self.n)]
            omegas = tuple(spin_connection(self, x, d, patch) for d in directions)
            gammas = tuple(self.gamma_intrinsic(x, d) for d in directions)
            self._points.append(SamplePoint(x, patch, frame, omegas, gammas))
        return self._points[:wanted]

    def curve(self, x, direction, t):
        """Point on the quadric with position x and velocity `direction`."""
        y = x + t * direction
        return y / np.sqrt(self.g_hat(y, y))

    def tangent_projector(self, x):
        return np.eye(self.dim) - np.outer(x, x * self.eta_hat)

    def select_patch(self, x):
        """Deterministic frame patch at x: the ambient coordinate to drop
        plus the sign-sorting permutation, chosen to maximize the smallest
        Gram-Schmidt pivot."""
        best = None
        for drop in range(self.dim):
            result = self._gram_schmidt(x, drop)
            if result is None:
                continue
            _, _, min_pivot = result
            if best is None or min_pivot > best[1]:
                best = (drop, min_pivot)
        if best is None or best[1] < 1e-8:
            raise ArithmeticError("no usable frame patch at this sample point")
        drop = best[0]
        _, signs, _ = self._gram_schmidt(x, drop)
        order = sorted(range(self.n), key=lambda i: (-signs[i], i))
        return (drop, tuple(order))

    def _gram_schmidt(self, y, drop):
        proj = self.tangent_projector(y)
        vecs = []
        signs = []
        min_pivot = np.inf
        for k in range(self.dim):
            if k == drop:
                continue
            u = proj[:, k].copy()
            for e, s in zip(vecs, signs):
                u -= s * self.g_hat(u, e) * e
            norm = self.g_hat(u, u)
            if abs(norm) < 1e-12:
                return None
            min_pivot = min(min_pivot, abs(norm))
            signs.append(1.0 if norm > 0 else -1.0)
            vecs.append(u / np.sqrt(abs(norm)))
        return vecs, signs, min_pivot

    def tangent_frame(self, y, patch):
        """Orthonormal tangent frame at y, ordered to match the base
        signature pattern (+1 x p, -1 x q); smooth in y within the patch."""
        drop, order = patch
        result = self._gram_schmidt(y, drop)
        if result is None:
            raise ArithmeticError("frame degenerated inside its patch")
        vecs, signs, _ = result
        frame = [vecs[i] for i in order]
        eta = [signs[i] for i in order]
        p = self.base_signature.p
        if not all(e > 0 for e in eta[:p]) or not all(e < 0 for e in eta[p:]):
            raise ArithmeticError("frame sign pattern does not match the base")
        return np.column_stack(frame)

    def cone_frame(self, y, patch):
        """Frame of the cone at y: the position vector then the tangent frame."""
        return np.column_stack([y, self.tangent_frame(y, patch)])

    # -- Clifford data ------------------------------------------------------

    def gamma_ambient(self, v):
        out = np.zeros((self.N, self.N))
        for c, g in zip(v, self.gammas):
            if c:
                out += c * g
        return out

    def gamma_intrinsic(self, x, v):
        """gamma^M_v = gamma_v gamma_x through the cone identification."""
        return self.gamma_ambient(v) @ self.gamma_ambient(x)

    def cone_form(self, tau_intrinsic=-1):
        """Matrix field H(x) of a parallel intrinsic admissible form.

        Any constant cone-admissible H gives intrinsic type -1; composing
        with gamma_x gives type +1.
        """
        forms = (
            form
            for sigma in (1, -1)
            for tau in (-1, 1)
            for form in find_admissible(self.rep, sigma, tau)
        )
        form = next(forms, None)
        if form is None:
            raise ArithmeticError("no nondegenerate cone form")
        h = _to_numpy(form.matrix.dense())
        if tau_intrinsic == -1:
            return lambda x: h
        return lambda x: h @ self.gamma_ambient(x)


class ConstantSpinorField:
    """The cone-spinor field with one constant column at every point; any
    object with this eval method is a spinor field."""

    def __init__(self, column):
        self.column = np.asarray(column, dtype=float)

    def eval(self, model, y, patch):
        return self.column


def frame_rotation_rates(model, x, direction, patch=None):
    """Lowered rotation-rate matrix of the cone-adapted frame along a
    tangent direction, by central differences; antisymmetric up to the
    truncation error."""
    if patch is None:
        patch = model.select_patch(x)
    h = model.step
    f0 = model.cone_frame(x, patch)
    fp = model.cone_frame(model.curve(x, direction, h), patch)
    fm = model.cone_frame(model.curve(x, direction, -h), patch)
    df = (fp - fm) / (2.0 * h)
    lam_low = f0.T @ np.diag(model.eta_hat) @ df
    return lam_low, f0


def spin_connection(model, x, direction, patch=None):
    """Connection matrix Omega with nabla_X phi = X(phi) + Omega phi for
    cone-spinor components phi in the constant ambient trivialization.

    Assembled from the frame rotation rates and the quarter-sum bivector
    terms: the full-frame term uses the ambient Clifford action, the
    tangential term the intrinsic action gamma^M.
    """
    if patch is None:
        patch = model.select_patch(x)
    if abs(model.g_hat(x, direction)) > 1e-9:
        raise ValueError("direction must be tangent to the hyperquadric")
    lam_low, f0 = frame_rotation_rates(model, x, direction, patch)
    lam_low = 0.5 * (lam_low - lam_low.T)
    eta_frame = np.concatenate([[1.0], np.array(model.base_signature.eta(), float)])
    n_tot = model.dim
    frame_gammas = [model.gamma_ambient(f0[:, a]) for a in range(n_tot)]
    mu_full = np.zeros((model.N, model.N))
    for a in range(n_tot):
        for b in range(n_tot):
            if a == b or lam_low[a, b] == 0.0:
                continue
            mu_full -= 0.25 * lam_low[a, b] * eta_frame[a] * eta_frame[b] * (
                frame_gammas[a] @ frame_gammas[b]
            )
    gamma_x = model.gamma_ambient(x)
    intrinsic = [frame_gammas[i + 1] @ gamma_x for i in range(model.n)]
    eta_base = eta_frame[1:]
    theta = np.zeros((model.N, model.N))
    for i in range(model.n):
        for j in range(model.n):
            if i == j:
                continue
            w = lam_low[i + 1, j + 1]
            if w:
                theta -= 0.25 * w * eta_base[i] * eta_base[j] * (
                    intrinsic[i] @ intrinsic[j]
                )
    return -mu_full + theta


def _field_derivative(model, field, x, direction, patch):
    h = model.step
    plus = field.eval(model, model.curve(x, direction, h), patch)
    minus = field.eval(model, model.curve(x, direction, -h), patch)
    return (plus - minus) / (2.0 * h)


def _nablas(model, field, point, s_here):
    """nabla_(e_i) s at a sample point for every frame direction e_i, with
    Omega read from the sample table; s_here is s at the point."""
    return [
        _field_derivative(model, field, point.x, point.frame[:, i], point.patch)
        + omega @ s_here
        for i, omega in enumerate(point.omegas)
    ]


def _covariant_sweep(model, field):
    """(point, s(x), [nabla_(e_i) s at x]) for every sample point."""
    sweep = []
    for point in model.sample_points():
        s_here = field.eval(model, point.x, point.patch)
        sweep.append((point, s_here, _nablas(model, field, point, s_here)))
    return sweep


@dataclass
class KillingReport:
    killing_number: float
    residual: float
    residual_opposite: float
    dirac_residual: float  # max over samples of |D s + n lambda s|


def killing_residual(model, field, killing_number=None) -> KillingReport:
    """max over samples and frame directions of |nabla_X s - lambda X s|,
    and from the same nabla sweep the Dirac residual at that lambda.

    With killing_number None the sign of lambda = +-1/2 is auto-detected
    per field by picking the smaller residual.
    """
    candidates = [killing_number] if killing_number is not None else [0.5, -0.5]
    sweep = _covariant_sweep(model, field)
    residuals = [
        _worst(
            np.max(np.abs(nabla - lam * gamma @ s_here))
            for point, s_here, nablas in sweep
            for nabla, gamma in zip(nablas, point.gammas)
        )
        for lam in candidates
    ]
    best = int(np.argmin(residuals))
    lam = candidates[best]
    dirac = _worst(
        np.max(np.abs(_dirac(model, point, nablas) + model.n * lam * s_here))
        for point, s_here, nablas in sweep
    )
    opposite = residuals[1 - best] if killing_number is None else float("nan")
    return KillingReport(lam, residuals[best], opposite, dirac)


def _dirac(model, point, nablas):
    """Frame Dirac sum sum_i eta_i gamma^M_(e_i) nabla_(e_i) at a sample point."""
    eta_base = model.base_signature.eta()
    dirac = np.zeros(model.N)
    for eta, gamma, nabla in zip(eta_base, point.gammas, nablas):
        dirac += eta * gamma @ nabla
    return dirac


# -- polyvector fields -------------------------------------------------------


def _frame_blades_to_ambient(model, frame, coeffs, k):
    """Expand frame-blade coefficients into an ambient degree-k polyvector."""
    n_amb = model.dim
    total = Polyvector.zero(n_amb, k)
    for indices, c in zip(blade_index_list(model.n, k), coeffs):
        if not c:
            continue
        if k == 0:
            total = total + Polyvector.scalar(n_amb, c)
            continue
        blade = Polyvector.from_vector(tuple(frame[:, indices[0]]))
        for idx in indices[1:]:
            blade = blade.wedge(Polyvector.from_vector(tuple(frame[:, idx])))
        total = total + blade.scale(c)
    return total


def _bracket_at(model, frame, gammas, h_mat, s_val, t_val, k):
    """[s,t]_k at one point from its frame and the frame's gamma^M."""
    eta_base = model.base_signature.eta()
    coeffs = []
    for indices in blade_index_list(model.n, k):
        g_blade = np.eye(model.N)
        denom = 1.0
        for i in indices:
            g_blade = g_blade @ gammas[i]
            denom *= eta_base[i]
        coeffs.append(float((g_blade @ s_val) @ h_mat @ t_val) / denom)
    return _frame_blades_to_ambient(model, frame, coeffs, k)


def bracket_field(model, form_field, s_field, t_field, k):
    """Pointwise bracket [s,t]_k as an ambient polyvector field."""

    def at(y, patch):
        frame = model.tangent_frame(y, patch)
        gammas = [model.gamma_intrinsic(y, frame[:, i]) for i in range(model.n)] if k else []
        s_val = s_field.eval(model, y, patch)
        t_val = t_field.eval(model, y, patch)
        return _bracket_at(model, frame, gammas, form_field(y), s_val, t_val, k)

    return at


def _exterior_projector_apply(proj, omega: Polyvector) -> Polyvector:
    """Apply a linear map slot-wise to a polyvector (k-th exterior power)."""
    n, k = omega.n, omega.k
    if k == 0:
        return omega
    out = [0.0] * len(blade_index_list(n, k))
    idx_map = {ind: pos for pos, ind in enumerate(blade_index_list(n, k))}
    for big_idx, big in enumerate(blade_index_list(n, k)):
        acc = 0.0
        for small, c in zip(blade_index_list(n, k), omega.coeffs):
            if not c:
                continue
            sub = proj[np.ix_(big, small)]
            acc += c * np.linalg.det(sub)
        out[big_idx] = acc
    return Polyvector(n, k, tuple(out))


def polyvector_covariant_derivative(model, omega_field, x, direction, patch):
    """Tangential projection of the flat ambient derivative of the ambient
    polyvector components (the submanifold connection on tangent tensors)."""
    h = model.step
    plus = omega_field(model.curve(x, direction, h), patch)
    minus = omega_field(model.curve(x, direction, -h), patch)
    diff = Polyvector(
        plus.n, plus.k, tuple((a - b) / (2.0 * h) for a, b in zip(plus.coeffs, minus.coeffs))
    )
    return _exterior_projector_apply(model.tangent_projector(x), diff)


@dataclass
class BracketFieldReport:
    conformal_residual: float
    killing_polyvector_residual: float | None
    killing_vector_residual: float | None
    geodesic_residual: float
    dirac_consistency_residual: float | None


def bracket_field_checks(
    model,
    s_field,
    t_field,
    k,
    tau_intrinsic,
    lambda_s,
    lambda_t,
) -> BracketFieldReport:
    """Residuals of the polyvector equations for omega = [s,t]_k.

    (a) the conformal equation X -| nabla_X omega = g(X,X) omega_tilde
        with omega_tilde = (lambda (-1)^k - mu tau) [s,t]_(k-1);
    (b) when mu = (-1)^k tau lambda: X -| nabla_X omega = 0;
    (c) for k = 1 with tau = -1 and lambda = mu: the Killing-vector
        equation via the symmetrized lowered derivative;
    (d) parallel transport of the contraction along great-circle
        geodesics;
    (e) at k = 1: consistency of n omega_tilde with the Dirac forms.
    """
    form_field = model.cone_form(tau_intrinsic)
    omega_field = bracket_field(model, form_field, s_field, t_field, k)
    tilde_factor = lambda_s * ((-1.0) ** k) - lambda_t * tau_intrinsic
    is_killing_case = abs(lambda_t - ((-1.0) ** k) * tau_intrinsic * lambda_s) < 1e-12
    eta_list = list(model.eta_hat)

    want_killing_vec = k == 1 and tau_intrinsic == -1

    conformal, killing_pv, killing_vec, geodesic, dirac_cons = [], [], [], [], []
    for point in model.sample_points(12):
        x, patch, frame = point.x, point.patch, point.frame
        s_val, t_val = s_field.eval(model, x, patch), t_field.eval(model, x, patch)
        tilde = _bracket_at(model, frame, point.gammas, form_field(x), s_val, t_val, k - 1)
        tilde = tilde.scale(tilde_factor)
        nablas = []
        for i in range(model.n):
            direction = frame[:, i]
            nabla = polyvector_covariant_derivative(model, omega_field, x, direction, patch)
            nablas.append(nabla)
            contraction = nabla.interior(list(direction), eta_list)
            gxx = model.g_hat(direction, direction)
            resid = contraction - tilde.scale(gxx)
            conformal.extend(abs(c) for c in resid.coeffs)
            if is_killing_case:
                killing_pv.extend(abs(c) for c in contraction.coeffs)
        if want_killing_vec:
            for i in range(model.n):
                for j in range(model.n):
                    sym = _pv_inner(nablas[i], frame[:, j], eta_list) + _pv_inner(
                        nablas[j], frame[:, i], eta_list
                    )
                    killing_vec.append(abs(sym))
        # geodesic conservation along the frame directions
        for i in range(min(model.n, 2)):
            geodesic.append(
                _geodesic_transport_residual(model, omega_field, x, frame[:, i], patch)
            )
        if k == 1:
            dirac_cons.append(
                _dirac_form_consistency(model, form_field, s_field, t_field, point, tilde_factor)
            )
    return BracketFieldReport(
        conformal_residual=_worst(conformal),
        killing_polyvector_residual=_worst(killing_pv) if is_killing_case else None,
        killing_vector_residual=_worst(killing_vec) if want_killing_vec else None,
        geodesic_residual=_worst(geodesic),
        dirac_consistency_residual=_worst(dirac_cons) if k == 1 else None,
    )


def _pv_inner(omega: Polyvector, direction, eta_list):
    xi = Polyvector.from_vector(tuple(direction))
    return float(omega.metric_inner(xi, eta_list))


def _geodesic_transport_residual(model, omega_field, x, direction, patch):
    """Residual of parallel transport of velocity -| omega along the
    geodesic with initial data (x, direction)."""
    gxx = model.g_hat(direction, direction)
    t = model.step

    def point_and_velocity(tt):
        if abs(gxx - 1.0) < 1e-9:
            return x * np.cos(tt) + direction * np.sin(tt), -x * np.sin(tt) + direction * np.cos(tt)
        if abs(gxx + 1.0) < 1e-9:
            return x * np.cosh(tt) + direction * np.sinh(tt), x * np.sinh(tt) + direction * np.cosh(tt)
        if abs(gxx) < 1e-9:
            return x + tt * direction, direction
        raise ValueError("geodesic initial velocity must be unit or null")

    def contraction(tt):
        pt, vel = point_and_velocity(tt)
        return omega_field(pt, patch).interior(list(vel), list(model.eta_hat)), pt

    plus, _ = contraction(t)
    minus, _ = contraction(-t)
    diff = Polyvector(
        plus.n,
        plus.k,
        tuple((a - b) / (2.0 * t) for a, b in zip(plus.coeffs, minus.coeffs)),
    )
    projected = _exterior_projector_apply(model.tangent_projector(x), diff)
    return _worst(abs(c) for c in projected.coeffs)


def _dirac_form_consistency(model, form_field, s_field, t_field, point, tilde_factor):
    """n omega_tilde against the degree-0 Dirac combination at k = 1."""
    x, patch = point.x, point.patch
    h_mat = form_field(x)
    s_val = s_field.eval(model, x, patch)
    t_val = t_field.eval(model, x, patch)
    ds = _dirac(model, point, _nablas(model, s_field, point, s_val))
    dt = _dirac(model, point, _nablas(model, t_field, point, t_val))
    # n * omega_tilde = (-1)^(k-1) h(Ds, t) + tau h(s, Dt) at k = 1; the
    # intrinsic type of the supplied form field decides tau
    tau = _intrinsic_tau(form_field, point)
    lhs = model.n * tilde_factor * float(s_val @ h_mat @ t_val)
    rhs = float(ds @ h_mat @ t_val) + tau * float(s_val @ h_mat @ dt)
    return abs(lhs - rhs)


def _intrinsic_tau(form_field, point):
    h_mat = form_field(point.x)
    g1 = point.gammas[0]
    plus = np.max(np.abs(g1.T @ h_mat - h_mat @ g1))
    minus = np.max(np.abs(g1.T @ h_mat + h_mat @ g1))
    return 1.0 if plus < minus else -1.0


def homogeneity_span(model, fields):
    """Dimension of span{[s_i, s_j]_1(x)} at every sample point, against
    the type -1 intrinsic form; singular values below 1e-6 of the largest
    count as zero."""
    form_field = model.cone_form(-1)
    dims = []
    for point in model.sample_points(8):
        h_mat = form_field(point.x)
        values = [s.eval(model, point.x, point.patch) for s in fields]
        vectors = [
            list(_bracket_at(model, point.frame, point.gammas, h_mat, s_val, t_val, 1).coeffs)
            for s_val in values
            for t_val in values
        ]
        mat = np.array(vectors, dtype=float)
        svals = np.linalg.svd(mat, compute_uv=False)
        scale = svals[0] if svals.size and svals[0] > 0 else 1.0
        dims.append(int(np.sum(svals > 1e-6 * scale)))
    return dims


# -- curvature ---------------------------------------------------------------


class SphereProductModel:
    """Product of two unit round spheres; definite signature, block
    curvature, used for the modified-connection kernel bound."""

    def __init__(self, n1, n2):
        self.n1, self.n2 = n1, n2
        self.n = n1 + n2
        self.signature = Signature(self.n, 0)
        self.rep = build_rep(self.signature)
        self.N = self.rep.N
        self.gammas = [_to_numpy(g.dense()) for g in self.rep.generators]
        self.eta = np.ones(self.n)

    def riemann_lowered(self, i, j, k, l):
        blocks = [0] * self.n1 + [1] * self.n2
        if not (blocks[i] == blocks[j] == blocks[k] == blocks[l]):
            return 0.0
        return float((i == k) * (j == l) - (i == l) * (j == k))


class ConstantCurvatureFrameModel:
    """Frame-level curvature data of a unit hyperquadric: constant
    sectional curvature one in any orthonormal frame."""

    def __init__(self, base_signature: Signature):
        self.signature = base_signature
        self.rep = build_rep(base_signature)
        self.N = self.rep.N
        self.n = base_signature.n
        self.gammas = [_to_numpy(g.dense()) for g in self.rep.generators]
        self.eta = np.array(base_signature.eta(), dtype=float)

    def riemann_lowered(self, i, j, k, l):
        return float(
            self.eta[i] * (i == k) * self.eta[j] * (j == l)
            - self.eta[i] * (i == l) * self.eta[j] * (j == k)
        )


def kappa_upper_bound(curv_model, killing_number) -> int:
    """Dimension of the joint numeric kernel (singular values below 1e-8)
    of the modified-connection curvature operators
    R_spin(e_i, e_j) + lambda^2 [gamma_i, gamma_j]; upper-bounds the
    Killing-spinor count at that number."""
    n, N = curv_model.n, curv_model.N
    gammas = curv_model.gammas
    eta = curv_model.eta
    blocks = []
    for i in range(n):
        for j in range(i + 1, n):
            r_spin = np.zeros((N, N))
            for k in range(n):
                for l in range(n):
                    if k == l:
                        continue
                    r = curv_model.riemann_lowered(i, j, k, l)
                    if r:
                        r_spin -= 0.25 * r * eta[k] * eta[l] * (gammas[k] @ gammas[l])
            commutator = gammas[i] @ gammas[j] - gammas[j] @ gammas[i]
            blocks.append(r_spin + killing_number**2 * commutator)
    stacked = np.vstack(blocks)
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals < 1e-8))


def scalar_curvature_residual(model, killing_number) -> float:
    """|scal_numeric - 4 n (n-1) lambda^2| with scal from the numeric
    second fundamental form through the flat-ambient curvature relation."""
    residuals = []
    target = 4.0 * model.n * (model.n - 1) * killing_number**2
    h = model.step
    eta_base = np.array(model.base_signature.eta(), float)
    for point in model.sample_points(8):
        x, patch, frame = point.x, point.patch, point.frame
        alpha = np.zeros((model.n, model.n))
        for i in range(model.n):
            fp = model.tangent_frame(model.curve(x, frame[:, i], h), patch)
            fm = model.tangent_frame(model.curve(x, frame[:, i], -h), patch)
            de = (fp - fm) / (2.0 * h)
            for j in range(model.n):
                alpha[i, j] = model.g_hat(de[:, j], x)
        scal = 0.0
        for i in range(model.n):
            for j in range(model.n):
                if i != j:
                    scal += eta_base[i] * eta_base[j] * (
                        alpha[i, i] * alpha[j, j] - alpha[i, j] ** 2
                    )
        residuals.append(abs(scal - target))
    return _worst(residuals)
