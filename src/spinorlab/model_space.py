"""Floating-point verification on model hyperquadrics.

The model space is the unit level set {g(x,x) = 1} inside a flat cone
R^(P,Q); constant spinor fields on the cone are parallel, and their
restrictions are checked against the Killing equation through an
independently assembled numeric spin connection: smooth local
orthonormal frames, frame-rotation rates by central differences, and
the quarter-sum bivector term.  Clifford data comes from the exact
modules: the spin connection and the intrinsic action
gamma^M_X = gamma_X gamma_x are bivectors, scattered in O(n^2 N) from
the signed-permutation products G_i G_j of the cone generators, and the
admissible form is converted to float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np

from .admissible_forms import first_nondegenerate
from .clifford_core import Signature, build_rep, generator_table, signed_products
from .exact_linalg import SignedPerm


def _to_numpy(m: SignedPerm) -> np.ndarray:
    """m as a float64 array: signs[j] at row perm[j] of column j."""
    n = len(m.perm)
    out = np.zeros((n, n))
    out[m.perm, range(n)] = m.signs
    return out


def _halton(index, base):
    out, f = 0.0, 1.0
    while index > 0:
        f /= base
        out += f * (index % base)
        index //= base
    return out


def _first_primes(count):
    """The first count primes, by trial division: the Halton bases."""
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _worst(values) -> float:
    """Largest of non-negative residuals, failing closed: a NaN or
    infinite residual, or no residual at all, makes the result inf,
    which no tolerance passes."""
    values = [float(v) for v in values]
    if not all(math.isfinite(v) for v in values):
        return math.inf
    return max(values, default=math.inf)


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
        if num_samples < 1:
            raise ValueError("the model needs at least one sample point")
        self.cone_signature = cone_signature
        self.base_signature = Signature(cone_signature.p - 1, cone_signature.q)
        self.step = step
        self.rep = build_rep(cone_signature)
        self.N = self.rep.N
        # the products G_i G_j, i < j, of the cone generators: pair k puts
        # pair_signs[k, c] at row pair_perms[k, c] of column c
        self.pairs = np.triu_indices(cone_signature.n, 1)
        table = generator_table(self.rep.generators)
        perm, sign = signed_products(table, table)
        self.pair_perms, self.pair_signs = perm[self.pairs], sign[self.pairs].astype(float)
        self._pair_cells = (self.pair_perms * self.N + np.arange(self.N)).ravel()
        self.eta_hat = np.array(cone_signature.eta(), dtype=float)
        self.dim = cone_signature.n
        self.n = cone_signature.n - 1
        self.samples = self._sample_points(num_samples)
        self._points = []  # SamplePoint of samples[k], built in sample order

    # -- geometry ---------------------------------------------------------

    def g_hat(self, x, y):
        return float(np.dot(x * self.eta_hat, y))

    def _sample_points(self, count):
        bases = _first_primes(self.dim)
        pts = []
        idx = 1
        while len(pts) < count:
            v = np.array([2.0 * _halton(idx, b) - 1.0 for b in bases])
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
            cone_frame = np.column_stack([x, frame])
            omegas = tuple(spin_connection(self, cone_frame, e, patch) for e in frame.T)
            gammas = tuple(self.gamma_intrinsic(x, e) for e in frame.T)
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
            if best is None or result[2] > best[1][2]:
                best = (drop, result)
        if best is None or best[1][2] < 1e-8:
            raise ArithmeticError("no usable frame patch at this sample point")
        drop, (_, signs, _) = best
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

    def bivector(self, coeffs):
        """The sum over pairs k of coeffs[k] G_i G_j, (i, j) = pairs[:, k],
        as a dense N x N array: one scatter of n(n+1)/2 signed
        permutations, O(n^2 N)."""
        weights = (coeffs[:, None] * self.pair_signs).ravel()
        cells = np.bincount(self._pair_cells, weights, minlength=self.N * self.N)
        return cells.reshape(self.N, self.N)

    def gamma_intrinsic(self, x, v):
        """gamma^M_v = gamma_v gamma_x through the cone identification:
        -g(v, x) Id plus the bivector with coefficients v_i x_j - v_j x_i."""
        i, j = self.pairs
        out = self.bivector(v[i] * x[j] - v[j] * x[i])
        out.flat[:: self.N + 1] -= self.g_hat(v, x)
        return out

    @cached_property
    def form_matrix(self):
        """H of the first nondegenerate cone-admissible form; constant on
        the cone, hence parallel, and of intrinsic type -1 for every cone
        type, since gamma^M_X = gamma_X gamma_x."""
        return _to_numpy(first_nondegenerate(self.rep).matrix)


class ConstantSpinorField:
    """The cone-spinor field with one constant column at every point; any
    object with this eval method is a spinor field."""

    def __init__(self, column):
        self.column = np.asarray(column, dtype=float)

    def eval(self, model, y, patch):
        return self.column


def frame_rotation_rates(model, frame, direction, patch):
    """Lowered rotation-rate matrix of the cone-adapted frame, given at x
    as frame = (x, tangent frame), along a tangent direction, by central
    differences; antisymmetric up to the truncation error."""
    h = model.step
    x = frame[:, 0]
    fp = model.cone_frame(model.curve(x, direction, h), patch)
    fm = model.cone_frame(model.curve(x, direction, -h), patch)
    df = (fp - fm) / (2.0 * h)
    return frame.T @ np.diag(model.eta_hat) @ df


def spin_connection(model, frame, direction, patch):
    """Connection matrix Omega with nabla_X phi = X(phi) + Omega phi for
    cone-spinor components phi in the constant ambient trivialization;
    frame is the cone frame F at x: x, then the tangent frame E.

    The quarter-sum terms (the full-frame term of the ambient action
    minus the tangential term of the intrinsic action gamma^M) are one
    bivector.  With gamma(f) = sum_i f^i G_i, R = eta Lambda eta the
    antisymmetrized rotation rates and R_tt their tangent block,
    Omega = sum over i < j of C_ij G_i G_j with
    C = (F R F^T - g(x, x) E R_tt E^T) / 2, since
    gamma^M_e gamma^M_f = g(x, x) gamma_e gamma_f for e, f tangent.
    """
    x = frame[:, 0]
    if abs(model.g_hat(x, direction)) > 1e-9:
        raise ValueError("direction must be tangent to the hyperquadric")
    lam_low = frame_rotation_rates(model, frame, direction, patch)
    eta = np.concatenate([[1.0], np.array(model.base_signature.eta(), float)])
    rates = 0.5 * eta[:, None] * (lam_low - lam_low.T) * eta
    tangent = frame[:, 1:]
    c = frame @ rates @ frame.T - model.g_hat(x, x) * (tangent @ rates[1:, 1:] @ tangent.T)
    i, j = model.pairs
    return model.bivector(0.5 * c[i, j])


def _values(model, fields, y, patch):
    """The fields at y as the columns of one N x k array."""
    return np.column_stack([field.eval(model, y, patch) for field in fields])


def _nablas(model, fields, point, here):
    """nabla_(e_i) S at a sample point for every frame direction e_i, S the
    fields' N x k value array (here at the point), with Omega read from
    the sample table."""
    h = model.step
    nablas = []
    for direction, omega in zip(point.frame.T, point.omegas):
        plus = _values(model, fields, model.curve(point.x, direction, h), point.patch)
        minus = _values(model, fields, model.curve(point.x, direction, -h), point.patch)
        nablas.append((plus - minus) / (2.0 * h) + omega @ here)
    return nablas


def _dirac(model, point, nablas):
    """Frame Dirac sum sum_i eta_i gamma^M_(e_i) nabla_(e_i) at a sample point."""
    dirac = np.zeros_like(nablas[0])
    for eta, gamma, nabla in zip(model.base_signature.eta(), point.gammas, nablas):
        dirac += eta * gamma @ nabla
    return dirac


@dataclass
class KillingReport:
    killing_number: float
    residual: float
    dirac_residual: float  # max over samples of |D s + n lambda s|


def killing_residual(model, fields, killing_number=None) -> list:
    """One KillingReport per field: the max over samples and frame
    directions of |nabla_X s - lambda X s|, and from the same nabla sweep
    the Dirac residual at that lambda.

    All fields share one array sweep: at each sample point and frame
    direction their values are the columns of one N x k array S, and
    nabla S = dS/dt + Omega S.  With killing_number None the sign of
    lambda = +-1/2 is auto-detected per field by picking the smaller
    residual.  No fields give no reports.
    """
    if not fields:
        return []
    candidates = [killing_number] if killing_number is not None else [0.5, -0.5]
    killing = [[] for _ in candidates]  # column maxima per point and direction
    dirac = [[] for _ in candidates]  # column maxima per point
    for point in model.sample_points():
        here = _values(model, fields, point.x, point.patch)
        nablas = _nablas(model, fields, point, here)
        d_here = _dirac(model, point, nablas)
        for lam, k_rows, d_rows in zip(candidates, killing, dirac):
            k_rows.extend(
                np.max(np.abs(nabla - lam * gamma @ here), axis=0)
                for nabla, gamma in zip(nablas, point.gammas)
            )
            d_rows.append(np.max(np.abs(d_here + model.n * lam * here), axis=0))
    # each column fails closed like _worst, even with no rows at all
    width = len(fields)
    killing = [[_worst(col) for col in np.reshape(rows, (-1, width)).T] for rows in killing]
    dirac = [[_worst(col) for col in np.reshape(rows, (-1, width)).T] for rows in dirac]
    reports = []
    for col in range(width):
        best = int(np.argmin([residuals[col] for residuals in killing]))
        reports.append(KillingReport(candidates[best], killing[best][col], dirac[best][col]))
    return reports


# -- the degree-one bracket ----------------------------------------------------


def _bracket_vector(model, frame, gammas, s_val, t_val):
    """X = [s,t]_1 = sum_i eta_i h(gamma^M_(e_i) s, t) e_i as an ambient
    vector, from a point's frame and the frame's gamma^M."""
    out = np.zeros(model.dim)
    for eta, gamma, e in zip(model.base_signature.eta(), gammas, frame.T):
        c = float((gamma @ s_val) @ model.form_matrix @ t_val) / eta
        if c:
            out = out + c * e
    return out


def _bracket_at(model, s_field, t_field, y, patch):
    """[s,t]_1 at a point off the sample table, from a fresh frame."""
    frame = model.tangent_frame(y, patch)
    gammas = [model.gamma_intrinsic(y, e) for e in frame.T]
    s_val, t_val = s_field.eval(model, y, patch), t_field.eval(model, y, patch)
    return _bracket_vector(model, frame, gammas, s_val, t_val)


def _tangential_difference(model, x, plus, minus):
    """Tangential projection at x of the central difference of two ambient
    vectors taken one model step either side of x.  The projector's
    columns are added one at a time in ambient order, so the last bits do
    not depend on a BLAS summation order."""
    diff = (plus - minus) / (2.0 * model.step)
    proj = model.tangent_projector(x)
    out = np.zeros(model.dim)
    for d, column in zip(diff, proj.T):
        if d:
            out = out + d * column
    return out


@dataclass
class BracketFieldReport:
    conformal_residual: float
    killing_vector_residual: float
    geodesic_residual: float


def bracket_field_checks(model, s_field, t_field) -> BracketFieldReport:
    """Residuals of the Killing-vector equations for X = [s,t]_1 against
    the model's type -1 form, for s and t with one Killing number:

    (a) the conformal equation g(e_i, nabla_(e_i) X) = 0;
    (b) the Killing-vector equation, the symmetrized lowered derivative
        g(nabla_(e_i) X, e_j) + g(nabla_(e_j) X, e_i) = 0;
    (c) conservation of g(velocity, X) along geodesics.
    """
    h = model.step
    conformal, killing_vec, geodesic = [], [], []
    for point in model.sample_points(12):
        x, patch, frame = point.x, point.patch, point.frame
        nablas = []
        for e in frame.T:
            plus = _bracket_at(model, s_field, t_field, model.curve(x, e, h), patch)
            minus = _bracket_at(model, s_field, t_field, model.curve(x, e, -h), patch)
            nablas.append(_tangential_difference(model, x, plus, minus))
            conformal.append(abs(model.g_hat(e, nablas[-1])))
        for i, j in combinations_with_replacement(range(model.n), 2):
            sym = model.g_hat(nablas[i], frame[:, j]) + model.g_hat(nablas[j], frame[:, i])
            killing_vec.append(abs(sym))
        for e in frame.T[:2]:
            geodesic.append(_geodesic_residual(model, s_field, t_field, x, e, patch))
    return BracketFieldReport(
        conformal_residual=_worst(conformal),
        killing_vector_residual=_worst(killing_vec),
        geodesic_residual=_worst(geodesic),
    )


def _geodesic_residual(model, s_field, t_field, x, direction, patch):
    """|d/dt g(velocity, X)| at t = 0 along the geodesic with initial data
    (x, direction); zero when X is a Killing vector."""
    gxx = model.g_hat(direction, direction)
    h = model.step

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
        return model.g_hat(vel, _bracket_at(model, s_field, t_field, pt, patch))

    return abs((contraction(h) - contraction(-h)) / (2.0 * h))


def homogeneity_span(model, fields):
    """Dimension of span{[s_i, s_j]_1(x)} at every sample point, against
    the type -1 intrinsic form; singular values below 1e-6 of the largest
    count as zero."""
    dims = []
    for point in model.sample_points(8):
        values = [s.eval(model, point.x, point.patch) for s in fields]
        mat = np.array(
            [
                _bracket_vector(model, point.frame, point.gammas, s_val, t_val)
                for s_val in values
                for t_val in values
            ]
        )
        svals = np.linalg.svd(mat, compute_uv=False)
        scale = svals[0] if svals.size and svals[0] > 0 else 1.0
        dims.append(int(np.sum(svals > 1e-6 * scale)))
    return dims


# -- curvature ---------------------------------------------------------------


def kappa_upper_bound(signature: Signature, factors, killing_number) -> int:
    """Dimension of the joint kernel of the modified-connection curvature
    operators R_spin(e_i, e_j) + lambda^2 [gamma_i, gamma_j]; upper-bounds
    the Killing-spinor count at that number.

    The metric is a product of unit constant-curvature factors with block
    dimensions `factors` in frame order: R_ijkl = eta_i eta_j (d_ik d_jl -
    d_il d_jk) when i, j, k, l lie in one block and 0 otherwise, so (2, 2)
    is S^2 x S^2 and (n,) a round frame.  Every term of the operator of
    the pair (i, j), times 4, is an exact multiple of the signed
    permutation +-gamma_i gamma_j, so the operator is c gamma_i gamma_j:
    the kernel is 0 once one c is nonzero (gamma_i gamma_j is
    invertible) and N otherwise.
    """
    if sum(factors) != signature.n:
        raise ValueError("the factor dimensions must add up to n")
    rep = build_rep(signature)
    n, eta, gammas = signature.n, signature.eta(), rep.generators
    block = [b for b, size in enumerate(factors) for _ in range(size)]
    lam_sq = Fraction(killing_number) ** 2

    def riemann(i, j, k, l):
        if not block[i] == block[j] == block[k] == block[l]:
            return 0
        return eta[i] * eta[j] * ((i == k) * (j == l) - (i == l) * (j == k))

    for i, j in combinations(range(n), 2):
        # 4 R_spin(e_i, e_j) = -sum over k != l of R_ijkl eta_k eta_l gamma_k gamma_l
        terms = [
            (-r * eta[k] * eta[l], gammas[k] * gammas[l])
            for k, l in permutations(range(n), 2)
            if (r := riemann(i, j, k, l))
        ]
        terms += [(4 * lam_sq, gammas[i] * gammas[j]), (-4 * lam_sq, gammas[j] * gammas[i])]
        g_ij = gammas[i] * gammas[j]
        c = 0
        for coeff, g in terms:
            if g == g_ij:
                c += coeff
            elif g == -g_ij:
                c -= coeff
            else:
                raise ArithmeticError(
                    f"a curvature term of ({i},{j}) is not +-gamma_i gamma_j"
                )
        if c:
            return 0
    return rep.N


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
