"""Floating-point verification on model hyperquadrics.

The model space is the unit level set {g(x,x) = 1} inside a flat cone
R^(P,Q); constant spinor fields on the cone are parallel, and their
restrictions are checked against the Killing equation through an
independently assembled numeric spin connection: smooth local
orthonormal frames, frame-rotation rates by central differences, and
the quarter-sum bivector term.

Frames are made for whole stacks of points at once, by one modified
Gram-Schmidt over an (m, dim) stack in which each row drops its own
ambient coordinate; a row whose pivot falls below 1e-12 is unusable.
A model builds its sample table in three such calls (the patch trials,
the frames at the points, the frames one step either side along every
frame direction) and forms all connections and gamma^M from them.  The
spin connection and gamma^M_X = gamma_X gamma_x are bivectors scattered
from the signed-permutation products G_i G_j of the cone generators.

Each residual check is one array pass.  The Killing and Dirac sweep
takes every field at a sample point and one step either side along all
frame directions as one array, and its stacked products are per
direction the contiguous 2-D products of a loop, so the bits are the
loop's.  The bracket and curvature checks take all their sample points
at once, with one frame call for every end point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .admissible_forms import first_nondegenerate
from .clifford_core import Signature, build_rep


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
    """Largest magnitude of an array of residuals, failing closed: a NaN
    or infinite residual, or no residual at all, makes the result inf,
    which no tolerance passes."""
    values = np.abs(np.ravel(values))
    return float(values.max()) if values.size and np.all(np.isfinite(values)) else math.inf


@dataclass(frozen=True)
class SamplePoint:
    """Geometry at one sample point x: its frame patch and tangent frame,
    and per frame direction e_i the spin connection Omega(x, e_i) and the
    intrinsic action gamma^M_(e_i), as (n, N, N) stacks."""

    x: np.ndarray
    patch: tuple
    frame: np.ndarray
    omegas: np.ndarray
    gammas: np.ndarray


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
        gens = self.rep.generators
        products = (gens[:, None] * gens[None])[self.pairs]
        self.pair_perms, self.pair_signs = products.perm, products.signs.astype(float)
        self.eta_hat = np.array(cone_signature.eta(), dtype=float)
        self.dim = cone_signature.n
        self.n = cone_signature.n - 1
        self.samples = self._sample_points(num_samples)
        self._points = []  # SamplePoint of samples[k], built in sample order

    # -- geometry ---------------------------------------------------------

    def g_hat(self, x, y):
        """g(x, y), over the last axis of stacks of vectors."""
        return (x * self.eta_hat * y).sum(axis=-1)

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
        and shared by every field, candidate lambda and residual sweep.
        The points still missing are built together, in three batched
        frame calls: every point with every dropped coordinate for the
        patch choice, the frames at the points, and the frames one step
        either side of each point along each frame direction."""
        wanted = len(self.samples[:count])
        if len(self._points) < wanted:
            xs = np.array(self.samples[len(self._points) : wanted])
            patches = self.select_patch(xs)
            frames = self.tangent_frame(xs, patches)
            # one row per point and frame direction, point-major
            at = np.repeat(xs, self.n, axis=0)
            directions = np.swapaxes(frames, 1, 2).reshape(-1, self.dim)
            cones = np.repeat(np.concatenate([xs[:, :, None], frames], axis=2), self.n, axis=0)
            row_patches = [patch for patch in patches for _ in range(self.n)]
            omegas = spin_connection(self, cones, directions, row_patches)
            gammas = self.gamma_intrinsic(at, directions)
            for k, (x, patch, frame) in enumerate(zip(xs, patches, frames)):
                rows = slice(k * self.n, (k + 1) * self.n)
                self._points.append(SamplePoint(x, patch, frame, omegas[rows], gammas[rows]))
        return self._points[:wanted]

    def curve(self, x, direction, t):
        """Point on the quadric with position x and velocity `direction`;
        x, direction and t broadcast against each other as stacks."""
        y = x + t * direction
        return y / np.sqrt(self.g_hat(y, y))[..., None]

    def tangent_projector(self, x):
        return np.eye(self.dim) - x[..., :, None] * (x * self.eta_hat)[..., None, :]

    def _orthonormalize(self, ys, drops):
        """Modified Gram-Schmidt over a stack: row r orthonormalizes, in
        ambient order, the columns of the tangent projector at ys[r] other
        than column drops[r], and step k does column k of every row at
        once.  Returns the (m, n, dim) vectors, their (m, n) signs
        g(e, e), each row's smallest pivot |g(u, u)|, and which rows are
        usable: a row stops being usable once a pivot falls below 1e-12
        or is NaN, and its later columns are then meaningless."""
        m, n = len(ys), self.n
        keep = np.arange(n) + (np.arange(n) >= np.asarray(drops)[:, None])
        columns = np.swapaxes(self.tangent_projector(ys), 1, 2)
        vecs = columns[np.arange(m)[:, None], keep]
        pivots, signs = np.empty((m, n)), np.empty((m, n))
        for k in range(n):
            u = vecs[:, k]
            norm = self.g_hat(u, u)
            pivot = pivots[:, k] = np.abs(norm)
            sign = signs[:, k] = np.where(norm > 0, 1.0, -1.0)
            e = vecs[:, k] = u / np.sqrt(np.where(pivot >= 1e-12, pivot, 1.0))[:, None]
            rest = vecs[:, k + 1 :]
            rest -= (sign[:, None] * self.g_hat(rest, e[:, None, :]))[:, :, None] * e[:, None, :]
        usable = np.all(pivots >= 1e-12, axis=1)
        return vecs, signs, np.min(pivots, axis=1, initial=np.inf), usable

    def select_patch(self, xs):
        """Deterministic frame patch at each row of an (m, dim) stack, as a
        list: the ambient coordinate to drop plus the sign-sorting
        permutation, chosen to maximize the smallest Gram-Schmidt pivot
        (the first drop wins a tie)."""
        m, dim = len(xs), self.dim
        _, signs, pivots, usable = self._orthonormalize(
            np.repeat(xs, dim, axis=0), np.tile(np.arange(dim), m)
        )
        pivots = np.where(usable, pivots, -np.inf).reshape(m, dim)
        drops = np.argmax(pivots, axis=1)
        if not np.all(pivots[np.arange(m), drops] >= 1e-8):
            raise ArithmeticError("no usable frame patch at this sample point")
        signs = signs.reshape(m, dim, self.n)[np.arange(m), drops]
        return [
            (int(drop), tuple(int(i) for i in np.argsort(-row, kind="stable")))
            for drop, row in zip(drops, signs)
        ]

    def tangent_frame(self, ys, patches):
        """Orthonormal tangent frames at an (m, dim) stack of points, one
        patch per row, as an (m, dim, n) stack; each is ordered to match
        the base signature pattern (+1 x p, -1 x q) and smooth in its
        point within the patch."""
        drops = [drop for drop, _ in patches]
        order = np.array([order for _, order in patches], dtype=int).reshape(len(ys), self.n)
        vecs, signs, _, usable = self._orthonormalize(ys, drops)
        if not np.all(usable):
            raise ArithmeticError("frame degenerated inside its patch")
        rows = np.arange(len(ys))[:, None]
        if np.any(signs[rows, order] != self.eta_hat[1:]):
            raise ArithmeticError("frame sign pattern does not match the base")
        return np.ascontiguousarray(np.swapaxes(vecs[rows, order], 1, 2))

    def cone_frame(self, ys, patches):
        """Cone frames at a stack of points: x, then the tangent frame."""
        return np.concatenate([ys[:, :, None], self.tangent_frame(ys, patches)], axis=-1)

    # -- Clifford data ------------------------------------------------------

    def bivector(self, coeffs):
        """The sum over pairs k of coeffs[k] G_i G_j, (i, j) = pairs[:, k],
        as a dense N x N array: n(n+1)/2 signed-permutation scatters,
        O(n^2 N).  Coefficients stacked on leading axes give a stack of
        matrices, each pair scattered into all of them at once."""
        out = np.zeros(np.shape(coeffs)[:-1] + (self.N, self.N))
        columns = np.arange(self.N)
        for k, (perm, signs) in enumerate(zip(self.pair_perms, self.pair_signs)):
            out[..., perm, columns] += coeffs[..., k, None] * signs
        return out

    def gamma_intrinsic(self, x, v):
        """gamma^M_v = gamma_v gamma_x through the cone identification:
        -g(v, x) Id plus the bivector with coefficients v_i x_j - v_j x_i;
        stacks of x and v give a stack."""
        i, j = self.pairs
        out = self.bivector(v[..., i] * x[..., j] - v[..., j] * x[..., i])
        diagonal = np.arange(self.N)
        out[..., diagonal, diagonal] -= self.g_hat(v, x)[..., None]
        return out

    @cached_property
    def form_matrix(self):
        """H of the first nondegenerate cone-admissible form; constant on
        the cone, hence parallel, and of intrinsic type -1 for every cone
        type, since gamma^M_X = gamma_X gamma_x."""
        h = first_nondegenerate(self.rep).matrix
        out = np.zeros((self.N, self.N))
        out[h.perm, np.arange(self.N)] = h.signs
        return out


class ConstantSpinorField:
    """The cone-spinor field with one constant column at every point; any
    object with this eval method is a spinor field."""

    def __init__(self, column):
        self.column = np.asarray(column, dtype=float)

    def eval(self, model, y, patch):
        return self.column


def frame_rotation_rates(model, frames, directions, patches):
    """Lowered rotation-rate matrices of cone-adapted frames (x, tangent
    frame) along tangent directions, by central differences; antisymmetric
    up to the truncation error.  A stack of frames, directions and patches,
    one per row, gives a stack, from one batched frame call at the points
    one step either side."""
    h, m = model.step, len(frames)
    x = frames[:, :, 0]
    steps = np.repeat([h, -h], m)[:, None]
    ends = model.curve(np.tile(x, (2, 1)), np.tile(directions, (2, 1)), steps)
    cones = model.cone_frame(ends, list(patches) * 2)
    df = (cones[:m] - cones[m:]) / (2.0 * h)
    return np.swapaxes(frames, 1, 2) @ (model.eta_hat[:, None] * df)


def spin_connection(model, frames, directions, patches):
    """Connection matrix Omega with nabla_X phi = X(phi) + Omega phi for
    cone-spinor components phi in the constant ambient trivialization, as
    an (m, N, N) stack for a stack of cone frames F (at x: x, then the
    tangent frame E), directions and patches, one per row.

    The quarter-sum terms (the full-frame term of the ambient action
    minus the tangential term of the intrinsic action gamma^M) are one
    bivector.  With gamma(f) = sum_i f^i G_i, R = eta Lambda eta the
    antisymmetrized rotation rates and R_tt their tangent block,
    Omega = sum over i < j of C_ij G_i G_j with
    C = (F R F^T - g(x, x) E R_tt E^T) / 2, since
    gamma^M_e gamma^M_f = g(x, x) gamma_e gamma_f for e, f tangent.
    """
    x = frames[:, :, 0]
    if np.any(np.abs(model.g_hat(x, directions)) > 1e-9):
        raise ValueError("direction must be tangent to the hyperquadric")
    lam_low = frame_rotation_rates(model, frames, directions, patches)
    eta = model.eta_hat
    rates = 0.5 * eta[:, None] * (lam_low - np.swapaxes(lam_low, 1, 2)) * eta
    tangent = frames[:, :, 1:]
    c = frames @ rates @ np.swapaxes(frames, 1, 2) - model.g_hat(x, x)[:, None, None] * (
        tangent @ rates[:, 1:, 1:] @ np.swapaxes(tangent, 1, 2)
    )
    i, j = model.pairs
    return model.bivector(0.5 * c[:, i, j])


@dataclass
class KillingReport:
    killing_number: float
    residual: float
    dirac_residual: float  # max over samples of |D s + n lambda s|
    # where the Killing residual is worst: the sample index and the frame
    # direction, or None without sample points
    worst_sample: int | None
    worst_direction: int | None


def _worst_rows(rows, width):
    """The worst value of each column of a (rows x width) residual array
    and the first row holding it, failing closed like _worst: a
    non-finite value counts as inf, so it beats any finite one, and
    without rows every column is inf, held by no row."""
    values = np.reshape(rows, (-1, width))
    if not len(values):
        return [math.inf] * width, [None] * width
    values = np.where(np.isfinite(values), values, np.inf)
    at = np.argmax(values, axis=0)
    return values[at, np.arange(width)].tolist(), at.tolist()


def _residuals_at(model, fields, point, candidates):
    """Per candidate lambda, the (n, k) Killing and (k,) Dirac column
    maxima of the fields at one sample point."""
    ys = [point.x, *_ends(model, point.x, point.frame.T).reshape(-1, model.dim)]
    values = [[field.eval(model, y, point.patch) for field in fields] for y in ys]
    # C-contiguous N x k blocks: BLAS sums a strided operand in another order
    values = np.ascontiguousarray(np.array(values, dtype=float).transpose(0, 2, 1))
    here, around = values[0], values[1:].reshape(model.n, 2, model.N, len(fields))
    nablas = around[:, 0]  # nabla S, in place over the values one step ahead
    nablas -= around[:, 1]
    nablas /= 2.0 * model.step
    nablas += point.omegas @ here
    eta = model.eta_hat[1:, None, None]
    dirac = sum(point.gammas @ nablas * eta)  # in frame order, as the sum is written
    gamma_here = point.gammas @ here
    out = []
    for lam in candidates:
        # |nabla S - lambda gamma^M S|, in place over the values one step behind
        gap = np.multiply(lam, gamma_here, out=around[:, 1])
        gap = np.abs(np.subtract(nablas, gap, out=gap), out=gap)
        out.append((gap.max(axis=1), np.abs(dirac + model.n * lam * here).max(axis=0)))
    return out


def killing_residual(model, fields, killing_number=None) -> list:
    """One KillingReport per field: the max over samples and frame
    directions of |nabla_X s - lambda X s| and where it is reached, and
    from the same nabla sweep the Dirac residual at that lambda.

    With killing_number None the sign of lambda = +-1/2 is auto-detected per
    field by picking the smaller residual.  No fields give no reports.
    """
    if not fields:
        return []
    candidates = [killing_number] if killing_number is not None else [0.5, -0.5]
    rows = [_residuals_at(model, fields, point, candidates) for point in model.sample_points()]
    reports = []  # one row of reports per candidate
    for c, lam in enumerate(candidates):
        # each column fails closed like _worst, even with no rows at all
        worst, at = _worst_rows([row[c][0] for row in rows], len(fields))
        dirac, _ = _worst_rows([row[c][1] for row in rows], len(fields))
        reports.append(
            [
                KillingReport(lam, w, d, *((None, None) if a is None else divmod(a, model.n)))
                for w, d, a in zip(worst, dirac, at)
            ]
        )
    # per field the candidate with the smaller residual, the first on a tie
    return [min(column, key=lambda report: report.residual) for column in zip(*reports)]


# -- the degree-one bracket ----------------------------------------------------


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

    X is taken one step either side of every sample point along every
    frame direction and along the geodesics of the first two; gamma^M
    is formed for one sample point's end points at a time.
    """
    h, n, dim = model.step, model.n, model.dim
    points = model.sample_points(12)
    xs, directions = _stack(model, points)
    probes, velocities = _geodesic_probes(model, xs, directions[:, :2])
    ends = np.concatenate([_ends(model, xs, directions), probes], axis=1)
    ys = ends.reshape(-1, dim)
    per_point = 2 * ends.shape[1]
    patches = [point.patch for point in points for _ in range(per_point)]
    frames = model.tangent_frame(ys, patches)
    s_vals, t_vals = (
        np.reshape([f.eval(model, y, patch) for y, patch in zip(ys, patches)], (-1, 1, model.N, 1))
        for f in (s_field, t_field)
    )
    c = np.empty((len(ys), n))
    for r in range(0, len(ys), per_point):
        rows = slice(r, r + per_point)
        gs = model.gamma_intrinsic(ys[rows, None], np.swapaxes(frames[rows], 1, 2)) @ s_vals[rows]
        c[rows] = (np.swapaxes(gs, 2, 3) @ model.form_matrix @ t_vals[rows])[..., 0, 0]
    c /= model.eta_hat[1:]
    brackets = sum(c[:, i, None] * frames[:, :, i] for i in range(n)).reshape(ends.shape)
    diff = (brackets[:, :n, 0] - brackets[:, :n, 1]) / (2.0 * h)
    proj = model.tangent_projector(xs)
    nablas = sum(diff[:, :, d, None] * proj[:, None, :, d] for d in range(dim))
    # lowered[:, i, j] = g(nabla_(e_i) X, e_j); numpy's summation order
    # follows the memory layout, so g_hat sums contiguous rows
    lowered = model.g_hat(nablas[:, :, None], np.ascontiguousarray(directions)[:, None])
    i, j = np.triu_indices(n)
    # g(velocity, X) along the geodesics: its t-derivative vanishes for a Killing vector
    contractions = model.g_hat(velocities, brackets[:, n:])
    return BracketFieldReport(
        conformal_residual=_worst(np.diagonal(lowered, axis1=1, axis2=2)),
        killing_vector_residual=_worst(lowered[:, i, j] + lowered[:, j, i]),
        geodesic_residual=_worst((contractions[..., 0] - contractions[..., 1]) / (2.0 * h)),
    )


def _stack(model, points):
    """The points as an (m, dim) stack and their frame directions as an
    (m, n, dim) view of the frames, laid out like frame.T: numpy's
    summation order in curve follows the layout."""
    xs = np.reshape([point.x for point in points], (-1, model.dim))
    frames = np.reshape([point.frame for point in points], (-1, model.dim, model.n))
    return xs, np.swapaxes(frames, 1, 2)


def _ends(model, xs, directions):
    """The points one step ahead of and behind xs along each direction
    row, as (..., n, 2, dim)."""
    steps = np.array([[model.step], [-model.step]])
    return model.curve(xs[..., None, None, :], directions[..., None, :], steps)


def _geodesic_probes(model, xs, directions):
    """Points and velocities at t = +h and -h of the geodesics through xs
    along unit directions[:, k] of sign eta_k, as two (m, K, 2, dim) stacks."""
    tt = np.array([[model.step], [-model.step]])
    x, points, velocities = xs[:, None], [], []
    for e, eta in zip(np.swapaxes(directions[:, :, None], 0, 1), model.base_signature.eta()):
        if eta > 0:
            points.append(x * np.cos(tt) + e * np.sin(tt))
            velocities.append(-x * np.sin(tt) + e * np.cos(tt))
        else:
            points.append(x * np.cosh(tt) + e * np.sinh(tt))
            velocities.append(x * np.sinh(tt) + e * np.cosh(tt))
    return np.stack(points, axis=1), np.stack(velocities, axis=1)


def homogeneity_span(model, fields):
    """Dimension of span{[s_i, s_j]_1(x)} at every sample point, against
    the type -1 intrinsic form; singular values below 1e-6 of the largest
    count as zero.  It fails closed: a point whose bracket matrix has a
    NaN or infinite entry gets dimension -1, which no check accepts."""
    dims = []
    eta = model.eta_hat[1:, None, None]
    for point in model.sample_points(8):
        values = [s.eval(model, point.x, point.patch) for s in fields]
        values = np.array(values, dtype=float).reshape(len(fields), model.N).T
        # c[i, a, b] = h(gamma^M_(e_i) s_a, s_b) / eta_i
        c = np.swapaxes(point.gammas @ values, 1, 2) @ model.form_matrix @ values / eta
        mat = (np.moveaxis(c, 0, -1) @ point.frame.T).reshape(-1, model.dim)
        if not np.isfinite(mat).all():
            dims.append(-1)
            continue
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
    n, eta = signature.n, signature.eta()
    gammas = rep.generators[:, None] * rep.generators[None]  # gamma_k gamma_l at [k, l]
    block = [b for b, size in enumerate(factors) for _ in range(size)]
    lam_sq = Fraction(killing_number) ** 2

    def riemann(i, j, k, l):
        if not block[i] == block[j] == block[k] == block[l]:
            return 0
        return eta[i] * eta[j] * ((i == k) * (j == l) - (i == l) * (j == k))

    for i, j in combinations(range(n), 2):
        # 4 R_spin(e_i, e_j) = -sum over k != l of R_ijkl eta_k eta_l gamma_k gamma_l
        terms = [
            (-r * eta[k] * eta[l], gammas[k, l])
            for k, l in permutations(range(n), 2)
            if (r := riemann(i, j, k, l))
        ]
        terms += [(4 * lam_sq, gammas[i, j]), (-4 * lam_sq, gammas[j, i])]
        g_ij = gammas[i, j]
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
    h, n = model.step, model.n
    target = 4.0 * n * (n - 1) * killing_number**2
    points = model.sample_points(8)
    xs, directions = _stack(model, points)
    patches = [point.patch for point in points for _ in range(2 * n)]
    ends = _ends(model, xs, directions).reshape(-1, model.dim)
    frames = model.tangent_frame(ends, patches).reshape(len(xs), n, 2, model.dim, n)
    # de[:, i] is the derivative of the frame along e_i
    de = (frames[:, :, 0] - frames[:, :, 1]) / (2.0 * h)
    alpha = model.g_hat(np.swapaxes(de, 2, 3), xs[:, None, None])
    diag = np.diagonal(alpha, axis1=1, axis2=2)
    eta = model.eta_hat[1:]
    terms = eta[:, None] * eta * (diag[:, :, None] * diag[:, None, :] - alpha**2)
    # the terms i = j vanish; accumulate adds the others in the order (i, j)
    scal = np.cumsum(terms.reshape(len(xs), n * n), axis=1)[:, -1]
    return _worst(scal - target)
