"""The spinor-to-polyvector bracket and the pointwise rank lemmas.

bracket_k solves g([s,t]_k, xi) = h(gamma_xi s, t) for the unique
degree-k polyvector; everything here is exact coordinate linear algebra
on a fixed spinor module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .admissible_forms import BilinearForm
from .clifford_core import (
    CliffordRep,
    Polyvector,
    blade_index_list,
    gamma_blade,
    gamma_vector,
    metric_value,
    null_pair,
)
from .exact_linalg import Matrix, clear_denominators, column_space_basis, kernel, rank


@dataclass(frozen=True)
class SpinorSubspace:
    rep: CliffordRep
    basis: Matrix  # N x d, full column rank

    def __post_init__(self):
        if self.basis.rows != self.rep.N:
            raise ValueError("basis rows must equal the module dimension")
        # a row whose one nonzero is in column j marks j; rows marking every
        # column form a nonsingular diagonal minor (kernel bases have one)
        rows = (row for row in self.basis.data if sum(map(bool, row)) == 1)
        marked = {next(j for j, x in enumerate(row) if x) for row in rows}
        if len(marked) < self.basis.cols and rank(self.basis) != self.basis.cols:
            raise ValueError("basis columns must be independent")

    @property
    def dim(self):
        return self.basis.cols

    @classmethod
    def trivial(cls, rep):
        return cls(rep, Matrix([[] for _ in range(rep.N)]))


def _column(values):
    return Matrix.column(list(values))


def bracket_k(rep: CliffordRep, form: BilinearForm, s, t, k: int) -> Polyvector:
    """The degree-k polyvector with g(., e_I) = h(gamma_{e_I} s, t).

    For k = 0 this is the scalar h(s, t).
    """
    if not 0 <= k <= rep.n:
        raise ValueError("degree out of range")
    h = form.matrix
    s_col = _column(s)
    t_col = _column(t)
    coeffs = []
    for indices in blade_index_list(rep.n, k):
        g_i = gamma_blade(rep, indices)
        val = ((g_i * s_col).transpose() * h * t_col)[0, 0]
        denom = 1
        for i in indices:
            denom *= rep.eta[i]
        coeffs.append(val if denom == 1 else -val)
    return Polyvector(rep.n, k, tuple(coeffs))


def null_kernel(rep: CliffordRep, form: BilinearForm, v) -> SpinorSubspace:
    """L_v = ker gamma_v for a nonzero null vector, with the lemma checks:
    dim = N/2, ker = im, and the h-pairing vanishes on L_v x L_v.
    """
    if all(not c for c in v):
        raise ValueError("null vector must be nonzero")
    if rep.signature.is_definite():
        raise ValueError("definite signature admits no nonzero null vectors")
    if metric_value(rep.eta, v, v) != 0:
        raise ValueError("not null")
    gv = gamma_vector(rep, v)
    basis = kernel(gv)
    if 2 * basis.cols != rep.N:
        raise ArithmeticError("kernel dimension is not N/2")
    if not (gv * gv).is_zero():
        raise ArithmeticError("gamma_v squared must vanish on a null vector")
    # im = ker follows from gv^2 = 0 plus the dimension count; isotropy
    # is checked on K D, D the invertible diagonal of column denominators
    k_d = Matrix.from_columns([clear_denominators(c) for c in basis.columns()])
    if not (k_d.transpose() * (form.matrix * k_d)).is_zero():
        raise ArithmeticError("kernel is not h-isotropic")
    return SpinorSubspace(rep, basis)


def obstruction_vectors(rep: CliffordRep, form: BilinearForm, space: SpinorSubspace) -> Matrix:
    """Basis of {v : gamma_v S0 is h-orthogonal to S0}, an n x k matrix.

    The restricted bracket S0 x S0 -> R^n is surjective exactly when
    this space is zero.
    """
    d = space.dim
    if d == 0:
        return Matrix.identity(rep.n)
    # one d x d pairing block B^T H gamma_i B per generator; row (a, c)
    # of the obstruction system collects entry (a, c) of every block
    b = space.basis
    bt_h = b.transpose() * form.matrix
    blocks = [bt_h * (g * b) for g in rep.generators]
    # every block is (sigma*tau)-symmetric, so row (c, a) is +-row (a, c)
    rows = [[blk.data[a][c] for blk in blocks] for a in range(d) for c in range(a, d)]
    return kernel(Matrix(rows))


def pi_image(rep: CliffordRep, form: BilinearForm, a: SpinorSubspace, b: SpinorSubspace):
    """(dimension, basis) of span{[s,t]_1 : s in A, t in B} over basis pairs.

    Column (i, j) is bracket_k(A_i, B_j, 1), read out of the d_A x d_B
    pairing blocks (gamma_k A)^T H B, one per generator.
    """
    if not a.dim or not b.dim:
        return 0, Matrix([[] for _ in range(rep.n)])
    blocks = [(g * a.basis).transpose() * form.matrix * b.basis for g in rep.generators]
    cols = [
        [blk.data[i][j] if e == 1 else -blk.data[i][j] for blk, e in zip(blocks, rep.eta)]
        for i in range(a.dim)
        for j in range(b.dim)
    ]
    basis = column_space_basis(Matrix.from_columns(cols))
    return basis.cols, basis


@dataclass(frozen=True)
class BetaReport:
    matrix: Matrix
    rank: int
    symmetry: int | None  # sigma*tau when the form matrix is (anti)symmetric


def beta_form(rep: CliffordRep, form: BilinearForm, v) -> BetaReport:
    """beta = H gamma_v with its exact rank and verified symmetry sigma*tau."""
    beta = form.matrix * gamma_vector(rep, v)
    st = form.sigma * form.tau
    bt = beta.transpose()
    if bt != beta.scale(st):
        raise ArithmeticError("beta does not have symmetry sigma*tau")
    return BetaReport(matrix=beta, rank=rank(beta), symmetry=st if not beta.is_zero() else None)


def random_spinor(rep: CliffordRep, rng):
    """Seeded integer spinor with entries in -3..3."""
    return [rng.randint(-3, 3) for _ in range(rep.N)]


def random_null_vector(sig, rng):
    """Nonzero null vector built from a hyperbolic pair: given any z with
    g(z,p) != 0 for null p, the vector 2 g(z,p) z - g(z,z) p is null;
    z has entries in -3..3."""
    eta = sig.eta()
    p_vec, _ = null_pair(sig)
    while True:
        z = [rng.randint(-3, 3) for _ in range(sig.n)]
        gzp = metric_value(eta, z, p_vec)
        if gzp == 0:
            continue
        gzz = metric_value(eta, z, z)
        v = [2 * gzp * zi - gzz * pi for zi, pi in zip(z, p_vec)]
        if any(v):
            return v


def random_subspace(rep: CliffordRep, dim: int, rng, bound=3) -> SpinorSubspace:
    """Seeded integer subspace of the given dimension with rank repair;
    dimension 0 gives the trivial subspace without drawing."""
    if dim < 0:
        raise ValueError(f"subspace dimension {dim} is negative")
    if dim > rep.N:
        raise ValueError("dimension exceeds the module")
    if dim == 0:
        return SpinorSubspace.trivial(rep)
    cols = []
    echelon = []  # (pivot, integer row) per accepted column, reduced in order
    while len(cols) < dim:
        cand = [rng.randint(-bound, bound) for _ in range(rep.N)]
        r = cand
        for p, v in echelon:
            if r[p]:
                r = [v[p] * x - r[p] * y for x, y in zip(r, v)]
        pivot = next((m for m, x in enumerate(r) if x), None)
        if pivot is not None:  # cand is outside the span of the accepted columns
            g = gcd(*r)
            echelon.append((pivot, [x // g for x in r]))
            cols.append(cand)
    return SpinorSubspace(rep, Matrix.from_columns(cols))
