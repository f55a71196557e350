"""The spinor-to-polyvector bracket and the pointwise rank lemmas.

bracket_k solves g([s,t]_k, xi) = h(gamma_xi s, t) for the coefficients
of the unique degree-k polyvector; everything here is exact coordinate
linear algebra on a fixed spinor module.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .admissible_forms import BilinearForm, form_relation_failures
from .clifford_core import (
    CliffordRep,
    blade_index_list,
    certify_relations,
    gamma_blade,
    gamma_vector,
    metric_value,
    null_direction,
)
from .exact_linalg import Echelon, term_rows


@dataclass(frozen=True)
class SpinorSubspace:
    rep: CliffordRep
    basis: tuple  # d independent columns of length N

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if any(len(col) != self.rep.N for col in self.basis):
            raise ValueError("basis columns must have the module dimension")
        # a row whose one nonzero is in column j marks j; rows marking every
        # column form a nonsingular diagonal minor (kernel bases have one)
        rows = (row for row in zip(*self.basis) if sum(map(bool, row)) == 1)
        marked = {next(j for j, x in enumerate(row) if x) for row in rows}
        if len(marked) < self.dim and len(Echelon(self.basis)) != self.dim:
            raise ValueError("basis columns must be independent")

    @classmethod
    def _certified(cls, rep, basis):
        """A subspace on columns that the caller has already certified
        independent, skipping the check in __post_init__."""
        space = object.__new__(cls)
        object.__setattr__(space, "rep", rep)
        object.__setattr__(space, "basis", tuple(basis))
        return space

    @property
    def dim(self):
        return len(self.basis)

    @classmethod
    def trivial(cls, rep):
        return cls(rep, ())


def bracket_k(rep: CliffordRep, form: BilinearForm, s, t, k: int) -> tuple:
    """The coefficients of the degree-k polyvector with
    g(., e_I) = h(gamma_{e_I} s, t), over the increasing multi-indices I
    of blade_index_list(n, k).

    For k = 0 this is the 1-tuple of the scalar h(s, t).
    """
    if not 0 <= k <= rep.n:
        raise ValueError("degree out of range")
    ht = form.matrix.apply(t)
    coeffs = []
    for indices in blade_index_list(rep.n, k):
        val = sum(map(mul, gamma_blade(rep, indices).apply(s), ht))
        denom = 1
        for i in indices:
            denom *= rep.eta[i]
        coeffs.append(val if denom == 1 else -val)
    return tuple(coeffs)


def check_null_vector(rep: CliffordRep, v):
    """Raise ValueError unless v is a nonzero null vector of an
    indefinite signature."""
    if all(not c for c in v):
        raise ValueError("null vector must be nonzero")
    if rep.signature.is_definite():
        raise ValueError("definite signature admits no nonzero null vectors")
    if metric_value(rep.eta, v, v) != 0:
        raise ValueError("not null")


def null_kernel(rep: CliffordRep, form: BilinearForm, v) -> SpinorSubspace:
    """A basis of L_v = ker gamma_v for a nonzero null vector.

    beta_form certifies the lemma's premises (so dim = N/2, ker = im,
    h-isotropic) and raises when one fails; the basis comes from an
    elimination, and its count and its h-pairing are checked again here.
    """
    check_null_vector(rep, v)
    beta_form(rep, form, [v])
    basis = Echelon(term_rows(gamma_vector(rep, v), rep.N)).kernel(rep.N)
    if 2 * len(basis) != rep.N:
        raise ArithmeticError("kernel dimension is not N/2")
    if not isotropic(form, basis):
        raise ArithmeticError("kernel is not h-isotropic")
    return SpinorSubspace(rep, basis)


def isotropic(form: BilinearForm, basis) -> bool:
    """Whether h(b_i, b_j) = 0 for every pair of basis columns, checked
    for i <= j (h is sigma-symmetric) as b_i . (H b_j), H b_j a gather."""
    for j, b_j in enumerate(basis):
        h_bj = form.matrix.apply(b_j)
        if any(sum(map(mul, b_i, h_bj)) for b_i in basis[: j + 1]):
            return False
    return True


def _pairing_echelon(rep, form, a: SpinorSubspace, b: SpinorSubspace) -> Echelon:
    """An Echelon of the h-pairing rows r_(i,j) = (h(a_i, gamma_k b_j))_k,
    k < n, over the basis pairs, j-major, stopped at rank n.

    Row (i, j) is a_i . (H G_k b_j): each element of the (n, N) stack
    H G gathers b_j.  When a is b only the rows i <= j are formed: every
    block B^T H gamma_k B is (sigma*tau)-symmetric, so row (j, i) is
    +-row (i, j).
    """
    echelon = Echelon()
    hg = list(form.matrix * rep.generators)
    for j, b_j in enumerate(b.basis):
        hg_b = [x.apply(b_j) for x in hg]
        for a_i in a.basis[: j + 1] if a is b else a.basis:
            if echelon.add([sum(map(mul, a_i, x)) for x in hg_b]) and len(echelon) == rep.n:
                return echelon
    return echelon


def obstruction_vectors(rep: CliffordRep, form: BilinearForm, space: SpinorSubspace) -> list:
    """Basis of {v : gamma_v S0 is h-orthogonal to S0}, as n-vectors.

    This is the kernel of the pairing rows of (S0, S0): the restricted
    bracket S0 x S0 -> R^n is surjective exactly when it is zero.  Rank
    n certifies the zero space without a kernel solve.
    """
    if space.dim == 0:
        return [[int(i == j) for i in range(rep.n)] for j in range(rep.n)]
    echelon = _pairing_echelon(rep, form, space, space)
    if len(echelon) == rep.n:
        return []
    return echelon.kernel(rep.n)


def pi_image(rep: CliffordRep, form: BilinearForm, a: SpinorSubspace, b: SpinorSubspace) -> int:
    """dim span{[s,t]_1 : s in A, t in B}, the rank of the pairing rows
    of (A, B).

    The bracket of basis pair (i, j) is tau diag(eta) r_(i,j), since
    g([s,t]_1, e_k) = h(gamma_k s, t) = tau h(s, gamma_k t), so the
    image and the row space have one dimension; by the same identity
    the image is the g-orthogonal complement of the obstruction space
    when A = B.
    """
    return len(_pairing_echelon(rep, form, a, b))


def beta_form(rep: CliffordRep, form: BilinearForm, vectors) -> list:
    """For each v of the vectors, rank beta = rank gamma_v for
    beta = H gamma_v (H is a signed permutation, so invertible): N when
    g(v,v) != 0, 0 when v = 0, and N/2 for a nonzero null v.

    The lemma's premises are facts of the rep and the form, certified
    once per call on the ones given, which need not come from build_rep:
    the relation table G_i G_j + G_j G_i = -2 eta_ij Id
    (certify_relations), and H^T = sigma H with G_i^T H = tau H G_i for
    every generator (form_relation_failures).  Either failing raises the
    ArithmeticError that names the failed pair or generator; each vector
    then needs only its length and g(v,v), exactly.

    Proof.  By polarization the table gives, for every v,
    gamma_v^2 = sum_i v_i^2 G_i^2 + sum_(i<j) v_i v_j (G_i G_j + G_j G_i)
    = -g(v,v) Id, so g(v,v) != 0 makes gamma_v invertible.  Let v be null
    and nonzero, and k the first index with v_k != 0.  The table also
    gives gamma_v G_k + G_k gamma_v = c Id with c = -2 eta_k v_k != 0.
    Rank is subadditive and rank(XY) <= rank X, so
    N = rank(c Id) <= rank(gamma_v G_k) + rank(G_k gamma_v)
    <= 2 rank gamma_v.  gamma_v^2 = 0 puts im gamma_v inside ker gamma_v,
    so rank gamma_v <= N/2.  Hence rank gamma_v = N/2 and
    L_v = ker gamma_v = im gamma_v.  L_v is h-isotropic: the form
    relations give beta^T = sum_i v_i G_i^T H^T = sigma tau beta, so
    gamma_v^T beta = sigma tau (H gamma_v^2)^T = 0, and h vanishes on
    im gamma_v.
    """
    if any(len(v) != rep.n for v in vectors):
        raise ValueError("vector length mismatch")
    certify_relations(rep)
    failures = form_relation_failures(rep, form)
    if failures:
        i = failures[0]
        wrong = "H^T = sigma H" if i is None else f"G_{i}^T H = tau H G_{i}"
        raise ArithmeticError(f"admissible form relation {wrong} fails for {rep.signature}")
    return [rep.N if metric_value(rep.eta, v, v) else rep.N // 2 if any(v) else 0 for v in vectors]


def random_integers(rng, count, bound) -> list:
    """count draws of rng.randint(-bound, bound), read from
    rng.getrandbits by the same rejection sampler randint uses, so the
    values and the generator's state after them are randint's."""
    width = 2 * bound + 1
    k = width.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= width:
            r = bits(k)
        out.append(r - bound)
    return out


def random_spinor(rep: CliffordRep, rng):
    """Seeded integer spinor with entries in -3..3."""
    return random_integers(rng, rep.N, 3)


def random_null_vector(sig, rng):
    """Nonzero null vector built from null_direction's p: given any z
    with g(z,p) != 0, the vector 2 g(z,p) z - g(z,z) p is null;
    z has entries in -3..3."""
    eta = sig.eta()
    p_vec = null_direction(sig)
    while True:
        z = random_integers(rng, sig.n, 3)
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
    echelon = Echelon()
    while len(cols) < dim:
        cand = random_integers(rng, rep.N, bound)
        if echelon.add(cand):  # cand is outside the span of the accepted columns
            cols.append(cand)
    return SpinorSubspace._certified(rep, cols)
