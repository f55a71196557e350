"""The spinor-to-polyvector bracket and the pointwise rank lemmas.

bracket_k solves g([s,t]_k, xi) = h(gamma_xi s, t) for the coefficients
of the unique degree-k polyvector; everything here is exact coordinate
linear algebra on a fixed spinor module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from .admissible_forms import BilinearForm
from .clifford_core import (
    CliffordRep,
    blade_index_list,
    gamma_blade,
    gamma_vector,
    generator_table,
    metric_value,
    null_direction,
    signed_products,
)
from .exact_linalg import Echelon, clear_denominators, dense_rows


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

    beta_form certifies the lemma (dim = N/2, ker = im, h-isotropic);
    the basis comes from an elimination, and its count and its
    h-pairing are checked again here.
    """
    check_null_vector(rep, v)
    (result,) = beta_form(rep, form, [v])
    if isinstance(result, ArithmeticError):
        raise result
    basis = Echelon(dense_rows(gamma_vector(rep, v))).kernel(rep.N)
    if 2 * len(basis) != rep.N:
        raise ArithmeticError("kernel dimension is not N/2")
    if not isotropic(form, basis):
        raise ArithmeticError("kernel is not h-isotropic")
    return SpinorSubspace(rep, basis)


def _integer_columns(basis) -> list:
    """The basis columns, each times the lcm of its denominators.  The
    scales are positive integers, so each pairing h(a_i, gamma b_j) below
    changes by a positive integer factor: zero stays zero, and a row
    system keeps its row space, hence its kernel and its rank."""
    return [clear_denominators(c) for c in basis]


def isotropic(form: BilinearForm, basis) -> bool:
    """Whether h(b_i, b_j) = 0 for every pair of basis columns, checked
    for i <= j (h is sigma-symmetric) as (H^T b_i) . b_j, H^T a gather."""
    cols = _integer_columns(basis)
    ht = form.matrix.transpose()
    h_cols = [ht.apply(c) for c in cols]
    return not any(
        sum(map(mul, h_bi, b_j)) for j, b_j in enumerate(cols) for h_bi in h_cols[: j + 1]
    )


def _pairing_echelon(rep, form, a: SpinorSubspace, b: SpinorSubspace) -> Echelon:
    """An Echelon of the h-pairing rows r_(i,j) = (h(a_i, gamma_k b_j))_k,
    k < n, over the basis pairs, j-major, stopped at rank n.

    Row (i, j) is (H^T a_i) . (gamma_k b_j): H^T gathers a_i and each
    generator gathers b_j, on _integer_columns.  When a is b only the
    rows i <= j are formed: every block B^T H gamma_k B is
    (sigma*tau)-symmetric, so row (j, i) is +-row (i, j).
    """
    echelon = Echelon()
    ht = form.matrix.transpose()
    a_cols = _integer_columns(a.basis)
    h_a = [ht.apply(c) for c in a_cols]
    for j, b_j in enumerate(a_cols if a is b else _integer_columns(b.basis)):
        g_b = [g.apply(b_j) for g in rep.generators]
        for h_ai in h_a[: j + 1] if a is b else h_a:
            if echelon.add([sum(map(mul, h_ai, x)) for x in g_b]) and len(echelon) == rep.n:
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


def _sorted_terms(keys, index, sign):
    """Terms (key, index, sign) sorted by key, as (index, sign, starts of
    the runs of one key); index and sign in the smallest dtypes that fit."""
    order = np.argsort(keys)
    keys, small = keys[order], np.min_scalar_type
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return index[order].astype(small(index.max())), sign[order].astype(np.int8), starts


def _vector_array(vectors, n):
    """A call's vectors as one (B, n) array, and M = sum_k |v_k| of each
    when every entry is a Python int (else None).  The array is int64
    when every M is below 2^62, and holds the entries themselves
    (dtype object) otherwise."""
    if any(len(v) != n for v in vectors):
        raise ValueError("vector length mismatch")
    mass = None
    if all(type(x) is int for v in vectors for x in v):
        mass = [sum(map(abs, v)) for v in vectors]
        if max(mass, default=0) < 2**62:
            return np.array(vectors, dtype=np.int64).reshape(-1, n), mass
    return np.array(vectors, dtype=object).reshape(-1, n), mass


def _coefficients(values, bounds) -> np.ndarray:
    """The vectors in the dtype of their coefficient rows: int64 when
    every entry is an int (bounds is not None) and each row's sum of
    absolute values, its bound, is below 2^62; else Python ints and
    Fractions (object)."""
    if bounds is not None and max(bounds) < 2**62:
        return values
    return values.astype(object)


def _sums_vanish(terms, rows) -> list:
    """For each coefficient row, whether the sum of signed permutations
    that the sorted terms describe vanishes: sum_t row[index_t] sign_t = 0
    over the terms t of each key (row, col), by one np.add.reduceat.  A
    key's terms read distinct coefficients, so no partial sum exceeds the
    row's sum of absolute values, the bound of _coefficients."""
    index, sign, starts = terms
    weights = rows[:, index]
    weights *= sign
    return (np.add.reduceat(weights, starts, axis=1) == 0).all(axis=1).tolist()


@lru_cache(maxsize=1024)
def _product_terms(generators: tuple):
    """The terms of sum_ij C_ij G_i G_j + c Id, sorted once per generator
    tuple: G_i G_j of signed_products puts sign[i, j, c] at (perm[i, j, c],
    c) from coefficient i n + j, C_ij; the diagonal reads n^2, c."""
    table = generator_table(generators)
    n, N = table[0].shape
    perm, sign = signed_products(table, table)
    cols = np.arange(N)
    keys = np.concatenate([(perm * N + cols).ravel(), cols * (N + 1)])
    signs = np.concatenate([sign.ravel(), np.ones(N, dtype=sign.dtype)])
    return _sorted_terms(keys, np.repeat(np.arange(n * n + 1), N), signs)


def _square_rows(values, mass, norms) -> np.ndarray:
    """The coefficients of sum_ij v_i v_j G_i G_j + g(v,v) Id for each
    vector: v (x) v flattened, then g(v,v).  A row's sum of absolute
    values is M^2 + |g(v,v)|."""
    bounds = None if mass is None else [m * m + abs(q) for m, q in zip(mass, norms)]
    values = _coefficients(values, bounds)
    B, n = values.shape
    outer = (values[:, :, None] * values[:, None, :]).reshape(B, n * n)
    return np.concatenate([outer, np.array(norms, dtype=values.dtype).reshape(B, 1)], axis=1)


def _anticommutator_rows(eta, values, mass) -> np.ndarray:
    """The coefficients of gamma_v G_k + G_k gamma_v + 2 eta_k v_k Id for
    each nonzero v, with k its first index where v_k != 0:
    C = v e_k^T + e_k v^T flattened, then 2 eta_k v_k.  A row's sum of
    absolute values is 2 M + 2 |v_k|."""
    B, n = values.shape
    at, k = np.arange(B), (values != 0).argmax(axis=1)
    pivots = values[at, k].tolist()
    bounds = None if mass is None else [2 * m + 2 * abs(x) for m, x in zip(mass, pivots)]
    values = _coefficients(values, bounds)
    C = np.zeros((B, n, n), dtype=values.dtype)
    C[at, :, k] += values
    C[at, k, :] += values
    last = 2 * np.array(eta, dtype=values.dtype)[k] * values[at, k]
    return np.concatenate([C.reshape(B, n * n), last[:, None]], axis=1)


def _beta_rows(st, values, mass) -> np.ndarray:
    """The coefficients of beta^T - sigma*tau beta for each vector: v, then
    -sigma*tau v.  A row's sum of absolute values is 2 M."""
    values = _coefficients(values, None if mass is None else [2 * m for m in mass])
    return np.concatenate([values, -st * values], axis=1)


def squares_to_scalar(rep: CliffordRep, vectors) -> list:
    """Whether gamma_v^2 = -g(v,v) Id, for each v of the vectors: whether
    sum_ij v_i v_j G_i G_j + g(v,v) Id vanishes, O(B n^2 N)."""
    values, mass = _vector_array(vectors, rep.n)
    if not len(values):
        return []
    norms = [metric_value(rep.eta, v, v) for v in vectors]
    return _sums_vanish(_product_terms(rep.generators), _square_rows(values, mass, norms))


@lru_cache(maxsize=1024)
def _beta_terms(generators: tuple, h_perm: tuple, h_signs: tuple):
    """The terms of beta^T - sigma*tau beta, beta = sum_i v_i H G_i,
    sorted once per generator tuple and form H = (h_perm, h_signs): H G_i
    puts h_sign[perm_i[c]] sign_i[c] at (h_perm[perm_i[c]], c), read at
    (c, row) from coefficient i, v_i, and at (row, c) from n + i,
    -sigma*tau v_i."""
    perm, sign = generator_table(generators)
    n, N = perm.shape
    at, cols = np.array(h_perm)[perm], np.arange(N)
    signs = (np.array(h_signs)[perm] * sign).ravel()
    keys = np.concatenate([(cols * N + at).ravel(), (at * N + cols).ravel()])
    return _sorted_terms(keys, np.repeat(np.arange(2 * n), N), np.concatenate([signs, signs]))


def beta_form(rep: CliffordRep, form: BilinearForm, vectors) -> list:
    """For each v of the vectors, rank beta = rank gamma_v for
    beta = H gamma_v (H is a signed permutation, so invertible), or the
    ArithmeticError naming the first of these Clifford identities that
    fails for v:
    - gamma_v^2 = -g(v,v) Id;
    - beta^T = sigma*tau beta.
    Then g(v,v) != 0 gives rank N, as gamma_v is invertible, and v = 0
    gives rank 0.  For a null v != 0 take the first k with v_k != 0 and
    c = -2 eta_k v_k != 0, and check
    - gamma_v gamma_k + gamma_k gamma_v = c Id.
    Then the rank is N/2.  Each identity is a vanishing sum of signed
    permutations, with no elimination and no N x N array.

    Proof.  Rank is subadditive and rank(XY) <= rank X, so
    N = rank(c Id) <= rank(gamma_v gamma_k) + rank(gamma_k gamma_v)
    <= 2 rank gamma_v.  gamma_v^2 = 0 puts im gamma_v inside ker gamma_v,
    so rank gamma_v <= N/2.  Hence rank gamma_v = N/2 and
    L_v = ker gamma_v = im gamma_v.  (So P = gamma_v gamma_k / c, which
    these identities make idempotent, has trace N/2 without a separate
    check.)  L_v is h-isotropic: beta = sigma*tau beta^T gives
    gamma_v^T beta = sigma*tau (H gamma_v^2)^T = 0, so h vanishes on
    im gamma_v.
    """
    values, mass = _vector_array(vectors, rep.n)
    if not len(values):
        return []
    norms = [metric_value(rep.eta, v, v) for v in vectors]
    squares = _sums_vanish(_product_terms(rep.generators), _square_rows(values, mass, norms))
    null = [b for b, (v, q) in enumerate(zip(vectors, norms)) if q == 0 and any(v)]
    anticommutes = {}
    if null:
        masses = None if mass is None else [mass[b] for b in null]
        rows = _anticommutator_rows(rep.eta, values[null], masses)
        anticommutes = dict(zip(null, _sums_vanish(_product_terms(rep.generators), rows)))
    h = form.matrix
    rows = _beta_rows(form.sigma * form.tau, values, mass)
    symmetric = _sums_vanish(_beta_terms(rep.generators, h.perm, h.signs), rows)

    def verdict(b, q):
        if not squares[b]:
            wanted = "must vanish on a null vector" if q == 0 else "is not -g(v,v) Id"
            return ArithmeticError(f"gamma_v squared {wanted}")
        if not symmetric[b]:
            return ArithmeticError("beta does not have symmetry sigma*tau")
        if b not in anticommutes:  # v is not null, or v = 0
            return rep.N if q else 0
        if not anticommutes[b]:
            return ArithmeticError("gamma_v gamma_k + gamma_k gamma_v is not -2 eta_k v_k Id")
        return rep.N // 2

    return [verdict(b, q) for b, q in enumerate(norms)]


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
