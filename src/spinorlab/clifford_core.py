"""Irreducible real Clifford representations and the actions of vectors
and basis blades.

Sign convention: generators satisfy G_i G_j + G_j G_i = -2 eta_ij Id,
so gamma_v^2 = -g(v,v) Id; positive-norm directions square to -Id.

Representations are assembled from explicit base cases (n <= 1) and the
tensor recursions against the rank-2 algebras; whenever a tensor step
produces a reducible module it is cut down by projecting onto the +1
eigenspace of an involution in the tracked commutant.  Every generator,
blade and tracked commutant element is a SignedPerm, construction is
deterministic, and each (p, q) module is built once.  A rep is certified
without a solve: first the Clifford relations, then, as these make +-G_S
the Clifford group of order 2^(n+1), the commutant dimension by its trace
count (commutant_dimension), which must be 1, 2 or 4 for type R, C or H.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact_linalg import SignedPerm


@dataclass(frozen=True)
class Signature:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("signature counts must be nonnegative")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def s(self) -> int:
        return self.p - self.q

    @property
    def s_mod8(self) -> int:
        return self.s % 8

    def eta(self) -> tuple:
        return (1,) * self.p + (-1,) * self.q

    def is_definite(self) -> bool:
        return self.p == 0 or self.q == 0

    def __str__(self):
        return f"({self.p},{self.q})"


@dataclass(frozen=True)
class CliffordRep:
    signature: Signature
    N: int
    generators: tuple
    eta: tuple
    commutant_type: str
    commutant_basis: tuple

    @property
    def n(self) -> int:
        return self.signature.n


_COMM_DIM = {"R": 1, "C": 2, "H": 4}

# rank-2 building blocks, the usual signed-permutation models
_F_POS = SignedPerm((1, 0), (1, -1))  # [[0, -1], [1, 0]], squares to -Id
_F_NEG = SignedPerm((1, 0), (1, 1))  # [[0, 1], [1, 0]], squares to +Id
_K_NEG2_A = _F_NEG
_K_NEG2_B = SignedPerm((0, 1), (1, -1))  # [[1, 0], [0, -1]]
# left multiplications by i, j on the quaternions as R^4 = (1, i, j, k)
_L_I = SignedPerm((1, 0, 3, 2), (1, -1, 1, -1))
_L_J = SignedPerm((2, 3, 0, 1), (1, -1, -1, 1))
# right multiplications by i, j, k (the commutant of the left action)
_R_I = SignedPerm((1, 0, 3, 2), (1, -1, -1, 1))
_R_J = SignedPerm((2, 3, 0, 1), (1, 1, -1, -1))
_R_K = SignedPerm((3, 2, 1, 0), (1, -1, 1, -1))


def _plus_eigenbasis(z: SignedPerm):
    """Column basis of the +1 eigenspace of a signed-permutation involution z.

    Each column is its one or two (index, value) entries; the first is
    (s, 1), and these representatives s are distinct across columns.
    """
    return [
        ((s, 1),) if t == s else ((s, 1), (t, sign))
        for s, (t, sign) in enumerate(zip(z.perm, z.signs))
        if t > s or (t == s and sign == 1)
    ]


def _restrict(m: SignedPerm, cols):
    """Express the action of m on span(cols) in that basis.

    Requires m to preserve the span; verified exactly.  A signed
    permutation that does maps each column to plus or minus another.
    """
    where = {col[0][0]: a for a, col in enumerate(cols)}
    perm, signs = [], []
    for col in cols:
        w = {m.perm[j]: m.signs[j] * x for j, x in col}
        hits = [i for i in w if i in where]
        if len(hits) != 1 or {i: w[hits[0]] * x for i, x in cols[where[hits[0]]]} != w:
            raise ArithmeticError("matrix does not preserve the eigenspace")
        perm.append(where[hits[0]])
        signs.append(w[hits[0]])
    return SignedPerm(tuple(perm), tuple(signs))


def first_square_root(elements, c):
    """The first non-scalar SignedPerm x among the elements with x x = c Id, or None."""
    scalar = SignedPerm.is_scalar_multiple_of_identity
    return next((x for x in elements if scalar(x) is None and scalar(x * x) == c), None)


def _reduce_module(positives, negatives, comm):
    """Split off +1 eigenspaces of commutant involutions until none remain."""
    while True:
        z = first_square_root(comm, 1)
        if z is None:
            return tuple(positives), tuple(negatives), tuple(comm)
        cols = _plus_eigenbasis(z)
        positives = [_restrict(g, cols) for g in positives]
        negatives = [_restrict(g, cols) for g in negatives]
        comm = [_restrict(x, cols) for x in comm if x * z == z * x]


def _classify_commutant(comm):
    """Identify the division algebra generated by tracked commutant elements."""
    j1 = first_square_root(comm, -1)
    if j1 is None:
        return "R", ()
    # j1 commutes with itself, so the anticommuting elements leave it out
    j2 = first_square_root((x for x in comm if x * j1 == -(j1 * x)), -1)
    if j2 is None:
        return "C", (j1,)
    j3 = j1 * j2
    if (j3 * j3).is_scalar_multiple_of_identity() != -1:
        raise ArithmeticError("tracked quaternion triple is inconsistent")
    return "H", (j1, j2, j3)


@lru_cache(maxsize=None)
def _build(p, q):
    """(positives, negatives, comm_elements) as tuples, built once per
    (p, q): the tensor recursion reuses each sub-signature's module, and
    no caller can change a cached one."""
    if (p, q) == (0, 0):
        return (), (), ()
    if (p, q) == (1, 0):
        return (_F_POS,), (), (_F_POS,)
    if (p, q) == (0, 1):
        return (), (SignedPerm((0,), (1,)),), ()
    if p >= 1 and q >= 1:
        sub_pos, sub_neg, sub_comm = _build(p - 1, q - 1)
        sub_n = len((sub_pos + sub_neg)[0].perm) if sub_pos or sub_neg else 1
        ident = SignedPerm.identity(sub_n)
        vol2 = _F_POS * _F_NEG
        positives = (ident.kron(_F_POS), *(g.kron(vol2) for g in sub_pos))
        negatives = (ident.kron(_F_NEG), *(g.kron(vol2) for g in sub_neg))
        comm = tuple(x.kron(SignedPerm.identity(2)) for x in sub_comm)
        return positives, negatives, comm
    if q == 0:  # p >= 2: tensor the swapped algebra with the quaternion block
        sub_pos, sub_neg, sub_comm = _build(0, p - 2)
        sub_n = len(sub_neg[0].perm) if sub_neg else 1
        ident = SignedPerm.identity(sub_n)
        vol2 = _L_I * _L_J
        positives = [ident.kron(_L_I), ident.kron(_L_J), *(g.kron(vol2) for g in sub_neg)]
        negatives = [g.kron(vol2) for g in sub_pos]
        comm = [a.kron(r) for a in (ident, *sub_comm) for r in (_R_I, _R_J, _R_K)]
        comm += [x.kron(SignedPerm.identity(4)) for x in sub_comm]
        return _reduce_module(positives, negatives, comm)
    # p == 0, q >= 2: mirror step with the split rank-2 block
    sub_pos, sub_neg, sub_comm = _build(q - 2, 0)
    sub_n = len(sub_pos[0].perm) if sub_pos else 1
    ident = SignedPerm.identity(sub_n)
    vol2 = _K_NEG2_A * _K_NEG2_B
    positives = tuple(g.kron(vol2) for g in sub_neg)
    negatives = (ident.kron(_K_NEG2_A), ident.kron(_K_NEG2_B), *(g.kron(vol2) for g in sub_pos))
    comm = tuple(x.kron(SignedPerm.identity(2)) for x in sub_comm)
    return positives, negatives, comm


def _stack(elements):
    """The (perm, sign) arrays, of shape (len(elements), N), of N x N
    SignedPerms: element a puts sign[a, c] at row perm[a, c] of column c."""
    N = len(elements[0].perm) if elements else 0
    perm = np.array([x.perm for x in elements], dtype=np.intp).reshape(-1, N)
    return perm, np.array([x.signs for x in elements], dtype=np.int64).reshape(-1, N)


def signed_products(left, right):
    """All products L_a R_b of two (perm, sign) stacks of signed
    permutations, as a (perm, sign) pair of shape (len(L), len(R), N):
    one gather."""
    (left_perm, left_sign), (right_perm, right_sign) = left, right
    return left_perm[:, right_perm], left_sign[:, right_perm] * right_sign


@lru_cache(maxsize=1024)
def generator_table(generators: tuple):
    """The exact integer table of a tuple of SignedPerm generators: their
    read-only (perm, sign) stack, of shape (n, N), built once per tuple.
    It is keyed on the generators themselves, so a rep copied with other
    generators gets its own table."""
    table = _stack(generators)
    for array in table:
        array.flags.writeable = False  # shared by every holder of the generators
    return table


def commutant_dimension(generators, N) -> int:
    """Dimension of {X : X G = G X for all generators G}; raises unless
    each G_i squares to -eta_i Id, eta_i = +-1, and the G_i anticommute.
    Those relations make +-G_S the Clifford group of order 2^(n+1), so the
    dimension is the mean of tr(g)^2 over it, 2^-n sum_S tr(G_S)^2.  Some
    G_i anticommutes with G_S, so tr(G_S) = 0 unless S is empty or, for
    odd n, every index: dim = (N^2 + [n odd] tr(G_1 ... G_n)^2) / 2^n,
    exact and O(nN).  N is read only when there are no generators."""
    generators = tuple(generators)
    # eta as each G_i^2 reads at column 0, which the relation check certifies
    eta = [-g.signs[0] * g.signs[g.perm[0]] for g in generators]
    failures = generators and clifford_relation_failures(generators, eta)
    if failures:
        raise ArithmeticError(f"generators are not Clifford: relation fails at {failures[0]}")
    return _character_count(generators) if generators else N * N


def _character_count(generators) -> int:
    """commutant_dimension's count, for generators already certified."""
    perm, sign = generator_table(generators)
    n, N = perm.shape
    v_perm, v_sign = np.arange(N), np.ones(N, dtype=np.int64)
    for g_perm, g_sign in zip(perm, sign):  # the volume G_1 ... G_n
        v_perm, v_sign = v_perm[g_perm], g_sign * v_sign[g_perm]
    trace = int(v_sign[v_perm == np.arange(N)].sum()) if n % 2 else 0
    dim, rest = divmod(N * N + trace**2, 2**n)
    if rest:
        raise ArithmeticError(f"character count is not divisible by 2^{n}")
    return dim


def clifford_relation_failures(generators, eta):
    """(i, j) pairs, i <= j in row-major order, where
    G_i G_j + G_j G_i != -2 eta_ij Id for the diagonal metric eta:
    G_i^2 != -eta_i Id, or G_i G_j != -G_j G_i for i < j.

    The generators are SignedPerms, such as a real rep's; the check reads
    the diagonal and the antisymmetry of their product table."""
    table = generator_table(tuple(generators))
    n, N = table[0].shape
    perm, sign = signed_products(table, table)
    bad = (perm != perm.swapaxes(0, 1)).any(axis=2) | (sign != -sign.swapaxes(0, 1)).any(axis=2)
    diag = np.arange(n)
    bad[diag, diag] = (perm[diag, diag] != np.arange(N)).any(axis=1) | (
        sign[diag, diag] != -np.asarray(eta)[:, None]
    ).any(axis=1)
    return [(int(i), int(j)) for i, j in np.argwhere(np.triu(bad))]


def certify_relations(rep: CliffordRep):
    """Raise ArithmeticError naming the first (i, j) of
    clifford_relation_failures on the rep's generators and eta."""
    failures = clifford_relation_failures(rep.generators, rep.eta)
    if failures:
        i, j = failures[0]
        raise ArithmeticError(f"Clifford relation failed at ({i},{j}) for {rep.signature}")


def _verify_rep(rep: CliffordRep):
    certify_relations(rep)
    if rep.commutant_basis:
        gens, comm = generator_table(rep.generators), _stack(rep.commutant_basis)
        x_g, g_x = signed_products(comm, gens), signed_products(gens, comm)
        if any((a != b.swapaxes(0, 1)).any() for a, b in zip(x_g, g_x)):
            raise ArithmeticError(f"commutant element fails for {rep.signature}")
    dim = _character_count(rep.generators)  # the relations hold: no solve
    if dim != _COMM_DIM[rep.commutant_type]:
        raise ArithmeticError(f"commutant dimension {dim} does not match type {rep.commutant_type}")


@lru_cache(maxsize=None)
def _build_rep_cached(p, q):
    positives, negatives, comm = _build(p, q)
    gens, sig = positives + negatives, Signature(p, q)
    rep = CliffordRep(sig, len(gens[0].perm), gens, sig.eta(), *_classify_commutant(comm))
    _verify_rep(rep)
    return rep


def build_rep(sig: Signature) -> CliffordRep:
    if sig.n < 1:
        raise ValueError("need at least one generator")
    return _build_rep_cached(sig.p, sig.q)


def gamma_vector(rep: CliffordRep, v) -> list:
    """gamma_v's N columns as {row: coefficient} dicts with at most n
    entries each, some of which may cancel to 0: column j is
    sum_i v_i signs_i[j] e_{perm_i[j]}."""
    if len(v) != rep.n:
        raise ValueError("vector length mismatch")
    cols = [{} for _ in range(rep.N)]
    for c, g in zip(v, rep.generators):
        if c:
            for col, i, s in zip(cols, g.perm, g.signs):
                col[i] = col.get(i, 0) + (c if s == 1 else -c)
    return cols


def metric_value(eta, v, w):
    return sum(e * a * b for e, a, b in zip(eta, v, w))


# ---------------------------------------------------------------------------
# blades


@lru_cache(maxsize=None)
def blade_index_list(n, k):
    return list(itertools.combinations(range(n), k))


def gamma_blade(rep: CliffordRep, indices) -> SignedPerm:
    out = SignedPerm.identity(rep.N)
    for i in indices:
        out = out * rep.generators[i]
    return out


def null_direction(sig: Signature):
    """The integer null vector p = f + e of the first positive direction f
    and the first negative direction e."""
    if sig.p == 0 or sig.q == 0:
        raise ValueError("needs indefinite signature")
    p_vec = [0] * sig.n
    p_vec[0] = p_vec[sig.p] = 1
    return p_vec


def even_subalgebra_images(rep_cone: CliffordRep):
    """Images e_i e_0 of the base generators in the cone's even subalgebra."""
    g0 = rep_cone.generators[0]
    return [rep_cone.generators[i] * g0 for i in range(1, rep_cone.n)]


def rep_table(max_n: int):
    """(p, q, N, commutant) rows for all signatures with 1 <= p+q <= max_n."""
    rows = []
    for n in range(1, max_n + 1):
        for p in range(n, -1, -1):
            rep = build_rep(Signature(p, n - p))
            rows.append(
                {
                    "p": p,
                    "q": n - p,
                    "N": rep.N,
                    "commutant": rep.commutant_type,
                }
            )
    return rows
