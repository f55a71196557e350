"""Irreducible real Clifford representations and the actions of vectors
and basis blades.

Sign convention: generators satisfy G_i G_j + G_j G_i = -2 eta_ij Id,
so gamma_v^2 = -g(v,v) Id; positive-norm directions square to -Id.

Representations are assembled from explicit base cases (n <= 1) and the
tensor recursions against the rank-2 algebras; whenever a tensor step
produces a reducible module it is cut down by projecting onto the +1
eigenspace of an involution in the tracked commutant.  Every generator,
blade and tracked commutant element is a SignedPerm, and construction
is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .exact_linalg import SignedPerm, signed_relation_basis


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
            return positives, negatives, comm
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


def _build(p, q):
    """Returns (positives, negatives, comm_elements)."""
    if (p, q) == (0, 0):
        return [], [], []
    if (p, q) == (1, 0):
        return [_F_POS], [], [_F_POS]
    if (p, q) == (0, 1):
        return [], [SignedPerm((0,), (1,))], []
    if p >= 1 and q >= 1:
        sub_pos, sub_neg, sub_comm = _build(p - 1, q - 1)
        sub_n = len((sub_pos + sub_neg)[0].perm) if sub_pos or sub_neg else 1
        ident = SignedPerm.identity(sub_n)
        vol2 = _F_POS * _F_NEG
        positives = [ident.kron(_F_POS)] + [g.kron(vol2) for g in sub_pos]
        negatives = [ident.kron(_F_NEG)] + [g.kron(vol2) for g in sub_neg]
        comm = [x.kron(SignedPerm.identity(2)) for x in sub_comm]
        return positives, negatives, comm
    if q == 0:  # p >= 2: tensor the swapped algebra with the quaternion block
        sub_pos, sub_neg, sub_comm = _build(0, p - 2)
        sub_n = len(sub_neg[0].perm) if sub_neg else 1
        ident = SignedPerm.identity(sub_n)
        vol2 = _L_I * _L_J
        positives = [ident.kron(_L_I), ident.kron(_L_J)] + [
            g.kron(vol2) for g in sub_neg
        ]
        negatives = [g.kron(vol2) for g in sub_pos]
        comm = []
        for a in [ident] + list(sub_comm):
            for r in (_R_I, _R_J, _R_K):
                comm.append(a.kron(r))
        comm += [x.kron(SignedPerm.identity(4)) for x in sub_comm]
        return _reduce_module(positives, negatives, comm)
    # p == 0, q >= 2: mirror step with the split rank-2 block
    sub_pos, sub_neg, sub_comm = _build(q - 2, 0)
    sub_n = len(sub_pos[0].perm) if sub_pos else 1
    ident = SignedPerm.identity(sub_n)
    vol2 = _K_NEG2_A * _K_NEG2_B
    positives = [g.kron(vol2) for g in sub_neg]
    negatives = [ident.kron(_K_NEG2_A), ident.kron(_K_NEG2_B)] + [
        g.kron(vol2) for g in sub_pos
    ]
    comm = [x.kron(SignedPerm.identity(2)) for x in sub_comm]
    return positives, negatives, comm


def commutant_dimension(generators, N) -> int:
    """Dimension of {X : X G = G X for all generators G}."""
    return len(signed_relation_basis(N, [(g, g) for g in generators]))


def clifford_relation_failures(generators, eta):
    """(i, j) pairs, i <= j in row-major order, where
    G_i G_j + G_j G_i != -2 eta_ij Id for the diagonal metric eta:
    G_i^2 != -eta_i Id, or G_i G_j != -G_j G_i for i < j.

    The generators are SignedPerms, such as a real rep's."""
    failures = []
    for i, gi in enumerate(generators):
        if (gi * gi).is_scalar_multiple_of_identity() != -eta[i]:
            failures.append((i, i))
        for j in range(i + 1, len(generators)):
            gj = generators[j]
            if gi * gj != -(gj * gi):
                failures.append((i, j))
    return failures


def _verify_rep(rep: CliffordRep):
    failures = clifford_relation_failures(rep.generators, rep.eta)
    if failures:
        i, j = failures[0]
        raise ArithmeticError(
            f"Clifford relation failed at ({i},{j}) for {rep.signature}"
        )
    for x in rep.commutant_basis:
        for g in rep.generators:
            if x * g != g * x:
                raise ArithmeticError(f"commutant element fails for {rep.signature}")
    dim = commutant_dimension(rep.generators, rep.N)
    if dim != _COMM_DIM[rep.commutant_type]:
        raise ArithmeticError(
            f"commutant dimension {dim} does not match type {rep.commutant_type}"
        )


@lru_cache(maxsize=None)
def _build_rep_cached(p, q):
    positives, negatives, comm = _build(p, q)
    gens = positives + negatives
    N = len(gens[0].perm) if gens else 1
    ctype, cbasis = _classify_commutant(comm)
    rep = CliffordRep(
        signature=Signature(p, q),
        N=N,
        generators=tuple(gens),
        eta=Signature(p, q).eta(),
        commutant_type=ctype,
        commutant_basis=cbasis,
    )
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
