"""Irreducible real Clifford representations and the actions of vectors
and basis blades.

Sign convention: generators satisfy G_i G_j + G_j G_i = -2 eta_ij Id,
so gamma_v^2 = -g(v,v) Id; positive-norm directions square to -Id.

Representations are assembled from explicit base cases (n <= 1) and the
tensor recursions against the rank-2 algebras; whenever a tensor step
produces a reducible module it is cut down by projecting onto the +1
eigenspace of an involution in the tracked commutant.  Every generator,
blade and tracked commutant element is a SignedPerm; a rep holds its
generators as one (n, N) stack, and the recursion's Kronecker products,
products and restrictions are index gathers over whole stacks.
Construction is deterministic, and each (p, q) module is built once.  A
rep is certified without a solve: first the Clifford relations, then, as
these make +-G_S the Clifford group of order 2^(n+1), the commutant
dimension by its trace count (character_dimension), which must be 1, 2
or 4 for type R, C or H.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod

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
    """Generators G_i as one (n, N) SignedPerm stack; commutant basis (k, N)."""

    signature: Signature
    generators: SignedPerm
    eta: tuple
    commutant_type: str
    commutant_basis: SignedPerm

    @property
    def n(self) -> int:
        return self.signature.n

    @property
    def N(self) -> int:
        return self.generators.N


_COMM_DIM = {"R": 1, "C": 2, "H": 4}

# rank-2 building blocks, the usual signed-permutation models
_F_POS = SignedPerm([1, 0], [1, -1])  # [[0, -1], [1, 0]], squares to -Id
_F_NEG = SignedPerm([1, 0], [1, 1])  # [[0, 1], [1, 0]], squares to +Id
_K_NEG2 = SignedPerm([[1, 0], [0, 1]], [[1, 1], [1, -1]])  # _F_NEG, [[1, 0], [0, -1]]
# left multiplications by i, j on the quaternions as R^4 = (1, i, j, k)
_L_IJ = SignedPerm([[1, 0, 3, 2], [2, 3, 0, 1]], [[1, -1, 1, -1], [1, -1, -1, 1]])
# right multiplications by i, j, k (the commutant of the left action)
_R_IJK = SignedPerm([[1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                    [[1, -1, -1, 1], [1, 1, -1, -1], [1, -1, 1, -1]])
_NONE = SignedPerm(np.zeros((0, 1)), np.zeros((0, 1)))  # the empty stack of 1 x 1 elements


def _restrict(m: SignedPerm, z: SignedPerm) -> SignedPerm:
    """The action of the stack m on the +1 eigenspace of the involution z,
    in its basis e_s + z e_s over the s with z.perm[s] > s, or e_s alone
    where z e_s = e_s, in order of s.

    m must commute with z, which is verified.  Then m e_s = +-e_u makes
    m (e_s + z e_s) = +-(e_u + z e_u), which is the basis column of
    min(u, z.perm[u]), times z's sign at that column when u is the
    larger index.
    """
    if m * z != z * m:
        raise ArithmeticError("matrix does not commute with the involution")
    s = np.arange(z.N)
    basis = np.flatnonzero((z.perm > s) | ((z.perm == s) & (z.signs == 1)))
    column, coefficient = np.zeros(z.N, dtype=np.intp), np.ones(z.N, dtype=np.int64)
    column[basis] = column[z.perm[basis]] = np.arange(len(basis))
    coefficient[z.perm[basis]] = z.signs[basis]
    u = m.perm[..., basis]
    return SignedPerm(column[u], m.signs[..., basis] * coefficient[u])


def first_square_root(elements, c):
    """The first non-scalar element x of the (k, N) stack with x x = c Id, or None."""
    roots = np.flatnonzero((elements.scalar() == 0) & ((elements * elements).scalar() == c))
    return elements[roots[0]] if len(roots) else None


def _reduce_module(gens, comm):
    """Split off +1 eigenspaces of commutant involutions until none remain."""
    while True:
        z = first_square_root(comm, 1)
        if z is None:
            return gens, comm
        gens = _restrict(gens, z)
        comm = _restrict(comm[(comm * z).equal(z * comm)], z)


def _classify_commutant(comm):
    """Identify the division algebra generated by tracked commutant elements."""
    j1 = first_square_root(comm, -1)
    if j1 is None:
        return "R", comm[:0]
    # j1 commutes with itself, so the anticommuting elements leave it out
    j2 = first_square_root(comm[(comm * j1).equal(-(j1 * comm))], -1)
    if j2 is None:
        return "C", j1[None]
    j3 = j1 * j2
    if (j3 * j3).scalar() != -1:
        raise ArithmeticError("tracked quaternion triple is inconsistent")
    return "H", SignedPerm.concat([j1, j2, j3])


@lru_cache(maxsize=None)
def _build(p, q):
    """(generators, comm_elements) as (k, N) stacks, the p positive
    generators first, built once per (p, q): the tensor recursion reuses
    each sub-signature's module, the rep holds these generators, and no
    caller can change a cached one."""
    if (p, q) == (0, 0):
        return _NONE, _NONE
    if (p, q) == (1, 0):
        return _F_POS[None], _F_POS[None]
    if (p, q) == (0, 1):
        return SignedPerm.identity(1)[None], _NONE
    if p >= 1 and q >= 1:
        sub, sub_comm = _build(p - 1, q - 1)
        ident, vol2 = SignedPerm.identity(sub.N), _F_POS * _F_NEG
        positives = [ident.kron(_F_POS), sub[: p - 1].kron(vol2)]
        negatives = [ident.kron(_F_NEG), sub[p - 1 :].kron(vol2)]
        return SignedPerm.concat(positives + negatives), sub_comm.kron(SignedPerm.identity(2))
    if q == 0:  # p >= 2: tensor the swapped algebra, all negative, with the quaternion block
        sub, sub_comm = _build(0, p - 2)
        ident, vol2 = SignedPerm.identity(sub.N), _L_IJ[0] * _L_IJ[1]
        # a (x) r for a in (Id, *sub_comm) and r in (R_i, R_j, R_k), a-major
        comm = SignedPerm.concat([ident, sub_comm])[:, None].kron(_R_IJK)
        comm = SignedPerm.concat([comm, sub_comm.kron(SignedPerm.identity(4))])
        return _reduce_module(SignedPerm.concat([ident.kron(_L_IJ), sub.kron(vol2)]), comm)
    # p == 0, q >= 2: mirror step with the split rank-2 block on the all-positive algebra
    sub, sub_comm = _build(q - 2, 0)
    ident, vol2 = SignedPerm.identity(sub.N), _K_NEG2[0] * _K_NEG2[1]
    gens = SignedPerm.concat([ident.kron(_K_NEG2), sub.kron(vol2)])
    return gens, sub_comm.kron(SignedPerm.identity(2))


def character_dimension(generators, chi, sigma=None) -> int:
    """dim {X : X = chi_i G_i X G_i^T for every i}, or of its part with
    X^T = sigma X, for an (n, N) stack of generators whose Clifford
    relations hold (G_i^2 = -eta_i Id) and signs chi_i = +-1; exact, O(nN).

    It is the mean of chi(g) tr(g)^2 over the Clifford group +-G_S, for
    chi(G_S) = prod_(i in S) chi_i; tr(G_S) = 0 unless S is empty or, for
    odd n, every index, so it is (N^2 + [n odd] chi(w) tr(w)^2) / 2^n for
    w = G_1 ... G_n.  X -> X^T has trace 2^-n sum_S chi(G_S) tr(G_S^2) there
    (X -> A X^T A^T has trace tr(A^2)), which is N 2^-n Re((1 - i) prod_i
    (1 + i d_i)) for d_i = -chi_i eta_i, as G_S^2 = (-1)^(k(k-1)/2)
    prod_(i in S) (-eta_i) Id for |S| = k and (-1)^(k(k-1)/2) = Re((1 - i) i^k).
    The sigma part is (dim + sigma trace) / 2.  A division that is not
    exact raises ArithmeticError."""
    n, N = generators.perm.shape
    trace = int(generators.product().trace()) if n % 2 else 0  # of the volume G_1 ... G_n
    dim, rest = divmod(N * N + int(prod(chi)) * trace**2, 2**n)
    if sigma is not None:
        real, imag = 1, -1
        for c, e in zip(chi, (generators * generators).signs[:, 0].tolist()):  # e = -eta_i
            real, imag = real - c * e * imag, imag + c * e * real
        transposed, rest_t = divmod(N * real, 2**n)
        dim, rest_s = divmod(dim + sigma * transposed, 2)
        rest = rest or rest_t or rest_s
    if rest:
        raise ArithmeticError(f"character count for {n} generators is not an integer")
    return dim


def clifford_relation_failures(generators, eta):
    """(i, j) pairs, i <= j in row-major order, where
    G_i G_j + G_j G_i != -2 eta_ij Id for the diagonal metric eta:
    G_i^2 != -eta_i Id, or G_i G_j != -G_j G_i for i < j.

    The generators are an (n, N) SignedPerm stack, such as a real rep's;
    the check reads the diagonal and the antisymmetry of their (n, n, N)
    product table, whose first two axes swapped give each G_j G_i."""
    table = generators[:, None] * generators[None]
    bad = ~table.equal(-SignedPerm(table.perm.swapaxes(0, 1), table.signs.swapaxes(0, 1)))
    diag = np.arange(len(generators))
    bad[diag, diag] = table[diag, diag].scalar() != -np.asarray(eta)
    return [(int(i), int(j)) for i, j in np.argwhere(np.triu(bad))]


@lru_cache(maxsize=None)
def relation_failures(rep: CliffordRep) -> tuple:
    """clifford_relation_failures of the rep, kept per rep by content."""
    return tuple(clifford_relation_failures(rep.generators, rep.eta))


def certify_relations(rep: CliffordRep):
    """Raise ArithmeticError naming the first (i, j) of relation_failures."""
    failures = relation_failures(rep)
    if failures:
        i, j = failures[0]
        raise ArithmeticError(f"Clifford relation failed at ({i},{j}) for {rep.signature}")


@lru_cache(maxsize=None)
def _conjugation(rep: CliffordRep):
    """(J, c) for a rep of type C, kept per rep: the diagonal signed
    permutation J = diag(d) with J G_i = c_i G_i J and J j_1 = -j_1 J,
    that is d[A.perm[a]] = c d[a] at each point a for each such A and its
    sign c, whatever A's signs.  A breadth-first search over these edges
    labels each sign bit of d as an affine function over GF(2) of the
    bits of c (bit 0 the constant, bit i + 1 c_i's, as flipped by the
    edges of j_1, G_0, ..., G_(n-1)); each edge reaching a point labelled
    otherwise is one linear equation on c, whose free bits are 0.
    O(n^2 N).  Equations with no solution raise ArithmeticError."""
    edges = np.concatenate([rep.commutant_basis.perm, rep.generators.perm]).tolist()
    label, equations = [None] * rep.N, set()
    for root in range(rep.N):
        if label[root] is None:
            label[root], queue = 0, [root]
            for a in queue:  # grows while searched
                for i, perm in enumerate(edges):
                    b, step = perm[a], label[a] ^ (1 << i)
                    if label[b] is None:
                        label[b] = step
                        queue.append(b)
                    equations.add(label[b] ^ step)  # 0 where b agrees
    rows = []  # reduced equations with distinct highest bits, in decreasing order
    for eq in equations:
        for row in rows:
            eq = min(eq, eq ^ row)
        if eq == 1:
            raise ArithmeticError(f"no conjugation J of {rep.signature}: its sign equations clash")
        rows = sorted(rows + [eq] * (eq > 0), reverse=True)
    value = 1  # the constant bit, then each solved bit of c
    for row in reversed(rows):
        value |= ((row & value).bit_count() & 1) << (row.bit_length() - 1)
    signs = [1 - 2 * ((x & value).bit_count() & 1) for x in label]
    c = [1 - 2 * (value >> i & 1) for i in range(1, rep.n + 1)]
    return SignedPerm(range(rep.N), signs), np.array(c)


def twisted_commutant(rep: CliffordRep, chi) -> SignedPerm:
    """Basis of {X : X G_i = chi_i G_i X for every i}, chi_i = +-1, as a
    (k, N) stack of signed permutations G_S C J^e: C is Id or in the
    commutant basis, and J^e is Id or, on a rep of type C, _conjugation's
    J.  G_S C J^e meets the relations when c_i^e (-1)^(|S| - [i in S]) =
    chi_i, which fixes S for each parity k of |S|; the first k that S
    matches is taken (for odd n the other gives G_S times the central
    volume element, +-Id or +-j_1).  Certified, O(knN): the rep's
    relations, each element's relation, pairwise disjoint cells (so they
    are independent) and the character_dimension count (so they span);
    each failure raises ArithmeticError."""
    certify_relations(rep)
    gens, chi, ident = rep.generators, np.asarray(chi), SignedPerm.identity(rep.N)
    commutant = SignedPerm.concat([ident, rep.commutant_basis])
    twists = [(ident, 1)] + ([_conjugation(rep)] if rep.commutant_type == "C" else [])
    parts = []
    for j, c in twists:
        k = (c * chi == -1).sum() % 2  # an odd S_0 leaves S_1, its complement
        if ((in_s := (-1) ** k * c * chi == -1).sum() % 2) == k:
            parts.append(gens[in_s].product() * commutant * j)
    basis = SignedPerm.concat(parts) if parts else commutant[:0]
    left, right = basis[:, None] * gens[None], gens[None] * basis[:, None]
    for a, i in np.argwhere(~left.equal(SignedPerm(right.perm, right.signs * chi[:, None])))[:1]:
        raise ArithmeticError(f"twisted commutant element {a} of {rep.signature} "
                              f"fails its relation with generator {i}")
    if (np.diff(np.sort(basis.perm, axis=0), axis=0) == 0).any():
        raise ArithmeticError(f"twisted commutant elements of {rep.signature} share a cell")
    if len(basis) != (count := character_dimension(gens, chi.tolist())):
        raise ArithmeticError(f"{len(basis)} twisted commutant elements of {rep.signature} "
                              f"where the count is {count}")
    return basis


def _verify_rep(rep: CliffordRep):
    certify_relations(rep)
    gens, comm = rep.generators, rep.commutant_basis
    if comm[:, None] * gens[None] != gens[None] * comm[:, None]:
        raise ArithmeticError(f"commutant element fails for {rep.signature}")
    dim = character_dimension(gens, [1] * len(gens))  # the relations hold: no solve
    if dim != _COMM_DIM[rep.commutant_type]:
        raise ArithmeticError(f"commutant dimension {dim} does not match type {rep.commutant_type}")


@lru_cache(maxsize=None)
def _build_rep_cached(p, q):
    gens, comm = _build(p, q)
    sig = Signature(p, q)
    rep = CliffordRep(sig, gens, sig.eta(), *_classify_commutant(comm))
    _verify_rep(rep)
    return rep


def build_rep(sig: Signature) -> CliffordRep:
    if sig.n < 1:
        raise ValueError("need at least one generator")
    return _build_rep_cached(sig.p, sig.q)


def gamma_vector(rep: CliffordRep, v) -> list:
    """gamma_v = sum_i v_i G_i as its terms (v_i, G_i), over the nonzero
    v_i in generator order."""
    if len(v) != rep.n:
        raise ValueError("vector length mismatch")
    return [(c, g) for c, g in zip(v, rep.generators) if c]


def metric_value(eta, v, w):
    return sum(e * a * b for e, a, b in zip(eta, v, w))


# ---------------------------------------------------------------------------
# blades


@lru_cache(maxsize=None)
def blade_index_list(n, k):
    return list(itertools.combinations(range(n), k))


def gamma_blade(rep: CliffordRep, indices) -> SignedPerm:
    return rep.generators[list(indices)].product()


def null_direction(sig: Signature):
    """The integer null vector p = f + e of the first positive direction f
    and the first negative direction e."""
    if sig.p == 0 or sig.q == 0:
        raise ValueError("needs indefinite signature")
    p_vec = [0] * sig.n
    p_vec[0] = p_vec[sig.p] = 1
    return p_vec


def even_subalgebra_images(rep_cone: CliffordRep) -> SignedPerm:
    """Images e_i e_0 of the base generators in the cone's even
    subalgebra, as an (n - 1, N) stack."""
    return rep_cone.generators[1:] * rep_cone.generators[0]


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
