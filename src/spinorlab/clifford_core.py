"""Irreducible real Clifford representations and polyvector actions.

Sign convention: generators satisfy G_i G_j + G_j G_i = -2 eta_ij Id,
so gamma_v^2 = -g(v,v) Id; positive-norm directions square to -Id.

Representations are assembled from explicit base cases (n <= 1) and the
tensor recursions against the rank-2 algebras; whenever a tensor step
produces a reducible module it is cut down by projecting onto the +1
eigenspace of an involution in the tracked commutant.  Every matrix
entry stays in {-1, 0, 1} and construction is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact_linalg import Matrix, kron, signed_relation_basis


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
    def n_mod4(self) -> int:
        return self.n % 4

    @property
    def s_mod4(self) -> int:
        return self.s % 4

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


# commutant type of the irreducible real module by s mod 8; cross-checked
# against the dense commutant solver in the test suite
EXPECTED_COMMUTANT = {0: "R", 1: "C", 2: "H", 3: "H", 4: "H", 5: "C", 6: "R", 7: "R"}

_COMM_DIM = {"R": 1, "C": 2, "H": 4}

# rank-2 building blocks; entries are the usual signed-permutation models
_F_POS = Matrix([[0, -1], [1, 0]])  # squares to -Id
_F_NEG = Matrix([[0, 1], [1, 0]])  # squares to +Id
_K_NEG2_A = Matrix([[0, 1], [1, 0]])
_K_NEG2_B = Matrix([[1, 0], [0, -1]])
# left multiplications by i, j on the quaternions as R^4 = (1, i, j, k)
_L_I = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
_L_J = Matrix([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
# right multiplications by i, j, k (the commutant of the left action)
_R_I = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
_R_J = Matrix([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
_R_K = Matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]])


def signed_permutation(matrix: Matrix):
    """(perm, signs) with matrix @ e_j == signs[j] * e_perm[j], or None."""
    perm = [None] * matrix.cols
    signs = [0] * matrix.cols
    for j in range(matrix.cols):
        hit = None
        for i in range(matrix.rows):
            x = matrix.data[i][j]
            if x:
                if hit is not None or x not in (1, -1):
                    return None
                hit = i
                signs[j] = x
        if hit is None:
            return None
        perm[j] = hit
    return perm, signs


def _plus_eigenbasis(z: Matrix):
    """Column basis of the +1 eigenspace of a monomial involution z.

    Returns (columns, representatives): each column is an integer vector
    with one or two nonzero entries, and representatives[i] is the index
    where column i has entry 1 (distinct across columns).
    """
    sp = signed_permutation(z)
    if sp is None:
        raise ValueError("involution is not a signed permutation")
    perm, signs = sp
    n = z.rows
    cols = []
    reps = []
    for s in range(n):
        t = perm[s]
        if t == s:
            if signs[s] == 1:
                vec = [0] * n
                vec[s] = 1
                cols.append(vec)
                reps.append(s)
        elif t > s:
            vec = [0] * n
            vec[s] = 1
            vec[t] = signs[s]
            cols.append(vec)
            reps.append(s)
    return cols, reps


def _restrict(m: Matrix, cols, reps):
    """Express the action of m on span(cols) in that basis.

    Requires m to preserve the span; verified exactly.
    """
    n = m.rows
    d = len(cols)
    out = [[0] * d for _ in range(d)]
    for b_idx, b in enumerate(cols):
        w = [0] * n
        for i in range(n):
            row = m.data[i]
            acc = 0
            for j in range(n):
                if b[j] and row[j]:
                    acc += row[j] * b[j]
            w[i] = acc
        coeffs = [w[r] for r in reps]
        # exact check that w lies in the span with these coefficients
        recon = [0] * n
        for a, c in enumerate(coeffs):
            if c:
                col = cols[a]
                for i in range(n):
                    if col[i]:
                        recon[i] += c * col[i]
        if recon != w:
            raise ArithmeticError("matrix does not preserve the eigenspace")
        for i in range(d):
            out[i][b_idx] = coeffs[i]
    return Matrix(out)


def _commutes(a: Matrix, b: Matrix) -> bool:
    return a * b == b * a


def _reduce_module(positives, negatives, comm):
    """Split off +1 eigenspaces of commutant involutions until none remain."""
    while True:
        z = None
        for x in comm:
            if x.is_scalar_multiple_of_identity() is not None:
                continue
            if (x * x).is_scalar_multiple_of_identity() == 1:
                z = x
                break
        if z is None:
            return positives, negatives, comm
        cols, reps = _plus_eigenbasis(z)
        positives = [_restrict(g, cols, reps) for g in positives]
        negatives = [_restrict(g, cols, reps) for g in negatives]
        comm = [_restrict(x, cols, reps) for x in comm if _commutes(x, z)]


def _classify_commutant(comm, N):
    """Identify the division algebra generated by tracked commutant elements."""
    nonscalar = [x for x in comm if x.is_scalar_multiple_of_identity() is None]
    j1 = None
    for x in nonscalar:
        if (x * x).is_scalar_multiple_of_identity() == -1:
            j1 = x
            break
    if j1 is None:
        return "R", ()
    j2 = None
    for x in nonscalar:
        if x == j1:
            continue
        if (x * x).is_scalar_multiple_of_identity() == -1 and x * j1 == -(j1 * x):
            j2 = x
            break
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
        return [], [Matrix([[1]])], []
    if p >= 1 and q >= 1:
        sub_pos, sub_neg, sub_comm = _build(p - 1, q - 1)
        sub_n = sub_pos[0].rows if sub_pos else (sub_neg[0].rows if sub_neg else 1)
        ident = Matrix.identity(sub_n)
        vol2 = _F_POS * _F_NEG
        positives = [kron(ident, _F_POS)] + [kron(g, vol2) for g in sub_pos]
        negatives = [kron(ident, _F_NEG)] + [kron(g, vol2) for g in sub_neg]
        comm = [kron(x, Matrix.identity(2)) for x in sub_comm]
        return positives, negatives, comm
    if q == 0:  # p >= 2: tensor the swapped algebra with the quaternion block
        sub_pos, sub_neg, sub_comm = _build(0, p - 2)
        sub_n = sub_neg[0].rows if sub_neg else 1
        ident = Matrix.identity(sub_n)
        vol2 = _L_I * _L_J
        positives = [kron(ident, _L_I), kron(ident, _L_J)] + [
            kron(g, vol2) for g in sub_neg
        ]
        negatives = [kron(g, vol2) for g in sub_pos]
        comm = []
        for a in [ident] + list(sub_comm):
            for r in (_R_I, _R_J, _R_K):
                comm.append(kron(a, r))
        comm += [kron(x, Matrix.identity(4)) for x in sub_comm]
        return _reduce_module(positives, negatives, comm)
    # p == 0, q >= 2: mirror step with the split rank-2 block
    sub_pos, sub_neg, sub_comm = _build(q - 2, 0)
    sub_n = sub_pos[0].rows if sub_pos else 1
    ident = Matrix.identity(sub_n)
    vol2 = _K_NEG2_A * _K_NEG2_B
    positives = [kron(g, vol2) for g in sub_neg]
    negatives = [kron(ident, _K_NEG2_A), kron(ident, _K_NEG2_B)] + [
        kron(g, vol2) for g in sub_pos
    ]
    comm = [kron(x, Matrix.identity(2)) for x in sub_comm]
    return positives, negatives, comm


def signed_permutations(matrices):
    """signed_permutation of each matrix; ValueError unless every one is."""
    out = [signed_permutation(m) for m in matrices]
    if None in out:
        raise ValueError("relation matrices must be signed permutations")
    return out


def transposed(sp):
    """(perm, signs) of the transpose of the signed permutation sp."""
    perm, signs = sp
    inv, inv_signs = [0] * len(perm), [0] * len(perm)
    for j, i in enumerate(perm):
        inv[i] = j
        inv_signs[i] = signs[j]
    return inv, inv_signs


def cell_maps(pairs, N, c=1):
    """The relation X = c L X R^T on N x N matrices X as one signed cell
    map (target, sign) per pair (L, R) of signed permutations given as
    (perm, signs): cell a*N + s goes to lp[a]*N + rp[s] with sign
    c * ls[a] * rs[s].  The input of exact_linalg.signed_relation_basis."""
    maps = []
    for (lp, ls), (rp, rs) in pairs:
        target = [x * N + y for x in lp for y in rp]
        sign = [c * x * y for x in ls for y in rs]
        maps.append((target, sign))
    return maps


def commutant_vectors(matrices, N):
    """Basis of {X : X M = M X for every M in matrices}, each element as
    a flat row-major vector of N*N ints; ValueError unless every matrix
    is a signed permutation (always true for built reps)."""
    sps = signed_permutations(matrices)
    return signed_relation_basis(N * N, cell_maps([(sp, sp) for sp in sps], N))


def commutant_dimension(generators, N) -> int:
    """Dimension of {X : X G = G X for all generators G}."""
    return len(commutant_vectors(generators, N))


def clifford_relation_failures(generators, eta):
    """(i, j) pairs, i <= j in row-major order, where
    G_i G_j + G_j G_i != -2 eta_ij Id for the diagonal metric eta."""
    N = generators[0].rows
    ident = Matrix.identity(N)
    zero = Matrix.zero(N, N)
    failures = []
    for i, gi in enumerate(generators):
        for j in range(i, len(generators)):
            gj = generators[j]
            want = ident.scale(-2 * eta[i]) if i == j else zero
            if gi * gj + gj * gi != want:
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
            if not _commutes(x, g):
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
    N = gens[0].rows if gens else 1
    ctype, cbasis = _classify_commutant(comm, N)
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


def gamma_vector(rep: CliffordRep, v) -> Matrix:
    if len(v) != rep.n:
        raise ValueError("vector length mismatch")
    # the sum of the c_i G_i over nonzero c_i: every entry, zero or not,
    # takes the type of the sum of the c_i * 0
    zero = 0
    for c in v:
        if c:
            zero = zero + c * 0
    out = [[zero] * rep.N for _ in range(rep.N)]
    for c, g in zip(v, rep.generators):
        if c:
            for row, acc in zip(g.data, out):
                for j, x in enumerate(row):
                    if x:
                        acc[j] = acc[j] + c * x
    return Matrix(out)


def metric_value(eta, v, w):
    return sum(e * a * b for e, a, b in zip(eta, v, w))


# ---------------------------------------------------------------------------
# polyvectors


@lru_cache(maxsize=None)
def blade_index_list(n, k):
    return list(itertools.combinations(range(n), k))


@lru_cache(maxsize=None)
def blade_index_map(n, k):
    return {I: pos for pos, I in enumerate(blade_index_list(n, k))}


@dataclass(frozen=True)
class Polyvector:
    """Degree-k exterior element in coordinates over increasing multi-indices."""

    n: int
    k: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != len(blade_index_list(self.n, self.k)):
            raise ValueError("coefficient count mismatch")

    @classmethod
    def zero(cls, n, k):
        return cls(n, k, (0,) * len(blade_index_list(n, k)))

    @classmethod
    def scalar(cls, n, value):
        return cls(n, 0, (value,))

    @classmethod
    def from_vector(cls, coords):
        return cls(len(coords), 1, tuple(coords))

    @classmethod
    def from_blade(cls, n, indices, coeff=1):
        indices = tuple(indices)
        if list(indices) != sorted(set(indices)):
            raise ValueError("blade indices must be strictly increasing")
        k = len(indices)
        coeffs = [0] * len(blade_index_list(n, k))
        coeffs[blade_index_map(n, k)[indices]] = coeff
        return cls(n, k, tuple(coeffs))

    def coefficient(self, indices):
        return self.coeffs[blade_index_map(self.n, self.k)[tuple(indices)]]

    def __add__(self, other):
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError("degree mismatch")
        return Polyvector(
            self.n, self.k, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return Polyvector(self.n, self.k, tuple(c * a for a in self.coeffs))

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def wedge(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n, k = self.n, self.k + other.k
        out = [0] * len(blade_index_list(n, k))
        idx = blade_index_map(n, k)
        for I, a in zip(blade_index_list(n, self.k), self.coeffs):
            if not a:
                continue
            for J, b in zip(blade_index_list(n, other.k), other.coeffs):
                if not b:
                    continue
                if set(I) & set(J):
                    continue
                merged = tuple(sorted(I + J))
                sign = _merge_sign(I, J)
                out[idx[merged]] += sign * a * b
        return Polyvector(n, k, tuple(out))

    def interior(self, v, eta):
        """Metric contraction v -| self; defined by g(v -| w, xi) = g(w, v ^ xi)."""
        if self.k == 0:
            raise ValueError("cannot contract a scalar")
        n, k = self.n, self.k - 1
        out = [0] * len(blade_index_list(n, k))
        pos = blade_index_map(n, k)
        full = blade_index_map(self.n, self.k)
        for J in blade_index_list(n, k):
            acc = 0
            for i in range(n):
                if i in J or not v[i]:
                    continue
                merged = tuple(sorted((i,) + J))
                sign = _merge_sign((i,), J)
                acc += v[i] * eta[i] * sign * self.coeffs[full[merged]]
            out[pos[J]] = acc
        return Polyvector(n, k, tuple(out))

    def metric_inner(self, other, eta):
        """Extension of g with orthonormal blades orthogonal, g(e_I, e_I) = prod eta."""
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError("degree mismatch")
        acc = 0
        for I, a, b in zip(blade_index_list(self.n, self.k), self.coeffs, other.coeffs):
            if a and b:
                w = 1
                for i in I:
                    w *= eta[i]
                acc += w * a * b
        return acc


def _merge_sign(I, J):
    """Sign of sorting the concatenation I+J of disjoint increasing tuples."""
    sign = 1
    for i in I:
        for j in J:
            if i > j:
                sign = -sign
    return sign


def gamma_blade(rep: CliffordRep, indices) -> Matrix:
    out = Matrix.identity(rep.N)
    for i in indices:
        out = out * rep.generators[i]
    return out


def gamma_polyvector(rep: CliffordRep, xi: Polyvector) -> Matrix:
    if xi.n != rep.n:
        raise ValueError("dimension mismatch")
    if not 0 <= xi.k <= rep.n:
        raise ValueError("degree out of range")
    out = Matrix.zero(rep.N, rep.N)
    for I, c in zip(blade_index_list(xi.n, xi.k), xi.coeffs):
        if c:
            out = out + gamma_blade(rep, I).scale(c)
    return out


def wedge_vectors(vectors) -> Polyvector:
    n = len(vectors[0])
    out = Polyvector.from_vector(tuple(vectors[0]))
    for v in vectors[1:]:
        out = out.wedge(Polyvector.from_vector(tuple(v)))
    return out


def volume_element(rep: CliffordRep) -> Matrix:
    return gamma_blade(rep, range(rep.n))


def volume_square_sign(rep: CliffordRep) -> int:
    sq = (volume_element(rep) * volume_element(rep)).is_scalar_multiple_of_identity()
    if sq not in (1, -1):
        raise ArithmeticError("volume element square is not +-Id")
    return sq


def null_pair(sig: Signature):
    """A rational hyperbolic pair (p_vec, q_vec): both null, g(p,q) = 1.

    Uses the first positive direction f and first negative direction e:
    p = f + e, q = (f - e)/2.
    """
    if sig.p == 0 or sig.q == 0:
        raise ValueError("needs indefinite signature")
    n = sig.n
    f_idx, e_idx = 0, sig.p
    p_vec = [0] * n
    q_vec = [Fraction(0)] * n
    p_vec[f_idx] = 1
    p_vec[e_idx] = 1
    q_vec[f_idx] = Fraction(1, 2)
    q_vec[e_idx] = Fraction(-1, 2)
    return p_vec, q_vec


def even_subalgebra_images(rep_cone: CliffordRep):
    """Images e_i e_0 of the base generators in the cone's even subalgebra."""
    g0 = rep_cone.generators[0]
    return [rep_cone.generators[i] * g0 for i in range(1, rep_cone.n)]


@dataclass(frozen=True)
class ConeIsoReport:
    ok: bool
    base_signature: Signature
    cone_signature: Signature
    checked: int
    failures: tuple


def cone_even_iso(rep_base: CliffordRep, rep_cone: CliffordRep) -> ConeIsoReport:
    """Check that e_i e_0 -> e_i extends to an isomorphism of the cone's
    even subalgebra onto the base Clifford algebra.

    Generator 0 of the cone rep is the new positive-norm direction; the
    correspondence is verified through exact matrix identities on the
    defining relations of both sides.
    """
    base = rep_base.signature
    cone = rep_cone.signature
    if (cone.p, cone.q) != (base.p + 1, base.q):
        raise ValueError("cone signature must be (p+1, q) over the base")
    n = base.n
    even_failures = clifford_relation_failures(even_subalgebra_images(rep_cone), base.eta())
    base_failures = clifford_relation_failures(rep_base.generators, base.eta())
    failures = []
    checked = 0
    for i in range(n):
        for j in range(i, n):
            if (i, j) in even_failures:
                failures.append(f"even_relation({i},{j})")
            if (i, j) in base_failures:
                failures.append(f"base_relation({i},{j})")
            checked += 1
    return ConeIsoReport(
        ok=not failures,
        base_signature=base,
        cone_signature=cone,
        checked=checked,
        failures=tuple(failures),
    )


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
