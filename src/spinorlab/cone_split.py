"""Tensor decompositions, semi-spinor splittings and invariant-spinor
counting for cone representations.

Complexified checks run on Pauli chains realified to signed permutations
of twice the complex dimension, so every relation is a permutation
identity and every eigenspace dimension an exact integer rank.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from .clifford_core import (
    CliffordRep,
    Signature,
    clifford_relation_failures,
    commutant_vectors,
    even_subalgebra_images,
    gamma_polyvector,
    null_pair,
    volume_element,
    wedge_vectors,
)
from .exact_linalg import (
    Matrix,
    SignedPerm,
    kernel,
    rank,
)

# A complex phase monomial i^e P, P a real signed permutation, is kept as
# the pair (P, K) with K = J^e in {+-Id_2, +-J}, and acts on C^d = R^2d as
# its realification P.kron(K).  Realification is an injective ring map, so
# products, relations and scalar checks carry over exactly.
_ID2 = SignedPerm.identity(2)
_J = SignedPerm((1, 0), (1, -1))  # [[0, -1], [1, 0]]: i acting on C = R^2
_SX = (SignedPerm((1, 0), (1, 1)), _ID2)
_SY = (_J, _J)  # [[0, -i], [i, 0]] = i [[0, -1], [1, 0]]
_SZ = (SignedPerm((0, 1), (1, -1)), _ID2)


def _identity(d):
    return SignedPerm.identity(d), _ID2


def _mul(a, b):
    return a[0] * b[0], a[1] * b[1]


def _kron(a, b):
    return a[0].kron(b[0]), a[1] * b[1]


def _times_i(a):
    return a[0], a[1] * _J


def _realify(a) -> SignedPerm:
    return a[0].kron(a[1])


def _product(factors, d):
    out = _identity(d)
    for f in factors:
        out = _mul(out, f)
    return out


def _squares_to(a):
    return _realify(_mul(a, a)).is_scalar_multiple_of_identity()


def _pauli_chain(total, position, op):
    out = _identity(1)
    for slot in range(total):
        out = _kron(out, _SZ if slot < position else op if slot == position else _identity(2))
    return out


def complex_clifford_rep(m: int):
    """Generators of the complex Clifford algebra on m generators squaring
    to -Id, plus the grading involution; dimension 2^ceil(m/2).

    Each generator is i times a Pauli chain and the grading a chain of
    sigma_z, all as (P, K) pairs (see _realify)."""
    qubits = (m + 1) // 2
    gens = [_times_i(_pauli_chain(qubits, k // 2, _SY if k % 2 else _SX)) for k in range(m)]
    # the grading is the sigma_z string over every qubit
    return gens, _pauli_chain(qubits, qubits, None)


def _check_complex_clifford(images):
    failures = clifford_relation_failures([_realify(x) for x in images], (1,) * len(images))
    return "relation({},{})".format(*failures[0]) if failures else None


@dataclass(frozen=True)
class GradedTensorReport:
    n1: int
    n2: int
    case: str  # "ungraded" or "graded"
    relations_ok: bool
    sign_rule_ok: bool
    xi_squares_to_minus_id: bool | None
    eigenspace_dims: tuple | None
    dims: dict
    failures: tuple

    @property
    def ok(self):
        return self.relations_ok and self.sign_rule_ok and not self.failures


def graded_tensor_check(n1: int, n2: int) -> GradedTensorReport:
    """Verify the tensor factorization of the complex Clifford algebra on
    an orthogonal splitting into pieces of sizes n1, n2.

    When a piece is even-dimensional the plain tensor product is checked
    on generators; when both are odd the graded tensor product is built
    with the Koszul rule and the central even element xi is analyzed:
    xi^2 = -Id with +-i eigenspaces of equal dimension.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("need n1, n2 >= 1")
    gens1, grading1 = complex_clifford_rep(n1)
    gens2, grading2 = complex_clifford_rep(n2)
    d1 = len(grading1[0].perm)
    d2 = len(grading2[0].perm)
    failures = []
    if n1 % 2 == 0 or n2 % 2 == 0:
        if n1 % 2 == 1:  # make the even factor first
            swapped = graded_tensor_check(n2, n1)
            return dataclasses.replace(swapped, n1=n1, n2=n2)
        vol1 = _product(gens1, d1)
        if _squares_to(vol1) == -1:
            vol1 = _times_i(vol1)
        images = [_kron(g, _identity(d2)) for g in gens1]
        images += [_kron(vol1, k) for k in gens2]
        err = _check_complex_clifford(images)
        if err:
            failures.append(err)
        dims = {
            "module": d1 * d2,
            "factor_1": d1,
            "factor_2": d2,
            "direct": len(complex_clifford_rep(n1 + n2)[1][0].perm),
        }
        return GradedTensorReport(
            n1=n1,
            n2=n2,
            case="ungraded",
            relations_ok=not failures,
            sign_rule_ok=True,
            xi_squares_to_minus_id=None,
            eigenspace_dims=None,
            dims=dims,
            failures=tuple(failures),
        )
    # both odd: graded tensor product via the grading twist
    images = [_kron(g, _identity(d2)) for g in gens1]
    images += [_kron(grading1, k) for k in gens2]
    dim = d1 * d2
    err = _check_complex_clifford(images)
    if err:
        failures.append(err)
    # Koszul rule on homogeneous generators: (1 (x) b)(a (x) 1) picks up
    # a sign from moving the odd b past the odd a
    real = [_realify(x) for x in images]
    left, right = real[: len(gens1)], real[len(gens1) :]
    sign_rule_ok = all(b * a == -(a * b) for b in right for a in left)
    xi = _product(images, dim)
    if _squares_to(xi) == 1:
        xi = _times_i(xi)
    xi_ok = _squares_to(xi) == -1
    # centrality in the even part: xi commutes with generator pairs
    x = _realify(xi)
    if any(x * a * b != a * b * x for a in real for b in real):
        failures.append("xi_not_central_in_even_part")
    # restrict xi to the even part, the +1 eigenspace of the total grading;
    # the +-i eigenspaces of xi there are the kernels of x -+ i Id, each of
    # twice the complex dimension after realification
    total_grading = _realify(_kron(grading1, grading2))
    even = [r for r, s in enumerate(total_grading.signs) if s == 1]

    def even_block(m: SignedPerm) -> Matrix:
        dense = m.dense().data
        return Matrix([[dense[r][c] for c in even] for r in even])

    x_even = even_block(x)
    i_even = even_block(_realify(_times_i(_identity(dim))))
    eigendims = tuple((len(even) - rank(x_even - sign * i_even)) // 2 for sign in (1, -1))
    if eigendims[0] != eigendims[1]:
        failures.append("unequal_semi_spinor_dimensions")
    # spinor module of the even part doubles the plain product of the
    # ungraded odd-factor modules
    ungraded1 = 2 ** ((n1 - 1) // 2)
    ungraded2 = 2 ** ((n2 - 1) // 2)
    dims = {
        "module": dim,
        "even_part": len(even) // 2,
        "ungraded_product_doubled": 2 * ungraded1 * ungraded2,
    }
    if dims["even_part"] != dims["ungraded_product_doubled"]:
        failures.append("dimension_bookkeeping")
    return GradedTensorReport(
        n1=n1,
        n2=n2,
        case="graded",
        relations_ok=err is None,
        sign_rule_ok=sign_rule_ok,
        xi_squares_to_minus_id=xi_ok,
        eigenspace_dims=eigendims,
        dims=dims,
        failures=tuple(failures),
    )


def invariant_spinors(rep: CliffordRep, bivectors) -> tuple[int, Matrix]:
    """Dimension and basis of the joint kernel of the listed degree-2
    polyvector actions."""
    stacked = None
    for b in bivectors:
        if b.k != 2:
            raise ValueError("generators must be degree-2 polyvectors")
        g = gamma_polyvector(rep, b)
        stacked = g if stacked is None else stacked.vstack(g)
    if stacked is None:
        return rep.N, Matrix.identity(rep.N)
    basis = kernel(stacked)
    return basis.cols, basis


def null_plane_rotations(rep: CliffordRep):
    """The abelian set {p ^ e : e in E} for the rational null direction p
    and the definite complement E of the hyperbolic plane."""
    sig = rep.signature
    p_vec, _ = null_pair(sig)
    used = {0, sig.p}
    out = []
    for j in range(sig.n):
        if j in used:
            continue
        e = [0] * sig.n
        e[j] = 1
        out.append(wedge_vectors([p_vec, e]))
    return out


def _even_commutant_matrices(rep_cone: CliffordRep):
    N = rep_cone.N
    vecs = commutant_vectors(even_subalgebra_images(rep_cone), N)
    return [Matrix([v[r * N : (r + 1) * N] for r in range(N)]) for v in vecs]


def _find_involution(candidates, N):
    ident = Matrix.identity(N)
    seen = []
    for x in candidates:
        if x.is_scalar_multiple_of_identity() is not None:
            continue
        if (x * x) == ident:
            return x
        seen.append(x)
    for i, x in enumerate(seen):
        for y in seen[i + 1 :]:
            for z in (x + y, x - y):
                if z.is_scalar_multiple_of_identity() is not None:
                    continue
                if z * z == ident:
                    return z
            p = x * y
            if p.is_scalar_multiple_of_identity() is None and p * p == ident:
                return p
    return None


# residues (base s mod 8) with irreducible even restriction, certified by
# the commutant computation across all small signatures; the quoted
# residue lists place 0 with the irreducible cases, but the exact
# projectors constructed below falsify that for every s = 0 base, so the
# cross-check uses the corrected rule and reports the disagreement.
IRREDUCIBLE_RESIDUES = (2, 4, 5, 6)
QUOTED_IRREDUCIBLE_RESIDUES = (0, 2, 4, 5, 6)


@dataclass(frozen=True)
class SemiSpinorReport:
    cone_signature: Signature
    base_signature: Signature
    split: bool
    projectors: tuple | None
    commutant_dim: int
    residue: int
    residue_predicts_split: bool
    quoted_list_agrees: bool


def semispinor_projectors(rep_cone: CliffordRep) -> SemiSpinorReport:
    """Decide whether the cone module restricted to its even subalgebra
    splits, and produce the two rank-N/2 projectors when it does.

    The decision comes from the commutant of the even action: the module
    is reducible exactly when that commutant contains an involution other
    than +-Id.  The outcome is cross-checked against the residue rule;
    any mismatch is a hard failure.
    """
    cone = rep_cone.signature
    if cone.p < 1:
        raise ValueError("cone signature needs a positive direction")
    base = Signature(cone.p - 1, cone.q)
    comm = _even_commutant_matrices(rep_cone)
    N = rep_cone.N
    images = even_subalgebra_images(rep_cone)
    # canonical candidate: the image of the base volume element, valid
    # only when it is central in the even action (odd base dimension)
    omega = SignedPerm.identity(N)
    for e in images:
        omega = omega * e
    candidates = list(comm)
    if all(e * omega == omega * e for e in images):
        candidates.insert(0, omega.dense())
    z = _find_involution(candidates, N)
    split = z is not None
    residue_split = base.s_mod8 not in IRREDUCIBLE_RESIDUES
    if split != residue_split:
        raise ArithmeticError(
            f"computed split={split} contradicts the residue rule for base {base}"
        )
    projectors = None
    if split:
        # checked on the integer a = Id +- z = 2p: p p = p reads a a = 2a,
        # and rank, annihilation and commutation ignore the factor 2
        ident = Matrix.identity(N)
        a_plus, a_minus = pair = (ident + z, ident - z)
        for a in pair:
            if a * a != a.scale(2):
                raise ArithmeticError("projector is not idempotent")
            if rank(a) * 2 != N:
                raise ArithmeticError("projector rank is not N/2")
        if not (a_plus * a_minus).is_zero():
            raise ArithmeticError("projectors do not annihilate each other")
        for e in images:
            if e * a_plus != a_plus * e:
                raise ArithmeticError("projector does not commute with the even action")
        half = {x: Fraction(x, 2) for x in {x for a in pair for row in a.data for x in row}}
        projectors = tuple(Matrix([[half[x] for x in row] for row in a.data]) for a in pair)
    return SemiSpinorReport(
        cone_signature=cone,
        base_signature=base,
        split=split,
        projectors=projectors,
        commutant_dim=len(comm),
        residue=base.s_mod8,
        residue_predicts_split=residue_split,
        quoted_list_agrees=(split == (base.s_mod8 not in QUOTED_IRREDUCIBLE_RESIDUES)),
    )


@dataclass(frozen=True)
class VolumeParityReport:
    n: int
    commutes: bool
    anticommutes: bool


def volume_flip_degree(rep: CliffordRep) -> VolumeParityReport:
    """Whether the volume element commutes (n odd) or anticommutes
    (n even) with every generator; the sign behind the Killing-number
    flip under volume multiplication."""
    nu = volume_element(rep)
    commutes = all(nu * g == g * nu for g in rep.generators)
    anticommutes = all(nu * g == -(g * nu) for g in rep.generators)
    return VolumeParityReport(n=rep.n, commutes=commutes, anticommutes=anticommutes)
