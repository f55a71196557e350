"""Tensor decompositions, semi-spinor splittings and invariant-spinor
counting for cone representations.

Complexified checks run over Gaussian rationals with Pauli-chain
representations, so every eigenspace dimension is exact.
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
    GaussianRational,
    I_UNIT,
    Matrix,
    SignedPerm,
    kernel,
    kron,
    rank,
)

_SX = Matrix([[0, 1], [1, 0]])
_SY = Matrix([[GaussianRational(0), GaussianRational(0, -1)], [GaussianRational(0, 1), GaussianRational(0)]])
_SZ = Matrix([[1, 0], [0, -1]])


def _pauli_chain(total, position, op):
    mats = []
    for slot in range(total):
        if slot < position:
            mats.append(_SZ)
        elif slot == position:
            mats.append(op)
        else:
            mats.append(Matrix.identity(2))
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def complex_clifford_rep(m: int):
    """Generators of the complex Clifford algebra on m generators squaring
    to -Id, plus the grading involution; dimension 2^ceil(m/2)."""
    qubits = (m + 1) // 2
    if qubits == 0:
        return [], Matrix.identity(1)
    gens = []
    for k in range(m):
        op = _SX if k % 2 == 0 else _SY
        gens.append(_pauli_chain(qubits, k // 2, op).scale(I_UNIT))
    grading = Matrix.identity(1)
    for _ in range(qubits):
        grading = kron(grading, _SZ)
    return gens, grading


def _check_complex_clifford(gens):
    failures = clifford_relation_failures(gens, (1,) * len(gens))
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
    gens2, _ = complex_clifford_rep(n2)
    d1 = gens1[0].rows
    d2 = gens2[0].rows
    failures = []
    if n1 % 2 == 0 or n2 % 2 == 0:
        if n1 % 2 == 1:  # make the even factor first
            swapped = graded_tensor_check(n2, n1)
            return dataclasses.replace(swapped, n1=n1, n2=n2)
        vol1 = Matrix.identity(d1)
        for g in gens1:
            vol1 = vol1 * g
        sq = (vol1 * vol1).is_scalar_multiple_of_identity()
        if sq == -1:
            vol1 = vol1.scale(I_UNIT)
        images = [kron(g, Matrix.identity(d2)) for g in gens1]
        images += [kron(vol1, k) for k in gens2]
        err = _check_complex_clifford(images)
        if err:
            failures.append(err)
        dims = {
            "module": d1 * d2,
            "factor_1": d1,
            "factor_2": d2,
            "direct": complex_clifford_rep(n1 + n2)[0][0].rows,
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
    images = [kron(g, Matrix.identity(d2)) for g in gens1]
    images += [kron(grading1, k) for k in gens2]
    dim = d1 * d2
    err = _check_complex_clifford(images)
    if err:
        failures.append(err)
    # Koszul rule on homogeneous generators: (1 (x) b)(a (x) 1) picks up
    # a sign from moving the odd b past the odd a
    sign_rule_ok = True
    for k in gens2:
        right = kron(grading1, k)
        for f in gens1:
            left = kron(f, Matrix.identity(d2))
            if right * left != (left * right).scale(-1):
                sign_rule_ok = False
    xi = Matrix.identity(dim)
    for im in images:
        xi = xi * im
    sq = (xi * xi).is_scalar_multiple_of_identity()
    if sq == 1:
        xi = xi.scale(I_UNIT)
    xi_ok = (xi * xi).is_scalar_multiple_of_identity() == -1
    # centrality in the even part: xi commutes with generator pairs
    for a in images:
        for b in images:
            ab = a * b
            if xi * ab != ab * xi:
                failures.append("xi_not_central_in_even_part")
                break
        else:
            continue
        break
    # restrict xi to the even part, the +1 eigenspace of the total grading
    total_grading = kron(grading1, _grading_of(n2))
    even_idx = [
        i for i in range(dim) if total_grading[i, i] == 1
    ]
    xi_even = Matrix([[xi[i, j] for j in even_idx] for i in even_idx])
    plus = kernel(xi_even - Matrix.identity(len(even_idx)).scale(I_UNIT))
    minus = kernel(xi_even + Matrix.identity(len(even_idx)).scale(I_UNIT))
    eigendims = (plus.cols, minus.cols)
    if plus.cols != minus.cols:
        failures.append("unequal_semi_spinor_dimensions")
    # spinor module of the even part doubles the plain product of the
    # ungraded odd-factor modules
    ungraded1 = 2 ** ((n1 - 1) // 2)
    ungraded2 = 2 ** ((n2 - 1) // 2)
    dims = {
        "module": dim,
        "even_part": len(even_idx),
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


def _grading_of(m):
    out = Matrix.identity(1)
    for _ in range((m + 1) // 2):
        out = kron(out, _SZ)
    return out


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
