"""Semi-spinor splittings and invariant-spinor counting for cone
representations.

The cone module restricted to its even subalgebra (the base Clifford
algebra) either stays irreducible or splits into two semi-spinor halves;
the split is decided exactly from the even commutant and cross-checked
against the residue rule of the base signature.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford_core import (
    CliffordRep,
    Signature,
    even_subalgebra_images,
    gamma_vector,
    null_pair,
)
from .exact_linalg import Matrix, SignedPerm, rank, signed_relation_basis


def invariant_spinors(rep: CliffordRep, operators) -> int:
    """Dimension of the joint kernel of the listed N x N operators; N for
    an empty list."""
    return rep.N - rank(Matrix([row for op in operators for row in op.data]))


def null_plane_rotations(rep: CliffordRep):
    """The actions gamma_p gamma_e of the abelian set {p ^ e : e in E},
    for the rational null direction p and the definite complement E of
    the hyperbolic plane; e is orthogonal to p, so gamma_{p ^ e} is the
    product."""
    sig = rep.signature
    p_vec, _ = null_pair(sig)
    gamma_p = gamma_vector(rep, p_vec)
    return [gamma_p * g for j, g in enumerate(rep.generators) if j not in (0, sig.p)]


def _find_involution(candidates, N):
    """The first non-scalar involution among the candidates, then among
    the differences x - y of two of them, in order; None if there is none."""
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
            z = x - y
            if z.is_scalar_multiple_of_identity() is None and z * z == ident:
                return z
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
    split: bool
    commutant_dim: int
    residue: int
    quoted_list_agrees: bool


def semispinor_projectors(rep_cone: CliffordRep) -> SemiSpinorReport:
    """Decide whether the cone module restricted to its even subalgebra
    splits, and verify the two rank-N/2 projectors when it does.

    The decision comes from the commutant of the even action: the module
    is reducible exactly when that commutant contains an involution other
    than +-Id.  The outcome is cross-checked against the residue rule;
    any mismatch is a hard failure.
    """
    cone = rep_cone.signature
    if cone.p < 1:
        raise ValueError("cone signature needs a positive direction")
    base = Signature(cone.p - 1, cone.q)
    N = rep_cone.N
    images = even_subalgebra_images(rep_cone)
    comm = signed_relation_basis(N, [(e, e) for e in images])
    candidates = []
    for element in comm:
        rows = [[0] * N for _ in range(N)]
        for col, (row, sign) in element.items():
            rows[row][col] = sign
        candidates.append(Matrix(rows))
    # canonical candidate: the image of the base volume element, valid
    # only when it is central in the even action (odd base dimension)
    omega = SignedPerm.identity(N)
    for e in images:
        omega = omega * e
    if all(e * omega == omega * e for e in images):
        candidates.insert(0, omega.dense())
    z = _find_involution(candidates, N)
    split = z is not None
    if split != (base.s_mod8 not in IRREDUCIBLE_RESIDUES):
        raise ArithmeticError(
            f"computed split={split} contradicts the residue rule for base {base}"
        )
    if split:
        # checked on the integer a = Id +- z = 2p: p p = p reads a a = 2a,
        # and annihilation and commutation ignore the factor 2; an
        # idempotent's rank is its trace, so rank p = N/2 reads trace a = N
        ident = Matrix.identity(N)
        a_plus, a_minus = pair = (ident + z, ident - z)
        for a in pair:
            if a * a != a.scale(2):
                raise ArithmeticError("projector is not idempotent")
            if sum(a[i, i] for i in range(N)) != N:
                raise ArithmeticError("projector rank is not N/2")
        if not (a_plus * a_minus).is_zero():
            raise ArithmeticError("projectors do not annihilate each other")
        for e in images:
            if e * a_plus != a_plus * e:
                raise ArithmeticError("projector does not commute with the even action")
    return SemiSpinorReport(
        split=split,
        commutant_dim=len(comm),
        residue=base.s_mod8,
        quoted_list_agrees=(split == (base.s_mod8 not in QUOTED_IRREDUCIBLE_RESIDUES)),
    )
