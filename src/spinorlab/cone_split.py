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
    first_square_root,
    null_direction,
)
from .exact_linalg import Echelon, SignedPerm, signed_relation_basis


def invariant_spinors(rep: CliffordRep, operators) -> int:
    """Dimension of the joint kernel of the listed N x N operators, each
    a list of (coefficient, SignedPerm) terms; N for an empty list.

    Each operator's rows are scattered from its terms' signed columns,
    and every row of every operator goes to one Echelon."""
    echelon = Echelon()
    for terms in operators:
        rows = [[0] * rep.N for _ in range(rep.N)]
        for c, g in terms:
            for j, (i, s) in enumerate(zip(g.perm, g.signs)):
                rows[i][j] += c * s
        for row in rows:
            echelon.add(row)
    return rep.N - len(echelon)


def null_plane_rotations(rep: CliffordRep):
    """The actions gamma_p gamma_e of the abelian set {p ^ e : e in E},
    for the rational null direction p and the definite complement E of
    the hyperbolic plane; e is orthogonal to p, so gamma_{p ^ e} is the
    product.  Each is returned as the terms (p_i, G_i G_j) of
    gamma_p G_j = sum_i p_i G_i G_j."""
    sig = rep.signature
    p_vec = null_direction(sig)
    gens = rep.generators
    return [
        [(c, g * gj) for c, g in zip(p_vec, gens) if c]
        for j, gj in enumerate(gens)
        if j not in (0, sig.p)
    ]


def _find_involution(candidates, N):
    """The first non-scalar involution among the {column: (row, sign)}
    candidates that are signed permutations, then among the differences
    x - y of two of them, each in order; None if there is none.

    A difference is tried only when x and y have disjoint columns: on a
    shared column x - y has two entries or a non-unit one, so it is not
    a signed permutation; on disjoint columns it is one exactly when the
    rows are disjoint too.  The residue cross-check rejects a split missed
    for want of a dense, non-monomial involution.
    """
    perms = (SignedPerm.from_cells(x, N) for x in candidates)
    z = first_square_root((x for x in perms if x is not None), 1)
    if z is not None:
        return z
    differences = (
        SignedPerm.from_cells({**x, **{col: (row, -sign) for col, (row, sign) in y.items()}}, N)
        for i, x in enumerate(candidates)
        for y in candidates[i + 1 :]
        if x.keys().isdisjoint(y)
    )
    return first_square_root((z for z in differences if z is not None), 1)


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
    # canonical candidate: the image of the base volume element, valid
    # only when it is central in the even action (odd base dimension)
    omega = SignedPerm.identity(N)
    for e in images:
        omega = omega * e
    candidates = list(comm)
    if all(e * omega == omega * e for e in images):
        candidates.insert(0, dict(enumerate(zip(omega.perm, omega.signs))))
    z = _find_involution(candidates, N)
    split = z is not None
    if split != (base.s_mod8 not in IRREDUCIBLE_RESIDUES):
        raise ArithmeticError(
            f"computed split={split} contradicts the residue rule for base {base}"
        )
    if split:
        # the projectors (Id +- z)/2 are idempotent, and annihilate each
        # other as their product is (Id - z z)/4, once z z = Id; their
        # ranks (N +- trace z)/2 are N/2 once trace z = 0
        if z * z != SignedPerm.identity(N):
            raise ArithmeticError("projector is not idempotent")
        if sum(s for j, (i, s) in enumerate(zip(z.perm, z.signs)) if i == j):
            raise ArithmeticError("projector rank is not N/2")
        if any(e * z != z * e for e in images):
            raise ArithmeticError("projector does not commute with the even action")
    return SemiSpinorReport(
        split=split,
        commutant_dim=len(comm),
        residue=base.s_mod8,
        quoted_list_agrees=(split == (base.s_mod8 not in QUOTED_IRREDUCIBLE_RESIDUES)),
    )
