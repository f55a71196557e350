"""Semi-spinor splittings and invariant-spinor counting for cone
representations.

The cone module restricted to its even subalgebra (the base Clifford
algebra) either stays irreducible or splits into two semi-spinor halves;
the split is counted exactly by character, cross-checked against the
residue rule of the base signature, and exhibited by its projectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford_core import (
    CliffordRep,
    Signature,
    certify_relations,
    character_dimension,
    commutant_dimension,
    even_subalgebra_images,
    first_square_root,
    gamma_vector,
    null_direction,
)
from .exact_linalg import Echelon, SignedPerm, signed_relation_basis, term_rows


def invariant_spinors(rep: CliffordRep, operators) -> int:
    """Dimension of the joint kernel of the listed N x N operators, each
    a list of (coefficient, SignedPerm) terms; N for an empty list.
    Every term_rows row of every operator goes to one Echelon."""
    echelon = Echelon(row for terms in operators for row in term_rows(terms, rep.N))
    return rep.N - len(echelon)


def null_plane_invariants(rep: CliffordRep) -> int:
    """Dimension of the spinors invariant under the abelian set
    {p ^ e : e in E}, for the rational null direction p and the definite
    complement E of the hyperbolic plane, n >= 3: the joint kernel of the
    actions gamma_p G_j, j not in {0, p}.

    Each such G_j is invertible (G_j^2 = -eta_j Id) and anticommutes with
    gamma_p (g(p, e_j) = 0), so ker gamma_p G_j = ker G_j gamma_p =
    ker gamma_p.  certify_relations certifies that reduction, and one
    invariant_spinors call on gamma_p's terms, N rows, counts.
    """
    if rep.n < 3:
        raise ValueError("the null-plane rotations need n >= 3")
    certify_relations(rep)
    return invariant_spinors(rep, [gamma_vector(rep, null_direction(rep.signature))])


def _find_involution(candidates, N):
    """The first non-scalar involution among the {column: (row, sign)}
    candidates that are signed permutations, then among the differences
    x - y of two of them, each in order; None if there is none.

    A difference is tried only when x and y have disjoint columns: on a
    shared column x - y has two entries or a non-unit one, so it is not
    a signed permutation; on disjoint columns it is one exactly when the
    rows are disjoint too.  A counted split missed for want of a dense,
    non-monomial involution raises in semispinor_projectors.
    """
    perms = [SignedPerm.from_cells(x, N) for x in candidates]
    differences = (  # made only when no candidate is an involution
        SignedPerm.from_cells({**x, **{col: (row, -sign) for col, (row, sign) in y.items()}}, N)
        for i, x in enumerate(candidates) for y in candidates[i + 1 :] if x.keys().isdisjoint(y)
    )
    for group in (perms, differences):
        group = [x for x in group if x is not None]
        if group and (z := first_square_root(SignedPerm.concat(group), 1)) is not None:
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
    quoted_list_agrees: bool


def _split_involution(rep_cone: CliffordRep, images):
    """The first non-scalar involution of: the base volume image omega
    when central in the even action; omega_cone C, C in Id and the cone's
    commutant basis, each commuting with it; then _find_involution's over
    the walked even commutant basis.  None if there is none."""
    omega = images.product()
    candidates = [omega[None]] if images * omega == omega * images else []
    volume = rep_cone.generators.product()
    candidates += [volume[None], volume * rep_cone.commutant_basis]
    z = first_square_root(SignedPerm.concat(candidates), 1)
    return z if z is not None else _find_involution(signed_relation_basis(images, images), rep_cone.N)


def semispinor_projectors(rep_cone: CliffordRep) -> SemiSpinorReport:
    """Decide whether the cone module restricted to its even subalgebra
    splits, and verify the two rank-N/2 projectors when it does.

    The even action is orthogonal, so the module splits exactly when a
    non-scalar symmetric element commutes with it (a submodule's
    orthogonal projector is one; the eigenspaces of one are submodules),
    which is counted by character, without a walk.  Any mismatch with the
    residue rule or the projectors of _split_involution's z is a hard failure.
    """
    cone = rep_cone.signature
    if cone.p < 1:
        raise ValueError("cone signature needs a positive direction")
    base = Signature(cone.p - 1, cone.q)
    images = even_subalgebra_images(rep_cone)
    commutant_dim = commutant_dimension(images)  # certifies the base relations of the images
    split = character_dimension(images, [1] * len(images), 1) >= 2
    if split != (base.s_mod8 not in IRREDUCIBLE_RESIDUES):
        raise ArithmeticError(
            f"computed split={split} contradicts the residue rule for base {base}"
        )
    if split:
        z = _split_involution(rep_cone, images)
        if z is None:
            raise ArithmeticError(f"no involution found for the counted split of base {base}")
        # the projectors (Id +- z)/2 are idempotent, and annihilate each
        # other as their product is (Id - z z)/4, once z z = Id; their
        # ranks (N +- trace z)/2 are N/2 once trace z = 0
        if z * z != SignedPerm.identity(rep_cone.N):
            raise ArithmeticError("projector is not idempotent")
        if z.trace():
            raise ArithmeticError("projector rank is not N/2")
        if images * z != z * images:
            raise ArithmeticError("projector does not commute with the even action")
    return SemiSpinorReport(
        split=split,
        commutant_dim=commutant_dim,
        quoted_list_agrees=(split == (base.s_mod8 not in QUOTED_IRREDUCIBLE_RESIDUES)),
    )
