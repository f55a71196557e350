"""Semi-spinor splittings of cone representations, and the spinors a
null plane leaves invariant.

The cone module restricted to its even subalgebra (the base Clifford
algebra) either stays irreducible or splits into two semi-spinor halves;
the split is counted exactly by character, cross-checked against the
residue rule of the base signature, and exhibited by its projectors,
(Id +- z)/2 for an involution z of the cone's twisted_commutant basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford_core import (
    CliffordRep,
    Signature,
    certify_relations,
    character_dimension,
    even_subalgebra_images,
    first_square_root,
    gamma_vector,
    null_direction,
    twisted_commutant,
)
from .exact_linalg import SignedPerm


def null_plane_invariants(rep: CliffordRep) -> int:
    """Dimension of the spinors invariant under the abelian set
    {p ^ e : e in E}, for the rational null direction p = e_a + e_b and
    the definite complement E of the hyperbolic plane, n >= 3: the joint
    kernel of the actions gamma_p G_j, j not in {a, b}.

    Each such G_j is invertible (G_j^2 = -eta_j Id) and anticommutes with
    gamma_p (g(p, e_j) = 0), so ker gamma_p G_j = ker G_j gamma_p =
    ker gamma_p.  gamma_p = G_a + G_b = G_a (Id + M) for the signed
    permutation M = G_a^T G_b = -G_a G_b, and G_a^2 = -Id, G_b^2 = Id and
    G_a G_b = -G_b G_a give M^2 = -G_a^2 G_b^2 = Id.  So ker gamma_p is
    M's -1 eigenspace, of dimension (N - trace M) / 2, with no
    elimination; certify_relations certifies each relation used.
    """
    if rep.n < 3:
        raise ValueError("the null-plane rotations need n >= 3")
    certify_relations(rep)
    (_, g_a), (_, g_b) = gamma_vector(rep, null_direction(rep.signature))
    return (rep.N - int((g_a.transpose() * g_b).trace())) // 2


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


def _split_involution(rep_cone: CliffordRep):
    """The first non-scalar involution of the twisted_commutant basis of
    the cone's anticommutant (every chi_i = -1), or None: X G_i = chi_i G_i X
    commutes with the even images G_i G_0 when chi_i = chi_0, and the
    commutant (chi = +1) is a division algebra, with no such involution."""
    return first_square_root(twisted_commutant(rep_cone, [-1] * rep_cone.n), 1)


def semispinor_projectors(rep_cone: CliffordRep) -> SemiSpinorReport:
    """Decide whether the cone module restricted to its even subalgebra
    splits, and verify the two rank-N/2 projectors when it does.

    The even action is orthogonal, so the module splits exactly when a
    non-scalar symmetric element commutes with it (a submodule's
    orthogonal projector is one; the eigenspaces of one are submodules),
    which is counted by character, without a solve.  Any mismatch with the
    residue rule or the projectors of _split_involution's z is a hard failure.
    """
    cone = rep_cone.signature
    if cone.p < 1:
        raise ValueError("cone signature needs a positive direction")
    base = Signature(cone.p - 1, cone.q)
    images = even_subalgebra_images(rep_cone)
    certify_relations(rep_cone)  # with eta_0 = +1 these give the images the base relations
    commutant_dim = character_dimension(images, [1] * len(images))
    split = character_dimension(images, [1] * len(images), 1) >= 2
    if split != (base.s_mod8 not in IRREDUCIBLE_RESIDUES):
        raise ArithmeticError(
            f"computed split={split} contradicts the residue rule for base {base}"
        )
    if split:
        z = _split_involution(rep_cone)
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
