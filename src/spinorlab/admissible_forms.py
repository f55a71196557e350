"""Admissible bilinear forms on the spinor module.

A form h is admissible of symmetry sigma and type tau when
h(s,t) = sigma h(t,s) and h(gamma_X s, t) = tau h(s, gamma_X t); in
matrix terms H^T = sigma H and G_i^T H = tau H G_i for every generator.
The full solution space of these constraints is computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford_core import CliffordRep, Signature, build_rep, cell_maps
from .exact_linalg import Matrix, SignedPerm, kernel, signed_relation_basis


@dataclass(frozen=True)
class BilinearForm:
    """An admissible form; its matrix H is a signed permutation, so the
    form is nondegenerate and every product with H is a signed gather."""

    matrix: SignedPerm
    sigma: int
    tau: int

    def __post_init__(self):
        if not isinstance(self.matrix, SignedPerm):
            raise TypeError("an admissible form matrix must be a SignedPerm")


@dataclass(frozen=True)
class HypercomplexStructure:
    j1: SignedPerm
    j2: SignedPerm
    j3: SignedPerm


def find_admissible(rep: CliffordRep, sigma: int, tau: int) -> list[BilinearForm]:
    """Exact basis of {H : H^T = sigma H, G_i^T H = tau H G_i}.

    Each basis form is one signed orbit of the relations, with value +1
    at its lowest row-major cell.  On an irreducible module every such
    orbit is a signed permutation (ker H is a submodule, so a nonzero
    admissible H is invertible); an orbit that is not one raises
    ArithmeticError.
    """
    if sigma not in (1, -1) or tau not in (1, -1):
        raise ValueError("sigma and tau must be +-1")
    N = rep.N
    # G^T H = tau H G is H = tau G H G, since G^T = G^-1
    maps = cell_maps([(g, g.transpose()) for g in rep.generators], N, tau)
    transpose = [s * N + r for r in range(N) for s in range(N)]
    maps.append((transpose, [sigma] * (N * N)))
    forms = []
    for vec in signed_relation_basis(N * N, maps):
        # cell r*N + s with value x is column s of a signed permutation
        entries = sorted((c % N, c // N, x) for c, x in enumerate(vec) if x)
        perm = tuple(r for _, r, _ in entries)
        signs = tuple(x for _, _, x in entries)
        columns = [s for s, _, _ in entries]
        if columns != list(range(N)) or sorted(perm) != columns or not {*signs} <= {1, -1}:
            raise ArithmeticError(
                f"admissible form of {rep.signature} with (sigma, tau) = "
                f"({sigma}, {tau}) is not a signed permutation"
            )
        forms.append(BilinearForm(SignedPerm(perm, signs), sigma, tau))
    return forms


def first_nondegenerate(rep: CliffordRep, tau=None) -> BilinearForm:
    """Canonical admissible form (every basis form is nondegenerate).

    Scan order: tau = -1 before +1, sigma = +1 before -1; restricted to
    the given tau when provided.
    """
    for t in ((-1, 1) if tau is None else (tau,)):
        for sigma in (1, -1):
            forms = find_admissible(rep, sigma, t)
            if forms:
                return forms[0]
    raise ValueError(f"no nondegenerate admissible form for {rep.signature}")


def nondegenerate_tau_exists(rep: CliffordRep, tau: int) -> bool:
    return any(find_admissible(rep, sigma, tau) for sigma in (1, -1))


def find_hypercomplex(rep: CliffordRep) -> HypercomplexStructure | None:
    """The parallel quaternion triple in the commutant, or None.

    Present exactly when the commutant is quaternionic; the triple
    satisfies J_a^2 = -Id, J_3 = J_1 J_2, J_1 J_2 = -J_2 J_1 and each
    J_a commutes with every generator (verified at construction).
    """
    if rep.commutant_type != "H":
        return None
    j1, j2, j3 = rep.commutant_basis
    return HypercomplexStructure(j1, j2, j3)


def j_invariant_form(rep: CliffordRep, hyper: HypercomplexStructure) -> BilinearForm:
    """The (unique up to scale) type +1 form with
    h(J_a s, t) + h(s, J_a t) = 0 for a = 1, 2, 3.

    Skewness with respect to each J_a is equivalent to invariance
    H = J_a^T H J_a given J_a^2 = -Id.  The skewness conditions on the
    type +1 basis forms are solved by a dense coefficient kernel, which
    must be one-dimensional and select exactly one basis form; that form
    is returned after its identities are checked exactly.
    """
    candidates = []
    for sigma in (1, -1):
        candidates.extend(find_admissible(rep, sigma, 1))
    if not candidates:
        raise ValueError("no type +1 admissible forms")
    js = (hyper.j1, hyper.j2, hyper.j3)
    constraint_mats = []
    for h in candidates:
        flat = []
        for j in js:
            c = (j.transpose() * h.matrix).dense() + (h.matrix * j).dense()
            flat.extend(x for row in c.data for x in row)
        constraint_mats.append(flat)
    coeff_kernel = kernel(Matrix(constraint_mats).transpose())
    if coeff_kernel.cols != 1:
        raise ArithmeticError(
            f"J-invariant solution space has dimension {coeff_kernel.cols}, expected 1"
        )
    selected = [form for c, form in zip(coeff_kernel.col(0), candidates) if c]
    if len(selected) != 1:
        raise ArithmeticError(
            f"J-invariant form combines {len(selected)} basis forms, expected 1"
        )
    form = selected[0]
    h = form.matrix
    # verify the five identities exactly
    for j in js:
        if j.transpose() * h != -(h * j):
            raise ArithmeticError("skew identity failed")
        if j.transpose() * h * j != h:
            raise ArithmeticError("invariance identity failed")
    for g in rep.generators:
        if g.transpose() * h != h * g:
            raise ArithmeticError("type identity failed")
    return form


def admissible_table(max_n: int):
    rows = []
    for n in range(1, max_n + 1):
        for p in range(n, -1, -1):
            rep = build_rep(Signature(p, n - p))
            for sigma in (1, -1):
                for tau in (1, -1):
                    forms = find_admissible(rep, sigma, tau)
                    rows.append(
                        {
                            "p": p,
                            "q": n - p,
                            "sigma": sigma,
                            "tau": tau,
                            "dim": len(forms),
                            "nondegenerate": bool(forms),
                        }
                    )
    return rows
