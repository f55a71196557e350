"""Admissible bilinear forms on the spinor module.

A form h is admissible of symmetry sigma and type tau when
h(s,t) = sigma h(t,s) and h(gamma_X s, t) = tau h(s, gamma_X t); in
matrix terms H^T = sigma H and G_i^T H = tau H G_i for every generator.
The full solution space of these constraints is computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford_core import (
    CliffordRep,
    Signature,
    blade_index_list,
    build_rep,
    cell_maps,
    gamma_blade,
)
from .exact_linalg import Matrix, SignedPerm, kernel, rank, signed_relation_basis


@dataclass(frozen=True)
class BilinearForm:
    matrix: Matrix
    sigma: int
    tau: int
    nondegenerate: bool


@dataclass(frozen=True)
class HypercomplexStructure:
    j1: SignedPerm
    j2: SignedPerm
    j3: SignedPerm


def _normalize_first_entry(m: Matrix) -> Matrix:
    for row in m.data:
        for x in row:
            if x:
                if x == 1:
                    return m
                inv = Fraction(1, x) if isinstance(x, int) else 1 / x
                return m.scale(inv)
    return m


def find_admissible(rep: CliffordRep, sigma: int, tau: int) -> list[BilinearForm]:
    """Exact basis of {H : H^T = sigma H, G_i^T H = tau H G_i}.

    Each basis form is normalized to first nonzero entry 1 in row-major
    order and flagged for nondegeneracy.
    """
    if sigma not in (1, -1) or tau not in (1, -1):
        raise ValueError("sigma and tau must be +-1")
    N = rep.N
    # G^T H = tau H G is H = tau G H G, since G^T = G^-1
    maps = cell_maps([(g, g.transpose()) for g in rep.generators], N, tau)
    transpose = [s * N + r for r in range(N) for s in range(N)]
    maps.append((transpose, [sigma] * (N * N)))
    basis = signed_relation_basis(N * N, maps)
    forms = []
    for vec in basis:
        m = Matrix([vec[r * N : (r + 1) * N] for r in range(N)])
        m = _normalize_first_entry(m)
        # one nonzero per row and per column: a signed permutation, invertible
        cells = [c for c, x in enumerate(vec) if x]
        monomial = len(cells) == len({c // N for c in cells}) == len({c % N for c in cells}) == N
        nondeg = monomial or rank(m) == N
        forms.append(BilinearForm(matrix=m, sigma=sigma, tau=tau, nondegenerate=nondeg))
    return forms


def all_admissible(rep: CliffordRep):
    """All four (sigma, tau) solution spaces in a fixed scan order."""
    out = {}
    for sigma in (1, -1):
        for tau in (-1, 1):
            out[(sigma, tau)] = find_admissible(rep, sigma, tau)
    return out


def first_nondegenerate(rep: CliffordRep, tau=None) -> BilinearForm:
    """Canonical nondegenerate admissible form.

    Scan order: tau = -1 before +1, sigma = +1 before -1; restricted to
    the given tau when provided.
    """
    for t in ((-1, 1) if tau is None else (tau,)):
        for sigma in (1, -1):
            for form in find_admissible(rep, sigma, t):
                if form.nondegenerate:
                    return form
    raise ValueError(f"no nondegenerate admissible form for {rep.signature}")


def nondegenerate_tau_exists(rep: CliffordRep, tau: int) -> bool:
    for sigma in (1, -1):
        if any(f.nondegenerate for f in find_admissible(rep, sigma, tau)):
            return True
    return False


def polyvector_type_rule_check(rep: CliffordRep, form: BilinearForm, k: int) -> bool:
    """gamma_xi^T H == tau^k (-1)^(k(k-1)/2) H gamma_xi on all basis k-blades."""
    sign = (form.tau ** k) * ((-1) ** (k * (k - 1) // 2))
    h = form.matrix
    for indices in blade_index_list(rep.n, k):
        g = gamma_blade(rep, indices)
        if g.transpose() * h != (h * g).scale(sign):
            return False
    return True


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
    """The (unique up to scale) nondegenerate type +1 form with
    h(J_a s, t) + h(s, J_a t) = 0 for a = 1, 2, 3.

    Skewness with respect to each J_a is equivalent to invariance
    H = J_a^T H J_a given J_a^2 = -Id.  Raises if the solution space is
    not one-dimensional.
    """
    candidates = []
    for sigma in (1, -1):
        candidates.extend(find_admissible(rep, sigma, 1))
    if not candidates:
        raise ValueError("no type +1 admissible forms")
    js = (hyper.j1, hyper.j2, hyper.j3)
    rows = []
    constraint_mats = []
    for h in candidates:
        flat = []
        for j in js:
            c = j.transpose() * h.matrix + h.matrix * j
            flat.extend(x for row in c.data for x in row)
        constraint_mats.append(flat)
    stacked = Matrix(constraint_mats).transpose()
    coeff_kernel = kernel(stacked)
    if coeff_kernel.cols != 1:
        raise ArithmeticError(
            f"J-invariant solution space has dimension {coeff_kernel.cols}, expected 1"
        )
    coeffs = coeff_kernel.col(0)
    h_mat = Matrix.zero(rep.N, rep.N)
    for c, form in zip(coeffs, candidates):
        if c:
            h_mat = h_mat + form.matrix.scale(c)
    h_mat = _normalize_first_entry(h_mat)
    ht = h_mat.transpose()
    if ht == h_mat:
        sigma = 1
    elif ht == -h_mat:
        sigma = -1
    else:
        raise ArithmeticError("J-invariant form has no definite symmetry")
    # verify the five identities exactly
    for j in js:
        if j.transpose() * h_mat + h_mat * j != Matrix.zero(rep.N, rep.N):
            raise ArithmeticError("skew identity failed")
        if j.transpose() * h_mat * j != h_mat:
            raise ArithmeticError("invariance identity failed")
    for g in rep.generators:
        if g.transpose() * h_mat != h_mat * g:
            raise ArithmeticError("type identity failed")
    nondeg = rank(h_mat) == rep.N
    if not nondeg:
        raise ArithmeticError("J-invariant form is degenerate")
    return BilinearForm(matrix=h_mat, sigma=sigma, tau=1, nondegenerate=True)


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
                            "nondegenerate": any(f.nondegenerate for f in forms),
                        }
                    )
    return rows
