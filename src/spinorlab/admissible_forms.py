"""Admissible bilinear forms on the spinor module.

A form h is admissible of symmetry sigma and type tau when
h(s,t) = sigma h(t,s) and h(gamma_X s, t) = tau h(s, gamma_X t); in
matrix terms H^T = sigma H and G_i^T H = tau H G_i for every generator.
Each solution space is counted by character (admissible_dimension);
where forms are exhibited they are the symmetric or antisymmetric
elements of clifford_core's twisted_commutant basis, one SignedPerm per
form, as many as the count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford_core import CliffordRep, Signature, build_rep, character_dimension, twisted_commutant
from .exact_linalg import SignedPerm


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


@lru_cache(maxsize=None)
def admissible_dimension(rep: CliffordRep, sigma: int, tau: int) -> int:
    """dim {H : H^T = sigma H, G_i^T H = tau H G_i} for a rep whose
    relations hold (build_rep certifies them), once per (rep, sigma, tau):
    as G_i^T = -eta_i G_i, character_dimension with chi_i = -tau eta_i."""
    if sigma not in (1, -1) or tau not in (1, -1):
        raise ValueError("sigma and tau must be +-1")
    gens = rep.generators  # G_i^2 = -eta_i Id
    return character_dimension(gens, (tau * (gens * gens).signs[:, 0]).tolist(), sigma)


@lru_cache(maxsize=None)
def find_admissible(rep: CliffordRep, sigma: int, tau: int) -> tuple[BilinearForm, ...]:
    """Exact basis of {H : H^T = sigma H, G_i^T H = tau H G_i}: as that is
    H G_i = -tau eta_i G_i H, the elements of twisted_commutant(rep, chi)
    for chi_i = -tau eta_i, each symmetric or antisymmetric, with
    H^T = sigma H, each scaled to +1 at its lowest row-major cell (in row
    0) and ordered by that cell.  A basis not of admissible_dimension's
    length raises ArithmeticError.  Solved once per (rep, sigma, tau),
    keyed on the whole rep (a rep hashes and compares by the bytes of its
    stacks), and a tuple, so that no caller can change what later callers
    get.
    """
    count = admissible_dimension(rep, sigma, tau)  # raises unless sigma and tau are +-1
    basis = twisted_commutant(rep, [-tau * e for e in rep.eta])
    basis = basis[basis.transpose().equal(basis if sigma == 1 else -basis)]
    low = (basis.perm == 0).argmax(axis=-1)  # the column of each form's row-0 cell
    forms = [BilinearForm(basis[k] if basis.signs[k, low[k]] == 1 else -basis[k], sigma, tau)
             for k in np.argsort(low)]
    if len(forms) != count:
        raise ArithmeticError(f"{len(forms)} admissible forms of {rep.signature} with (sigma, "
                              f"tau) = ({sigma}, {tau}), where the count is {count}")
    return tuple(forms)


def form_relation_failures(rep: CliffordRep, form: BilinearForm) -> list:
    """The relations of an admissible form that fail for form on rep:
    None first when H^T != sigma H, then each generator index i with
    G_i^T H != tau H G_i, in order.

    G_i^T = G_i^-1 for a signed permutation, so the generator relation
    is H = tau G_i H G_i: two index gathers on the generator stack, O(nN).
    """
    h, gens = form.matrix, rep.generators
    failures = [] if h.transpose() == (h if form.sigma == 1 else -h) else [None]
    bad = ~(gens * h * gens).equal(h if form.tau == 1 else -h)
    return failures + bad.nonzero()[0].tolist()


def first_nondegenerate(rep: CliffordRep, tau=None) -> BilinearForm:
    """Canonical admissible form (every basis form is nondegenerate).

    Scan order: tau = -1 before +1, sigma = +1 before -1; restricted to
    the given tau when provided; only a nonzero count is solved.
    """
    for t in ((-1, 1) if tau is None else (tau,)):
        for sigma in (1, -1):
            if admissible_dimension(rep, sigma, t):
                return find_admissible(rep, sigma, t)[0]
    raise ValueError(f"no nondegenerate admissible form for {rep.signature}")


def nondegenerate_tau_exists(rep: CliffordRep, tau: int) -> bool:
    return any(admissible_dimension(rep, sigma, tau) for sigma in (1, -1))


def admissible_table(max_n: int):
    rows = []
    for n in range(1, max_n + 1):
        for p in range(n, -1, -1):
            rep = build_rep(Signature(p, n - p))
            for sigma in (1, -1):
                for tau in (1, -1):
                    dim = admissible_dimension(rep, sigma, tau)
                    rows.append(
                        {
                            "p": p,
                            "q": n - p,
                            "sigma": sigma,
                            "tau": tau,
                            "dim": dim,
                            "nondegenerate": bool(dim),
                        }
                    )
    return rows
