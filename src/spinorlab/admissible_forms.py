"""Admissible bilinear forms on the spinor module.

A form h is admissible of symmetry sigma and type tau when
h(s,t) = sigma h(t,s) and h(gamma_X s, t) = tau h(s, gamma_X t); in
matrix terms H^T = sigma H and G_i^T H = tau H G_i for every generator.
Each solution space is counted by character (admissible_dimension);
where forms are exhibited it is exact_linalg's signed_relation_basis of
the generator stack and its transpose with the transposition move, one
SignedPerm per form, as many as the count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .clifford_core import CliffordRep, Signature, build_rep, character_dimension
from .exact_linalg import SignedPerm, signed_relation_basis


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
    """Exact basis of {H : H^T = sigma H, G_i^T H = tau H G_i}.

    Each basis form is one signed orbit of the relations, with value +1
    at its lowest row-major cell.  On an irreducible module every such
    orbit is a signed permutation (ker H is a submodule, so a nonzero
    admissible H is invertible); an orbit that is not one, or a basis not
    of admissible_dimension's length, raises ArithmeticError.  Solved
    once per (rep, sigma, tau), keyed on the whole rep rather than its
    signature (a rep hashes and compares by the bytes of its stacks), and
    returned as a tuple so that no caller can change what later callers get.
    """
    if sigma not in (1, -1) or tau not in (1, -1):
        raise ValueError("sigma and tau must be +-1")
    # G^T H = tau H G is H = tau G H G, since G^T = G^-1
    gens = rep.generators
    forms = []
    for element in signed_relation_basis(gens, gens.transpose(), tau, sigma):
        matrix = SignedPerm.from_cells(element, rep.N)
        if matrix is None:
            raise ArithmeticError(
                f"admissible form of {rep.signature} with (sigma, tau) = "
                f"({sigma}, {tau}) is not a signed permutation"
            )
        forms.append(BilinearForm(matrix, sigma, tau))
    if len(forms) != (count := admissible_dimension(rep, sigma, tau)):
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
    the given tau when provided; only a nonzero count is walked.
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
