"""Extremal subspaces and randomized sweeps for the pointwise rank bounds.

Every randomized routine is reproducible from (seed, budget): per-trial
generators are derived deterministically from the master seed, and every
witness is re-verified from scratch in exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import mul

import numpy as np

from .admissible_forms import BilinearForm, find_admissible, first_nondegenerate
from .brackets import (
    SpinorSubspace,
    isotropic,
    null_kernel,
    obstruction_vectors,
    pi_image,
    random_integers,
    random_null_vector,
    random_subspace,
)
from .clifford_core import CliffordRep, Signature, build_rep, gamma_vector
from .exact_linalg import Echelon, apply_terms, full_rank_mod_p, term_rows
from . import serialize

# Trials per batched certificate in random_surjectivity_sweep.
SWEEP_BLOCK = 64
# The sweep's subspace entries lie in -_SWEEP_BOUND.._SWEEP_BOUND.
_SWEEP_BOUND = 3


class IsotropicSearchError(RuntimeError):
    pass


def _trial_rng(seed, index):
    return random.Random(seed * 1_000_003 + index)


def _find_null_direction(gram):
    """Integer null vector of a symmetric form given by its integer Gram
    rows, or None.

    Checks the diagonal, then coordinate pairs via the discriminant,
    then a bounded integer search over leading coordinates.
    """
    d = len(gram)
    for i in range(d):
        if gram[i][i] == 0:
            return [int(k == i) for k in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            a, b, c = gram[i][i], gram[j][j], gram[i][j]
            disc = c * c - a * b
            root = math.isqrt(disc) if disc >= 0 else -1
            if root * root != disc:
                continue
            vec = [0] * d
            vec[i] = -c + root
            vec[j] = a  # nonzero: a zero diagonal returned above
            return vec
    span = min(d, 5)
    for combo in itertools.product(range(-2, 3), repeat=span):
        vec = list(combo) + [0] * (d - span)
        if not any(vec):
            continue
        val = sum(
            gram[i][j] * vec[i] * vec[j] for i in range(span) for j in range(span)
        )
        if val == 0:
            return vec
    return None


def _combine(columns, coeffs):
    """sum_a coeffs[a] columns[a], over the nonzero coefficients."""
    out = [0] * len(columns[0])
    for c, col in zip(coeffs, columns):
        if c:
            for i, x in enumerate(col):
                if x:
                    out[i] += c * x
    return out


def isotropic_subspace(gram, symmetric: bool, target_dim: int) -> list:
    """Columns (target_dim vectors of length d) spanning an isotropic
    subspace of a nondegenerate (anti)symmetric form given by its d Gram
    rows.

    Antisymmetric forms use the greedy orthogonal-extension argument;
    symmetric ones peel off hyperbolic planes, failing honestly when no
    rational null direction is found.
    """
    d = len(gram)
    if 2 * target_dim > d:
        raise IsotropicSearchError("target exceeds the maximal isotropic dimension")
    if symmetric:
        return _symmetric_isotropic(gram, target_dim)
    return _skew_isotropic(lambda u: _combine(gram, u), d, target_dim)


def _skew_isotropic(pairing_row, d: int, target_dim: int, rng=None) -> list:
    """Greedy isotropic extension for an antisymmetric form on R^d, with
    pairing_row(u) a row whose kernel is u's h-orthogonal space, such as
    u^T gram: each step adds a vector of the running h-orthogonal space
    outside the current span.  Without an rng the integer kernel columns
    are tried in order; with one, up to 50 random integer combinations of
    them."""
    iso = []
    echelon = Echelon()  # the accepted vectors
    orthogonal = Echelon()  # their pairing rows
    space = [[int(i == j) for i in range(d)] for j in range(d)]
    while len(iso) < target_dim:
        if iso:
            orthogonal.add(pairing_row(iso[-1]))
            space = orthogonal.kernel(d)
        for t in range(len(space) if rng is None else 50):
            if rng is None:
                cand = space[t]
            else:
                coeffs = [rng.randint(-2, 2) for _ in space]
                cand = [sum(map(mul, entries, coeffs)) for entries in zip(*space)]
            if echelon.add(cand):
                iso.append(cand)
                break
        else:
            raise IsotropicSearchError("greedy extension exhausted")
    return iso


def _symmetric_isotropic(gram, target_dim: int) -> list:
    """Witt reduction for a symmetric form given by its Gram rows: each
    step takes a rational null vector and peels its hyperbolic plane
    off."""
    d = len(gram)
    ambient = [[int(i == j) for i in range(d)] for j in range(d)]  # working basis
    iso_cols = []
    current = gram
    for step in range(target_dim):
        x = _find_null_direction(current)
        if x is None:
            raise IsotropicSearchError(
                "no rational null direction found; isotropic construction failed"
            )
        # partner with nonzero pairing, by nondegeneracy
        pairing = _combine(current, x)
        y_idx = next(b for b, value in enumerate(pairing) if value != 0)
        iso_cols.append(_combine(ambient, x))
        if step + 1 == target_dim:
            break
        # orthogonal complement of the hyperbolic plane span{x, e_y}
        comp = Echelon([pairing, current[y_idx]]).kernel(len(current))
        ambient = [_combine(ambient, c) for c in comp]
        images = [_combine(current, c) for c in comp]  # rows c^T current
        current = [[sum(map(mul, row, c)) for c in comp] for row in images]
    return iso_cols


def extremal_obstructed_subspace(
    rep: CliffordRep, form: BilinearForm, v
) -> SpinorSubspace:
    """A subspace of dimension 3N/4 with gamma_v S0 mapped into S0-perp.

    Built as ker(gamma_v) plus an isotropic lift of the induced pairing
    of H gamma_v on a complement; certifies tightness of the 3/4 bound.
    The complement is spanned by standard basis vectors e_c, so the
    pairing is the minor of H gamma_v's rows at those indices, and the
    lift is scattered back to them.
    """
    if rep.N % 4:
        raise ValueError("module dimension must be divisible by 4")
    lv = null_kernel(rep, form, v)
    n_half = rep.N // 2
    # deterministic complement: the standard basis vectors e_c that the
    # kernel columns and the earlier e_c leave independent, N/2 of them
    cols = list(lv.basis)
    echelon = Echelon()
    if sum(map(echelon.add, cols)) != n_half:
        raise ArithmeticError("kernel columns are not independent")
    comp = [c for c in range(rep.N) if echelon.add([int(i == c) for i in range(rep.N)])]
    # beta = H gamma_v has the terms (v_i, H G_i); its gram is the comp minor
    beta = term_rows([(c, form.matrix * g) for c, g in gamma_vector(rep, v)], rep.N)
    gram = [[beta[a][c] for c in comp] for a in comp]
    st = form.sigma * form.tau
    iso = isotropic_subspace(gram, symmetric=(st == 1), target_dim=rep.N // 4)
    for w in iso:
        lift = [0] * rep.N
        for c, x in zip(comp, w):
            if x:
                lift[c] = x
        cols.append(lift)
    s0 = SpinorSubspace(rep, cols)
    if s0.dim != 3 * rep.N // 4:
        raise ArithmeticError("constructed subspace has the wrong dimension")
    obs = Echelon(obstruction_vectors(rep, form, s0))
    if obs.add(v):  # v is outside the span of the obstruction basis
        raise ArithmeticError("null vector missing from the obstruction space")
    return s0


def extremal_witness(sig: Signature, seed: int = 0):
    """(form, v, subspace) certifying tightness of the 3/4 bound for a
    signature: admissible basis forms are scanned in a fixed order and the
    first whose induced pairing admits the isotropic lift is kept."""
    rep = build_rep(sig)
    rng = _trial_rng(seed, 0)
    v = random_null_vector(sig, rng)
    last_error = None
    for sigma in (1, -1):
        for tau in (-1, 1):
            for form in find_admissible(rep, sigma, tau):
                try:
                    return form, v, extremal_obstructed_subspace(rep, form, v)
                except IsotropicSearchError as err:
                    last_error = err
    raise IsotropicSearchError(
        f"no admissible form admits the extremal construction for {sig}: {last_error}"
    )


@dataclass(frozen=True)
class SweepReport:
    in_hypothesis: bool
    counterexamples: tuple


def random_surjectivity_sweep(
    rep: CliffordRep, form: BilinearForm, dim: int, trials: int, seed: int
) -> SweepReport:
    """Seeded random subspaces of the given dimension; a counterexample is
    a subspace with nonzero obstruction space, returned verbatim.

    Trials run in blocks of SWEEP_BLOCK.  A trial that _block_surjective
    certifies is surjective; every other one builds random_subspace from
    its own generator and solves obstruction_vectors exactly, so the
    report is the one a per-trial exact loop gives.
    """
    threshold = rep.N // 2 if rep.signature.is_definite() else 3 * rep.N // 4
    bad = []
    for start in range(0, trials, SWEEP_BLOCK):
        block = range(start, min(start + SWEEP_BLOCK, trials))
        for t, surjective in zip(block, _block_surjective(rep, form, dim, seed, block)):
            if surjective:
                continue
            sub = random_subspace(rep, dim, _trial_rng(seed, t), _SWEEP_BOUND)
            obs = obstruction_vectors(rep, form, sub)
            if obs:
                bad.append((t, sub.basis, obs))
    return SweepReport(in_hypothesis=dim > threshold, counterexamples=tuple(bad))


def _block_surjective(rep, form, dim, seed, block):
    """Per trial t of block, whether the first dim draws of
    _trial_rng(seed, t) are independent and their obstruction rows
    h(b_a, gamma_i b_c), a <= c, have rank n, both certified mod PRIME
    by one full_rank_mod_p each.  random_subspace keeps exactly those
    draws when they are independent, and rank n is a zero obstruction
    space, so a certified trial is surjective.  All False where no
    certificate can pass (dim 0, dim > N, fewer than n rows) or an
    entry N * bound**2 could overflow int64."""
    N, n = rep.N, rep.n
    rows = dim * (dim + 1) // 2
    if not (0 < dim <= N and rows >= n and N * _SWEEP_BOUND**2 <= np.iinfo(np.int64).max):
        return [False] * len(block)
    draws = [random_integers(_trial_rng(seed, t), dim * N, _SWEEP_BOUND) for t in block]
    bt = np.array(draws, dtype=np.int64).reshape(len(block), dim, N)  # B^T per trial
    b = bt.transpose(0, 2, 1)
    upper = tuple(zip(*((a, c) for c in range(dim) for a in range(c + 1))))  # a <= c
    obstruction = np.empty((len(block), rows, n), dtype=np.int64)
    for i, hg in enumerate(form.matrix * rep.generators):
        # column j of B^T H gamma_i: signs[j] * column perm[j] of B^T
        pairing = (bt[:, :, hg.perm] * hg.signs) @ b
        obstruction[:, :, i] = pairing[:, upper[0], upper[1]]
    return full_rank_mod_p(b) & full_rank_mod_p(obstruction)


def random_max_isotropic(rep: CliffordRep, form: BilinearForm, rng) -> SpinorSubspace:
    """Seeded maximally isotropic subspace (dimension N/2) of a skew
    (sigma = -1) form, extended greedily inside the running h-orthogonal
    space; each orthogonality row is the gather H u, which is -u^T H as
    H^T = -H, so it has u^T H's kernel.  Isotropy is re-verified exactly
    before returning.
    """
    if form.sigma != -1:
        raise ValueError("random_max_isotropic needs a skew (sigma = -1) form")
    # the extension's Echelon accepted every column: they are independent
    basis = _skew_isotropic(form.matrix.apply, rep.N, rep.N // 2, rng)
    if not isotropic(form, basis):
        raise ArithmeticError("sampled subspace is not isotropic")
    return SpinorSubspace._certified(rep, basis)


def spin23_isotropic_scan(trials: int, seed: int) -> dict:
    """{bracket-image dimension: count} over sampled maximally isotropic
    planes of the (2,3) module with its type +1 form."""
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep, tau=1)
    dist = {}
    for t in range(trials):
        rng = _trial_rng(seed, t)
        sub = random_max_isotropic(rep, form, rng)
        dim = pi_image(rep, form, sub, sub)
        dist[dim] = dist.get(dim, 0) + 1
    return dist


@dataclass(frozen=True)
class WitnessReport:
    found: bool
    trials_used: int
    subspace: SpinorSubspace | None
    image_dim: int | None
    distribution: dict


def _structured_spin45_candidate(rep, form, rng):
    """Candidate Lagrangian from a random totally null coordinate 3-plane.

    With K the joint kernel of the three null directions, b the line of K
    annihilated by a residual null direction, and w_i the hyperbolic
    partners, span{K, gamma_w b, gamma_w gamma_w' b} is half-dimensional;
    isotropy is checked here.  Every gamma is a list of terms: for
    v_i = e_a + s e_b the partner is taken as w_i = e_a - s e_b, twice the
    one with g(v_i, w_i) = 1, so every column is an integer one.
    """
    pos = rng.sample(range(rep.signature.p), 3)
    neg = rng.sample(range(rep.signature.p, rep.n), 3)
    signs = [rng.choice([1, -1]) for _ in range(3)]
    gens = rep.generators
    gv = [[(1, gens[a]), (s, gens[b_idx])] for a, b_idx, s in zip(pos, neg, signs)]
    gw = [[(1, gens[a]), (-s, gens[b_idx])] for a, b_idx, s in zip(pos, neg, signs)]
    rem_pos = [i for i in range(rep.signature.p) if i not in pos]
    rem_neg = [i for i in range(rep.signature.p, rep.n) if i not in neg]
    u = [0] * rep.n
    u[rng.choice(rem_pos)] = 1
    u[rng.choice(rem_neg)] = rng.choice([1, -1])
    k3 = Echelon(row for g in gv for row in term_rows(g, rep.N)).kernel(rep.N)
    if len(k3) != 2:
        return None
    gamma_u = gamma_vector(rep, u)
    # the rows of gamma_u K, K's columns as its two columns
    line = Echelon(zip(*(apply_terms(gamma_u, k) for k in k3))).kernel(2)
    if len(line) != 1:
        return None
    b = _combine(k3, line[0])
    cols = k3 + [apply_terms(g, b) for g in gw]
    cols += [apply_terms(gw[i], apply_terms(gw[j], b)) for i, j in ((0, 1), (0, 2), (1, 2))]
    # the N/2 columns have rank N/2: independence is certified here
    if len(Echelon(cols)) != rep.N // 2:
        return None
    if not isotropic(form, cols):
        return None
    return SpinorSubspace._certified(rep, cols)


def spin45_search(seed: int, budget: int) -> WitnessReport:
    """Randomized search for a maximally isotropic subspace of the (4,5)
    module whose bracket image has dimension 4.

    Each trial builds a candidate around a random totally null coordinate
    3-plane from its own generator; a trial whose construction fails
    draws nothing more and the search goes on to the next.  Every
    candidate is verified exactly.
    """
    rep = build_rep(Signature(4, 5))
    form = first_nondegenerate(rep, tau=1)
    dist = {}
    for t in range(budget):
        sub = _structured_spin45_candidate(rep, form, _trial_rng(seed, t))
        if sub is None:
            continue
        dim = pi_image(rep, form, sub, sub)
        dist[dim] = dist.get(dim, 0) + 1
        if dim == 4:
            break
    else:  # the budget ran out without a witness
        t, sub = budget - 1, None
    return WitnessReport(
        found=sub is not None,
        trials_used=t + 1,
        subspace=sub,
        image_dim=None if sub is None else 4,
        distribution=dist,
    )


def save_spin45_witness(path, report: WitnessReport, seed: int):
    if not report.found:
        raise ValueError("no witness to save")
    serialize.dump(
        {
            "kind": "spin45-max-isotropic-witness",
            "p": 4,
            "q": 5,
            "seed": seed,
            "trials_used": report.trials_used,
            "image_dim": report.image_dim,
            "basis": serialize.columns_to_json(report.subspace.basis),
        },
        path,
    )


def load_and_verify_spin45_witness(path) -> dict:
    """Reload an archived witness and re-verify every claim exactly."""
    payload = serialize.load(path)
    if payload.get("kind") != "spin45-max-isotropic-witness":
        raise ValueError("not a spin45 witness file")
    for key in ("seed", "trials_used", "image_dim"):
        if type(payload[key]) is not int:
            raise ValueError(f"witness field {key} is not an integer")
    rep = build_rep(Signature(4, 5))
    form = first_nondegenerate(rep, tau=1)
    basis = serialize.columns_from_json(payload["basis"], rep.N)
    sub = SpinorSubspace(rep, basis)
    if sub.dim != rep.N // 2:
        raise ArithmeticError("witness is not half-dimensional")
    if not isotropic(form, basis):
        raise ArithmeticError("witness is not isotropic")
    dim = pi_image(rep, form, sub, sub)
    if dim != payload["image_dim"]:
        raise ArithmeticError("witness image dimension changed")
    return {
        "isotropy_dim": sub.dim,
        "image_dim": dim,
        "seed": payload["seed"],
        "trials_used": payload["trials_used"],
    }


@dataclass(frozen=True)
class MixedBoundReport:
    in_hypothesis: bool
    image_dims: tuple
    counterexamples: tuple


def mixed_rank_inequality(
    rep: CliffordRep,
    form: BilinearForm,
    k_plus: int,
    k_minus: int,
    trials: int,
    seed: int,
) -> MixedBoundReport:
    """Seeded subspace pairs (dims k_plus, k_minus); under the hypothesis
    k_plus + k_minus > 3N/2 (> N for definite metrics) the bracket image
    must be all of R^n.
    """
    if form.tau != 1:
        raise ValueError("mixed bound uses a type +1 form")
    n_mod = rep.N
    if rep.signature.is_definite():
        in_hypothesis = k_plus + k_minus > n_mod
    else:
        in_hypothesis = 2 * (k_plus + k_minus) > 3 * n_mod
    dims = []
    bad = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        a = random_subspace(rep, k_plus, rng)
        b = random_subspace(rep, k_minus, rng)
        dim = pi_image(rep, form, a, b)
        dims.append(dim)
        if in_hypothesis and dim != rep.n:
            bad.append((t, a.basis, b.basis))
    return MixedBoundReport(
        in_hypothesis=in_hypothesis,
        image_dims=tuple(dims),
        counterexamples=tuple(bad),
    )
