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
from fractions import Fraction

from .admissible_forms import BilinearForm, find_admissible, first_nondegenerate
from .brackets import (
    SpinorSubspace,
    null_kernel,
    obstruction_vectors,
    pi_image,
    random_null_vector,
    random_subspace,
)
from .clifford_core import CliffordRep, Signature, build_rep, gamma_vector
from .exact_linalg import Matrix, kernel, rank, solve
from . import serialize


class IsotropicSearchError(RuntimeError):
    pass


def _trial_rng(seed, index):
    return random.Random(seed * 1_000_003 + index)


def _rational_sqrt(x):
    """Exact square root of a nonnegative rational, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _find_null_direction(gram: Matrix):
    """Rational null vector of a symmetric form, or None.

    Checks the diagonal, then coordinate pairs via the discriminant,
    then a bounded integer search over leading coordinates.
    """
    d = gram.rows
    for i in range(d):
        if gram[i, i] == 0:
            vec = [0] * d
            vec[i] = 1
            return vec
    for i in range(d):
        for j in range(i + 1, d):
            a, b, c = gram[i, i], gram[j, j], gram[i, j]
            root = _rational_sqrt(c * c - a * b)
            if root is None:
                continue
            vec = [0] * d
            vec[i] = -c + root
            vec[j] = a
            if any(vec):
                return vec
            vec[i] = -c - root
            if any(vec):
                return vec
    span = min(d, 5)
    for combo in _small_vectors(span, 2):
        vec = list(combo) + [0] * (d - span)
        if not any(vec):
            continue
        val = sum(
            gram[i, j] * vec[i] * vec[j] for i in range(span) for j in range(span)
        )
        if val == 0:
            return vec
    return None


def _small_vectors(length, bound):
    yield from itertools.product(*([range(-bound, bound + 1)] * length))


def isotropic_subspace(gram: Matrix, symmetric: bool, target_dim: int) -> Matrix:
    """Coordinates (d x target_dim) of an isotropic subspace of a
    nondegenerate (anti)symmetric form given by its Gram matrix.

    Antisymmetric forms use the greedy orthogonal-extension argument;
    symmetric ones peel off hyperbolic planes, failing honestly when no
    rational null direction is found.
    """
    d = gram.rows
    if target_dim == 0:
        return Matrix([[] for _ in range(d)])
    if 2 * target_dim > d:
        raise IsotropicSearchError("target exceeds the maximal isotropic dimension")
    if symmetric:
        return _symmetric_isotropic(gram, target_dim)
    return _skew_isotropic(gram, target_dim)


def _skew_isotropic(gram: Matrix, target_dim: int, rng=None) -> Matrix:
    """Greedy isotropic extension for an antisymmetric form: each step
    adds a vector of the running h-orthogonal space outside the current
    span.  Without an rng the kernel columns are tried in order; with one,
    up to 50 random integer combinations of them."""
    d = gram.rows
    iso = []
    while len(iso) < target_dim:
        if iso:
            rows = [
                [
                    sum(u[a] * gram[a, b] for a in range(d) if u[a])
                    for b in range(d)
                ]
                for u in iso
            ]
            space = kernel(Matrix(rows))
        else:
            space = Matrix.identity(d)
        for t in range(space.cols if rng is None else 50):
            if rng is None:
                cand = space.col(t)
            else:
                coeffs = [rng.randint(-2, 2) for _ in range(space.cols)]
                cand = [
                    sum(space[i, c] * coeffs[c] for c in range(space.cols))
                    for i in range(d)
                ]
            if not any(cand):
                continue
            trial = iso + [cand]
            if rank(Matrix.from_columns(trial)) == len(trial):
                iso.append(cand)
                break
        else:
            raise IsotropicSearchError("greedy extension exhausted")
    return Matrix.from_columns(iso)


def _symmetric_isotropic(gram: Matrix, target_dim: int, rng=None) -> Matrix:
    """Witt reduction for a symmetric form: each step takes a rational
    null vector and peels its hyperbolic plane off.  With an rng the found
    null vector x is replaced by a random one, 2 h(z,x) z - h(z,z) x."""
    d = gram.rows
    ambient = Matrix.identity(d)  # columns: current working basis
    iso_cols = []
    current = gram
    for step in range(target_dim):
        x = _find_null_direction(current)
        if x is None:
            raise IsotropicSearchError(
                "no rational null direction found; isotropic construction failed"
            )
        dd = current.rows
        if rng is not None:
            for _ in range(60):
                z = [rng.randint(-2, 2) for _ in range(dd)]
                bzx = _bilin(current, z, x)
                if bzx == 0:
                    continue
                bzz = _bilin(current, z, z)
                cand = [2 * bzx * zi - bzz * xi for zi, xi in zip(z, x)]
                if any(cand):
                    x = cand
                    break
        # partner with nonzero pairing, by nondegeneracy
        pairing = [
            sum(current[a, b] * x[a] for a in range(dd)) for b in range(dd)
        ]
        y_idx = next(b for b in range(dd) if pairing[b] != 0)
        iso_cols.append([
            sum(ambient[i, a] * x[a] for a in range(ambient.cols) if x[a])
            for i in range(d)
        ])
        if step + 1 == target_dim:
            break
        # orthogonal complement of the hyperbolic plane span{x, e_y}
        rows = [pairing, [current[y_idx, b] for b in range(dd)]]
        comp = kernel(Matrix(rows))
        ambient = ambient * comp
        current = comp.transpose() * current * comp
    return Matrix.from_columns(iso_cols)


def _bilin(gram, x, y):
    d = gram.rows
    return sum(
        gram[a, b] * x[a] * y[b] for a in range(d) for b in range(d) if x[a] and y[b]
    )


def extremal_obstructed_subspace(
    rep: CliffordRep, form: BilinearForm, v
) -> SpinorSubspace:
    """A subspace of dimension 3N/4 with gamma_v S0 mapped into S0-perp.

    Built as ker(gamma_v) plus an isotropic lift of the induced pairing
    of H gamma_v on a complement; certifies tightness of the 3/4 bound.
    """
    if rep.N % 4:
        raise ValueError("module dimension must be divisible by 4")
    lv = null_kernel(rep, form, v)
    n_half = rep.N // 2
    # deterministic complement: standard basis vectors keeping full rank
    cols = lv.basis.columns()
    comp = []
    for i in range(rep.N):
        e = [0] * rep.N
        e[i] = 1
        if rank(Matrix.from_columns(cols + comp + [e])) == n_half + len(comp) + 1:
            comp.append(e)
        if len(comp) == n_half:
            break
    comp_m = Matrix.from_columns(comp)
    beta = form.matrix * gamma_vector(rep, v)
    gram = comp_m.transpose() * beta * comp_m
    st = form.sigma * form.tau
    iso = isotropic_subspace(gram, symmetric=(st == 1), target_dim=rep.N // 4)
    w_cols = (comp_m * iso).columns()
    s0 = SpinorSubspace(rep, Matrix.from_columns(cols + w_cols))
    if s0.dim != 3 * rep.N // 4:
        raise ArithmeticError("constructed subspace has the wrong dimension")
    obs = obstruction_vectors(rep, form, s0)
    if solve(obs, list(v)) is None:
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
    signature: Signature
    dim: int
    trials: int
    seed: int
    in_hypothesis: bool
    counterexamples: tuple


def random_surjectivity_sweep(
    rep: CliffordRep, form: BilinearForm, dim: int, trials: int, seed: int
) -> SweepReport:
    """Seeded random subspaces of the given dimension; a counterexample is
    a subspace with nonzero obstruction space, returned verbatim."""
    sig = rep.signature
    threshold = rep.N // 2 if sig.is_definite() else 3 * rep.N // 4
    in_hypothesis = dim > threshold
    bad = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        sub = random_subspace(rep, dim, rng)
        obs = obstruction_vectors(rep, form, sub)
        if obs.cols != 0:
            bad.append((t, sub.basis, obs))
    return SweepReport(
        signature=sig,
        dim=dim,
        trials=trials,
        seed=seed,
        in_hypothesis=in_hypothesis,
        counterexamples=tuple(bad),
    )


def random_max_isotropic(rep: CliffordRep, form: BilinearForm, rng) -> SpinorSubspace:
    """Seeded maximally isotropic subspace (dimension N/2).

    Skew forms extend greedily inside the running h-orthogonal space;
    symmetric ones run a randomized hyperbolic-plane reduction.  Isotropy
    is re-verified exactly before returning.
    """
    build = _skew_isotropic if form.sigma == -1 else _symmetric_isotropic
    basis = build(form.matrix.dense(), rep.N // 2, rng)
    pairing = basis.transpose() * form.matrix * basis
    if not pairing.is_zero():
        raise ArithmeticError("sampled subspace is not isotropic")
    return SpinorSubspace(rep, basis)


@dataclass(frozen=True)
class ScanReport:
    trials: int
    seed: int
    distribution: dict


def spin23_isotropic_scan(trials: int, seed: int) -> ScanReport:
    """Bracket-image dimensions over sampled maximally isotropic planes of
    the (2,3) module with its type +1 form."""
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep, tau=1)
    dist = {}
    for t in range(trials):
        rng = _trial_rng(seed, t)
        sub = random_max_isotropic(rep, form, rng)
        dim, _ = pi_image(rep, form, sub, sub)
        dist[dim] = dist.get(dim, 0) + 1
    return ScanReport(trials=trials, seed=seed, distribution=dist)


@dataclass(frozen=True)
class WitnessReport:
    found: bool
    trials_used: int
    seed: int
    subspace: SpinorSubspace | None
    image_dim: int | None
    distribution: dict


def _structured_spin45_candidate(rep, form, rng):
    """Candidate Lagrangian from a random totally null coordinate 3-plane.

    With K the joint kernel of the three null directions, b the line of K
    annihilated by a residual null direction, and w_i the hyperbolic
    partners, span{K, gamma_w b, gamma_w gamma_w' b} is half-dimensional;
    isotropy is checked by the caller.
    """
    pos = rng.sample(range(rep.signature.p), 3)
    neg = rng.sample(range(rep.signature.p, rep.n), 3)
    signs = [rng.choice([1, -1]) for _ in range(3)]
    gv, gw = [], []
    for a, b_idx, s in zip(pos, neg, signs):
        vv = [0] * rep.n
        vv[a], vv[b_idx] = 1, s
        ww = [0] * rep.n
        ww[a], ww[b_idx] = Fraction(1, 2), Fraction(-s, 2)
        gv.append(gamma_vector(rep, vv))
        gw.append(gamma_vector(rep, ww))
    rem_pos = [i for i in range(rep.signature.p) if i not in pos]
    rem_neg = [i for i in range(rep.signature.p, rep.n) if i not in neg]
    u = [0] * rep.n
    u[rng.choice(rem_pos)] = 1
    u[rng.choice(rem_neg)] = rng.choice([1, -1])
    k3 = kernel(gv[0].vstack(gv[1]).vstack(gv[2]))
    if k3.cols != 2:
        return None
    b_line = k3 * kernel(gamma_vector(rep, u) * k3)
    if b_line.cols != 1:
        return None
    cols = k3.columns()
    for i in range(3):
        cols += (gw[i] * b_line).columns()
    for i, j in ((0, 1), (0, 2), (1, 2)):
        cols += (gw[i] * gw[j] * b_line).columns()
    basis = Matrix.from_columns(cols)
    if rank(basis) != rep.N // 2:
        return None
    if not (basis.transpose() * form.matrix * basis).is_zero():
        return None
    return SpinorSubspace(rep, basis)


def spin45_search(seed: int, budget: int) -> WitnessReport:
    """Randomized search for a maximally isotropic subspace of the (4,5)
    module whose bracket image has dimension 4.

    Even trials build a candidate around a random totally null coordinate
    3-plane; odd trials draw an unstructured random half-dimensional
    isotropic subspace.  Every candidate is verified exactly.
    """
    rep = build_rep(Signature(4, 5))
    form = first_nondegenerate(rep, tau=1)
    dist = {}
    for t in range(budget):
        rng = _trial_rng(seed, t)
        if t % 2 == 0:
            sub = _structured_spin45_candidate(rep, form, rng)
            if sub is None:
                continue
        else:
            sub = random_max_isotropic(rep, form, rng)
        dim, _ = pi_image(rep, form, sub, sub)
        dist[dim] = dist.get(dim, 0) + 1
        if dim == 4:
            return WitnessReport(
                found=True,
                trials_used=t + 1,
                seed=seed,
                subspace=sub,
                image_dim=dim,
                distribution=dist,
            )
    return WitnessReport(
        found=False,
        trials_used=budget,
        seed=seed,
        subspace=None,
        image_dim=None,
        distribution=dist,
    )


def save_spin45_witness(path, report: WitnessReport):
    if not report.found:
        raise ValueError("no witness to save")
    serialize.dump(
        {
            "kind": "spin45-max-isotropic-witness",
            "p": 4,
            "q": 5,
            "seed": report.seed,
            "trials_used": report.trials_used,
            "image_dim": report.image_dim,
            "basis": serialize.matrix_to_json(report.subspace.basis),
        },
        path,
    )


def load_and_verify_spin45_witness(path) -> dict:
    """Reload an archived witness and re-verify every claim exactly."""
    payload = serialize.load(path)
    if payload.get("kind") != "spin45-max-isotropic-witness":
        raise ValueError("not a spin45 witness file")
    rep = build_rep(Signature(4, 5))
    form = first_nondegenerate(rep, tau=1)
    basis = serialize.matrix_from_json(payload["basis"])
    sub = SpinorSubspace(rep, basis)
    if sub.dim != rep.N // 2:
        raise ArithmeticError("witness is not half-dimensional")
    pairing = basis.transpose() * form.matrix * basis
    if not pairing.is_zero():
        raise ArithmeticError("witness is not isotropic")
    dim, _ = pi_image(rep, form, sub, sub)
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
    signature: Signature
    k_plus: int
    k_minus: int
    trials: int
    seed: int
    in_hypothesis: bool
    rank_chain_fails: bool
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

    Also records the rank bookkeeping: N/2 <= 2N - k_plus - k_minus is
    exactly the negation of the indefinite hypothesis.
    """
    if form.tau != 1:
        raise ValueError("mixed bound uses a type +1 form")
    n_mod = rep.N
    if rep.signature.is_definite():
        in_hypothesis = k_plus + k_minus > n_mod
    else:
        in_hypothesis = 2 * (k_plus + k_minus) > 3 * n_mod
    rank_chain_fails = n_mod // 2 > 2 * n_mod - k_plus - k_minus
    if (
        not rep.signature.is_definite()
        and n_mod % 2 == 0
        and rank_chain_fails != in_hypothesis
    ):
        raise ArithmeticError("rank bookkeeping mismatch")
    dims = []
    bad = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        a = random_subspace(rep, k_plus, rng)
        b = random_subspace(rep, k_minus, rng)
        dim, _ = pi_image(rep, form, a, b)
        dims.append(dim)
        if in_hypothesis and dim != rep.n:
            bad.append((t, a.basis, b.basis))
    return MixedBoundReport(
        signature=rep.signature,
        k_plus=k_plus,
        k_minus=k_minus,
        trials=trials,
        seed=seed,
        in_hypothesis=in_hypothesis,
        rank_chain_fails=rank_chain_fails,
        image_dims=tuple(dims),
        counterexamples=tuple(bad),
    )
