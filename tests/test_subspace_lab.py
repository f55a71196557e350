import random
from pathlib import Path

import pytest

from spinorlab import subspace_lab
from spinorlab.admissible_forms import first_nondegenerate
from spinorlab.brackets import pi_image
from spinorlab.clifford_core import Signature, build_rep, metric_value
from spinorlab.exact_linalg import Matrix, kernel, rank
from spinorlab.subspace_lab import (
    IsotropicSearchError,
    _bilin,
    _find_null_direction,
    _skew_isotropic,
    _symmetric_isotropic,
    extremal_obstructed_subspace,
    extremal_witness,
    isotropic_subspace,
    load_and_verify_spin45_witness,
    mixed_rank_inequality,
    random_max_isotropic,
    random_surjectivity_sweep,
    spin23_isotropic_scan,
    spin45_search,
)

WITNESS_PATH = Path(__file__).resolve().parent.parent / "witnesses" / "spin45_max_isotropic.json"


# Oracles: the three isotropic builders as they were written before
# _skew_isotropic and _symmetric_isotropic replaced them.


def _greedy_isotropic_oracle(gram, target_dim):
    d = gram.rows
    iso = []
    while len(iso) < target_dim:
        if iso:
            rows = [
                [sum(u[a] * gram[a, b] for a in range(d) if u[a]) for b in range(d)]
                for u in iso
            ]
            space = kernel(Matrix(rows))
        else:
            space = Matrix.identity(d)
        added = False
        for c in range(space.cols):
            cand = space.col(c)
            trial = iso + [cand]
            if rank(Matrix.from_columns(trial)) != len(trial):
                continue
            iso.append(cand)
            added = True
            break
        if not added:
            raise IsotropicSearchError("greedy extension exhausted")
    return Matrix.from_columns(iso)


def _random_skew_isotropic_oracle(gram, target, rng):
    """The skew branch of random_max_isotropic."""
    n = gram.rows
    iso = []
    while len(iso) < target:
        if iso:
            rows = [
                [sum(u[a] * gram[a, b] for a in range(n) if u[a]) for b in range(n)]
                for u in iso
            ]
            space = kernel(Matrix(rows))
        else:
            space = Matrix.identity(n)
        for _ in range(50):
            coeffs = [rng.randint(-2, 2) for _ in range(space.cols)]
            cand = [
                sum(space[i, c] * coeffs[c] for c in range(space.cols))
                for i in range(n)
            ]
            if not any(cand):
                continue
            trial = iso + [cand]
            if rank(Matrix.from_columns(trial)) == len(trial):
                iso.append(cand)
                break
        else:
            raise IsotropicSearchError("random isotropic extension stalled")
    return Matrix.from_columns(iso)


def _random_symmetric_isotropic_oracle(gram, target, rng):
    d = gram.rows
    ambient = Matrix.identity(d)
    iso_cols = []
    current = gram
    for step in range(target):
        x0 = _find_null_direction(current)
        if x0 is None:
            raise IsotropicSearchError("no rational null direction found")
        dd = current.rows
        v = x0
        for _ in range(60):
            z = [rng.randint(-2, 2) for _ in range(dd)]
            bzx = _bilin(current, z, x0)
            if bzx == 0:
                continue
            bzz = _bilin(current, z, z)
            cand = [2 * bzx * zi - bzz * xi for zi, xi in zip(z, x0)]
            if any(cand):
                v = cand
                break
        pairing = [sum(current[a, b] * v[a] for a in range(dd)) for b in range(dd)]
        y_idx = next(b for b in range(dd) if pairing[b] != 0)
        iso_cols.append(
            [
                sum(ambient[i, a] * v[a] for a in range(ambient.cols) if v[a])
                for i in range(d)
            ]
        )
        if step + 1 == target:
            break
        rows = [pairing, [current[y_idx, b] for b in range(dd)]]
        comp = kernel(Matrix(rows))
        ambient = ambient * comp
        current = comp.transpose() * current * comp
    return Matrix.from_columns(iso_cols)


def _typed_entries(m):
    return [[(x, type(x)) for x in row] for row in m.data]


def test_skew_isotropic_replays_random_skew_branch():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep, tau=1)  # the spin23 form
    assert form.sigma == -1
    gram = form.matrix.dense()
    for seed in range(8):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        got = _skew_isotropic(gram, rep.N // 2, rng)
        want = _random_skew_isotropic_oracle(gram, rep.N // 2, oracle_rng)
        assert _typed_entries(got) == _typed_entries(want), seed
        assert rng.getstate() == oracle_rng.getstate(), seed


def test_symmetric_isotropic_replays_random_symmetric_builder():
    rep = build_rep(Signature(4, 5))
    form = first_nondegenerate(rep, tau=1)  # the spin45 form
    assert form.sigma == 1
    gram = form.matrix.dense()
    for seed in range(6):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        got = _symmetric_isotropic(gram, rep.N // 2, rng)
        want = _random_symmetric_isotropic_oracle(gram, rep.N // 2, oracle_rng)
        assert _typed_entries(got) == _typed_entries(want), seed
        assert rng.getstate() == oracle_rng.getstate(), seed


def test_isotropic_builders_without_rng_on_extremal_grams(monkeypatch):
    grams = []
    original = subspace_lab.isotropic_subspace

    def record(gram, symmetric, target_dim):
        grams.append((gram, symmetric, target_dim))
        return original(gram, symmetric, target_dim)

    monkeypatch.setattr(subspace_lab, "isotropic_subspace", record)
    for sig in (Signature(2, 3), Signature(1, 3), Signature(3, 3)):
        extremal_witness(sig)
    # (1,3) tries a symmetric pairing without rational null directions first
    assert [sym for _, sym, _ in grams] == [False, True, False, False]
    for gram, symmetric, target in grams:
        if symmetric:
            message = "^no rational null direction found; isotropic construction failed$"
            with pytest.raises(IsotropicSearchError, match=message):
                _symmetric_isotropic(gram, target)
        else:
            got = _skew_isotropic(gram, target)
            assert _typed_entries(got) == _typed_entries(_greedy_isotropic_oracle(gram, target))


def test_isotropic_subspace_skew():
    gram = Matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    iso = isotropic_subspace(gram, symmetric=False, target_dim=2)
    assert iso.cols == 2
    assert (iso.transpose() * gram * iso).is_zero()


def test_isotropic_subspace_symmetric_split():
    gram = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    iso = isotropic_subspace(gram, symmetric=True, target_dim=2)
    assert (iso.transpose() * gram * iso).is_zero()
    assert rank(iso) == 2


def test_isotropic_subspace_definite_fails():
    gram = Matrix.identity(4)
    with pytest.raises(IsotropicSearchError):
        isotropic_subspace(gram, symmetric=True, target_dim=1)


def test_null_direction_fractional_discriminant():
    from fractions import Fraction

    from spinorlab.subspace_lab import _find_null_direction

    # no zero diagonal, discriminant (5/2)^2 - 4 = 9/4: the pair path needs
    # the exact rational square root
    gram = Matrix([[2, Fraction(5, 2)], [Fraction(5, 2), 2]])
    vec = _find_null_direction(gram)
    assert vec is not None
    val = sum(gram[i, j] * vec[i] * vec[j] for i in range(2) for j in range(2))
    assert val == 0


def test_extremal_witness_signatures():
    for sig in [Signature(2, 3), Signature(1, 3), Signature(3, 3)]:
        form, v, sub = extremal_witness(sig)
        rep = build_rep(sig)
        assert sub.dim == 3 * rep.N // 4
        assert metric_value(rep.eta, v, v) == 0


def test_extremal_rejects_bad_module_dimension():
    rep = build_rep(Signature(1, 1))
    form = first_nondegenerate(rep)
    with pytest.raises(ValueError):
        extremal_obstructed_subspace(rep, form, [1, 1])


def test_obstructed_instances_respect_three_quarter_bound():
    # every subspace with a nonzero obstruction space that this module can
    # construct stays within dim <= 3N/4
    from spinorlab.brackets import null_kernel, obstruction_vectors

    for sig in [Signature(2, 3), Signature(1, 3), Signature(3, 3)]:
        rep = build_rep(sig)
        form, v, extremal = extremal_witness(sig)
        assert extremal.dim <= 3 * rep.N // 4
        kernel_sub = null_kernel(rep, first_nondegenerate(rep), v)
        assert obstruction_vectors(rep, first_nondegenerate(rep), kernel_sub).cols >= 1
        assert kernel_sub.dim <= 3 * rep.N // 4


def test_sweep_definite():
    rep = build_rep(Signature(3, 0))
    form = first_nondegenerate(rep)
    report = random_surjectivity_sweep(rep, form, dim=3, trials=500, seed=11)
    assert report.in_hypothesis
    assert report.counterexamples == ()


def test_sweep_indefinite_full_space():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep)
    report = random_surjectivity_sweep(rep, form, dim=4, trials=50, seed=3)
    assert report.in_hypothesis
    assert report.counterexamples == ()


def test_sweep_boundary_logged_not_asserted():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep)
    report = random_surjectivity_sweep(rep, form, dim=3, trials=20, seed=5)
    assert not report.in_hypothesis  # 3 == 3N/4 is outside the strict bound


def test_sweep_reproducible():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep)
    a = random_surjectivity_sweep(rep, form, dim=4, trials=10, seed=9)
    b = random_surjectivity_sweep(rep, form, dim=4, trials=10, seed=9)
    assert a == b


def test_spin23_scan_all_one_dimensional():
    report = spin23_isotropic_scan(trials=50, seed=2)
    assert report.distribution == {1: 50}


def test_random_max_isotropic_symmetric_form():
    rep = build_rep(Signature(4, 5))
    form = first_nondegenerate(rep, tau=1)
    rng = random.Random(4)
    sub = random_max_isotropic(rep, form, rng)
    assert sub.dim == rep.N // 2
    assert (sub.basis.transpose() * form.matrix * sub.basis).is_zero()


def test_spin45_search_finds_witness():
    report = spin45_search(seed=7, budget=50)
    assert report.found
    assert report.image_dim == 4
    assert report.subspace.dim == 8


def test_spin45_archived_witness_reverifies():
    info = load_and_verify_spin45_witness(WITNESS_PATH)
    assert info["isotropy_dim"] == 8
    assert info["image_dim"] == 4


def test_mixed_rank_inequality_23():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep, tau=1)
    report = mixed_rank_inequality(rep, form, 4, 4, trials=10, seed=1)
    assert report.in_hypothesis and report.rank_chain_fails
    assert set(report.image_dims) == {5}
    assert report.counterexamples == ()


def test_mixed_rank_outside_hypothesis():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep, tau=1)
    report = mixed_rank_inequality(rep, form, 3, 3, trials=5, seed=1)
    assert not report.in_hypothesis and not report.rank_chain_fails
    assert report.counterexamples == ()


def test_mixed_rank_41():
    rep = build_rep(Signature(4, 1))
    form = first_nondegenerate(rep, tau=1)
    report = mixed_rank_inequality(rep, form, 7, 6, trials=6, seed=2)
    assert report.in_hypothesis
    assert set(report.image_dims) == {5}
    assert report.counterexamples == ()


def test_mixed_rank_definite_threshold():
    # definite metrics only need k_+ + k_- > N for the full span; (3,0)
    # has no type +1 form (n = s = 3 mod 4), so probe (4,0)
    rep = build_rep(Signature(4, 0))
    form = first_nondegenerate(rep, tau=1)
    report = mixed_rank_inequality(rep, form, 5, 4, trials=8, seed=4)
    assert report.in_hypothesis
    assert set(report.image_dims) == {4}
    assert report.counterexamples == ()


def test_nonisotropic_plane_image_logged():
    # bracket image of a generic (non-isotropic) plane of the (2,3) module
    # may exceed one; logged without asserting a specific value
    import random as _random

    from spinorlab.brackets import pi_image, random_subspace

    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep, tau=1)
    sub = random_subspace(rep, 2, _random.Random(0))
    dim, _ = pi_image(rep, form, sub, sub)
    print(f"generic plane bracket image dimension: {dim}")
    assert dim >= 1
