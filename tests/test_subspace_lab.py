import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from spinorlab import brackets, exact_linalg, serialize, subspace_lab
from spinorlab.admissible_forms import find_admissible, first_nondegenerate
from spinorlab.brackets import null_kernel, pi_image, random_null_vector
from spinorlab.clifford_core import Signature, build_rep, gamma_vector, metric_value
from spinorlab.exact_linalg import Matrix
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
from test_brackets import _CountingEchelon, _pi_image_oracle
from test_exact_linalg import bareiss_kernel, bareiss_rank, is_zero

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
            space = bareiss_kernel(Matrix(rows))
        else:
            space = Matrix.identity(d)
        added = False
        for c in range(space.cols):
            cand = space.col(c)
            trial = iso + [cand]
            if bareiss_rank(Matrix.from_columns(trial)) != len(trial):
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
            space = bareiss_kernel(Matrix(rows))
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
            if bareiss_rank(Matrix.from_columns(trial)) == len(trial):
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
        comp = bareiss_kernel(Matrix(rows))
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
    assert is_zero(iso.transpose() * gram * iso)


def test_isotropic_subspace_symmetric_split():
    gram = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    iso = isotropic_subspace(gram, symmetric=True, target_dim=2)
    assert is_zero(iso.transpose() * gram * iso)
    assert bareiss_rank(iso) == 2


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


def _extremal_obstructed_oracle(rep, form, v):
    """extremal_obstructed_subspace as written before the incremental
    reducer: the complement re-ranks the growing column list per step."""
    lv = null_kernel(rep, form, v)
    n_half = rep.N // 2
    cols = lv.basis.columns()
    comp = []
    for i in range(rep.N):
        e = [0] * rep.N
        e[i] = 1
        if bareiss_rank(Matrix.from_columns(cols + comp + [e])) == n_half + len(comp) + 1:
            comp.append(e)
        if len(comp) == n_half:
            break
    comp_m = Matrix.from_columns(comp)
    gram = comp_m.transpose() * form.matrix.dense() * gamma_vector(rep, v) * comp_m
    if form.sigma * form.tau == 1:
        iso = _symmetric_isotropic(gram, rep.N // 4)
    else:
        iso = _greedy_isotropic_oracle(gram, rep.N // 4)
    return Matrix.from_columns(cols + (comp_m * iso).columns())


@pytest.mark.parametrize(
    "sig", [Signature(2, 3), Signature(1, 3), Signature(3, 3), Signature(2, 2), Signature(4, 1)],
    ids=str,
)
def test_extremal_subspace_matches_re_ranking_oracle(sig):
    rep = build_rep(sig)
    built = 0
    for seed in range(3):
        v = random_null_vector(sig, random.Random(seed))
        for sigma, tau in ((1, -1), (1, 1), (-1, -1), (-1, 1)):
            for form in find_admissible(rep, sigma, tau):
                try:
                    want = _extremal_obstructed_oracle(rep, form, v)
                except IsotropicSearchError:
                    with pytest.raises(IsotropicSearchError):
                        extremal_obstructed_subspace(rep, form, v)
                    continue
                got = extremal_obstructed_subspace(rep, form, v).basis
                assert _typed_entries(got) == _typed_entries(want)
                built += 1
    assert built > 0


def test_extremal_rejects_dependent_kernel_columns(monkeypatch):
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep)
    column = [1] + [0] * (rep.N - 1)
    dependent = SimpleNamespace(basis=Matrix.from_columns([column, column]))
    monkeypatch.setattr(subspace_lab, "null_kernel", lambda *args: dependent)
    with pytest.raises(ArithmeticError, match="kernel columns are not independent"):
        extremal_obstructed_subspace(rep, form, [1, 0, 1, 0, 0])


def test_extremal_checks_that_v_lies_in_the_obstruction_space(monkeypatch):
    sig = Signature(2, 3)
    rep = build_rep(sig)
    form, v, extremal = extremal_witness(sig)
    e0 = [1] + [0] * (rep.n - 1)  # a null v has two nonzero entries, so e0 misses it
    spanned = Matrix.from_columns([[2 * x + y for x, y in zip(v, e0)], e0])
    monkeypatch.setattr(subspace_lab, "obstruction_vectors", lambda *args: spanned)
    assert extremal_obstructed_subspace(rep, form, v).basis == extremal.basis
    missing = Matrix.from_columns([e0])
    monkeypatch.setattr(subspace_lab, "obstruction_vectors", lambda *args: missing)
    with pytest.raises(ArithmeticError, match="null vector missing"):
        extremal_obstructed_subspace(rep, form, v)


def _fallback_trials(monkeypatch, seed, trials):
    """The trials, in call order, that the sweep sends down the exact
    random_subspace path, each read off its generator's fresh state."""
    fresh = {subspace_lab._trial_rng(seed, t).getstate(): t for t in range(trials)}
    calls = []

    def counted(rep, dim, rng, bound=3, _original=subspace_lab.random_subspace):
        calls.append(fresh[rng.getstate()])
        return _original(rep, dim, rng, bound)

    monkeypatch.setattr(subspace_lab, "random_subspace", counted)
    return calls


def _rank_repair_trials(rep, dim, trials, seed):
    """The trials whose random_subspace draws more than dim candidates."""
    repaired = []
    for t in range(trials):
        rng = subspace_lab._trial_rng(seed, t)
        brackets.random_subspace(rep, dim, rng)
        first = subspace_lab._trial_rng(seed, t)
        brackets.random_integers(first, dim * rep.N, 3)
        if rng.getstate() != first.getstate():
            repaired.append(t)
    return repaired


def test_in_hypothesis_sweep_solves_no_kernel_and_re_ranks_nothing(monkeypatch):
    # above 3N/4 on (3,3) every trial is certified mod p: no exact
    # fallback, so no Echelon, kernel or rank at all
    rep = build_rep(Signature(3, 3))
    form = first_nondegenerate(rep)
    calls = []
    for name in ("kernel", "rank"):

        def counted(*args, _original=getattr(brackets, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(brackets, name, counted)
    monkeypatch.setattr(brackets, "Echelon", _CountingEchelon)
    _CountingEchelon.adds = _CountingEchelon.kernels = 0
    fallbacks = _fallback_trials(monkeypatch, 7, 500)
    report = random_surjectivity_sweep(rep, form, 3 * rep.N // 4 + 1, 500, 7)
    assert report.in_hypothesis and not report.counterexamples
    assert fallbacks == [] and calls == []
    assert _CountingEchelon.adds == _CountingEchelon.kernels == 0


def test_in_hypothesis_sweep_falls_back_exactly_on_rank_repair(monkeypatch):
    # on (2,3) dim = N = 4: a trial whose four draws are dependent needs
    # rank repair, fails the column certificate and runs the exact path
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep)
    dim = 3 * rep.N // 4 + 1
    repaired = _rank_repair_trials(rep, dim, 500, 7)
    assert len(repaired) == 11
    fallbacks = _fallback_trials(monkeypatch, 7, 500)
    report = random_surjectivity_sweep(rep, form, dim, 500, 7)
    assert report.in_hypothesis and not report.counterexamples
    assert fallbacks == repaired


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


def _sweep_oracle(rep, form, dim, trials, seed, bound=3):
    """random_surjectivity_sweep as a per-trial exact loop: every trial
    builds random_subspace and solves obstruction_vectors."""
    threshold = rep.N // 2 if rep.signature.is_definite() else 3 * rep.N // 4
    bad = []
    for t in range(trials):
        sub = brackets.random_subspace(rep, dim, subspace_lab._trial_rng(seed, t), bound)
        obs = brackets.obstruction_vectors(rep, form, sub)
        if obs.cols != 0:
            bad.append((t, sub.basis, obs))
    return subspace_lab.SweepReport(
        signature=rep.signature,
        dim=dim,
        trials=trials,
        seed=seed,
        in_hypothesis=dim > threshold,
        counterexamples=tuple(bad),
    )


def _assert_same_report(got, want):
    assert got == want
    for (_, basis, obs), (_, want_basis, want_obs) in zip(got.counterexamples, want.counterexamples):
        assert _typed_entries(basis) == _typed_entries(want_basis)
        assert _typed_entries(obs) == _typed_entries(want_obs)


_SMALL_SIGNATURES = [Signature(p, n - p) for n in range(1, 7) for p in range(n + 1)]


@pytest.mark.parametrize("sig", _SMALL_SIGNATURES, ids=str)
def test_sweep_matches_per_trial_oracle_at_every_dimension(sig):
    rep = build_rep(sig)
    form = first_nondegenerate(rep)
    obstructed = 0
    for seed in (3, 7):
        for dim in range(rep.N + 1):
            want = _sweep_oracle(rep, form, dim, 25, seed)
            _assert_same_report(random_surjectivity_sweep(rep, form, dim, 25, seed), want)
            obstructed += len(want.counterexamples)
    assert obstructed > 0  # dim 0 at least: every v obstructs the zero subspace


def test_sweep_with_a_planted_small_prime_falls_back_and_agrees(monkeypatch):
    # mod 3 about half of the square draws (dim = N) and of the systems
    # with n rows look singular: those trials take the exact path, the
    # rest stay certified, and the report does not change
    trials = 2 * subspace_lab.SWEEP_BLOCK + 5
    for sig, dim in ((Signature(2, 3), 4), (Signature(3, 3), 8), (Signature(3, 3), 4)):
        rep = build_rep(sig)
        form = first_nondegenerate(rep)
        want = _sweep_oracle(rep, form, dim, trials, 7)
        with monkeypatch.context() as patch:
            patch.setattr(exact_linalg, "PRIME", 3)
            fallbacks = _fallback_trials(patch, 7, trials)
            got = random_surjectivity_sweep(rep, form, dim, trials, 7)
        _assert_same_report(got, want)
        assert trials // 4 < len(fallbacks) < trials, sig


@pytest.mark.parametrize(
    "sig, dim",
    [
        (Signature(2, 3), 2),  # 3 obstruction rows < n = 5
        (Signature(2, 3), 0),  # the zero subspace
        (Signature(3, 3), 1),  # 1 row < n = 6
    ],
    ids=str,
)
def test_sweep_routes_uncertifiable_dimensions_to_the_exact_path(sig, dim, monkeypatch):
    rep = build_rep(sig)
    form = first_nondegenerate(rep)
    trials = subspace_lab.SWEEP_BLOCK + 3
    want = _sweep_oracle(rep, form, dim, trials, 1)
    fallbacks = _fallback_trials(monkeypatch, 1, trials)
    got = random_surjectivity_sweep(rep, form, dim, trials, 1)
    _assert_same_report(got, want)
    assert fallbacks == list(range(trials))
    assert len(got.counterexamples) == trials  # none of these can be surjective


def test_sweep_routes_entries_that_could_overflow_int64_to_the_exact_path(monkeypatch):
    # N * bound**2 = 2 * 2**62 is one past the int64 maximum
    rep = build_rep(Signature(1, 1))
    form = first_nondegenerate(rep)
    monkeypatch.setattr(subspace_lab, "_SWEEP_BOUND", 2**31)
    want = _sweep_oracle(rep, form, 2, 5, 7, bound=2**31)
    fallbacks = _fallback_trials(monkeypatch, 7, 5)
    _assert_same_report(random_surjectivity_sweep(rep, form, 2, 5, 7), want)
    assert fallbacks == list(range(5))
    monkeypatch.setattr(subspace_lab, "_SWEEP_BOUND", 2**31 - 1)  # 2 * (2**31 - 1)**2 fits
    fallbacks.clear()
    want = _sweep_oracle(rep, form, 2, 5, 7, bound=2**31 - 1)
    _assert_same_report(random_surjectivity_sweep(rep, form, 2, 5, 7), want)
    assert len(fallbacks) < 5


def test_sweep_certifies_a_partial_last_block(monkeypatch):
    rep = build_rep(Signature(3, 3))
    form = first_nondegenerate(rep)
    blocks = []
    original = subspace_lab._block_surjective

    def recorded(rep, form, dim, seed, block):
        blocks.append(block)
        return original(rep, form, dim, seed, block)

    monkeypatch.setattr(subspace_lab, "_block_surjective", recorded)
    size = subspace_lab.SWEEP_BLOCK
    report = random_surjectivity_sweep(rep, form, 7, 2 * size + 3, 7)
    assert [(b.start, b.stop) for b in blocks] == [(0, size), (size, 2 * size), (2 * size, 2 * size + 3)]
    assert report == _sweep_oracle(rep, form, 7, 2 * size + 3, 7)
    assert random_surjectivity_sweep(rep, form, 7, 0, 7).counterexamples == ()


def test_spin23_scan_all_one_dimensional():
    report = spin23_isotropic_scan(trials=50, seed=2)
    assert report.distribution == {1: 50}


def test_random_max_isotropic_symmetric_form():
    rep = build_rep(Signature(4, 5))
    form = first_nondegenerate(rep, tau=1)
    rng = random.Random(4)
    sub = random_max_isotropic(rep, form, rng)
    assert sub.dim == rep.N // 2
    assert is_zero(sub.basis.transpose() * form.matrix * sub.basis)


def _planted_nonisotropic_basis(rep, form):
    """N/2 independent Fraction coordinate columns, among them e_0 and
    e_perm[0], whose pairing h(e_perm[0], e_0) = signs[0] is nonzero."""
    first = [0, form.matrix.perm[0]]
    picks = list(dict.fromkeys(first + list(range(rep.N))))[: rep.N // 2]
    basis = Matrix.from_columns(
        [[Fraction(1, k + 2) if r == j else 0 for r in range(rep.N)] for k, j in enumerate(picks)]
    )
    assert not is_zero(basis.transpose() * form.matrix.dense() * basis)
    return basis


@pytest.mark.parametrize("sig", [Signature(2, 3), Signature(4, 5)], ids=str)
def test_random_max_isotropic_rejects_a_planted_nonisotropic_basis(sig, monkeypatch):
    rep = build_rep(sig)
    form = first_nondegenerate(rep, tau=1)
    planted = _planted_nonisotropic_basis(rep, form)
    monkeypatch.setattr(subspace_lab, "_skew_isotropic", lambda *args: planted)
    monkeypatch.setattr(subspace_lab, "_symmetric_isotropic", lambda *args: planted)
    with pytest.raises(ArithmeticError, match="sampled subspace is not isotropic"):
        random_max_isotropic(rep, form, random.Random(0))


def test_witness_loader_rejects_a_planted_nonisotropic_basis(tmp_path):
    rep = build_rep(Signature(4, 5))
    planted = _planted_nonisotropic_basis(rep, first_nondegenerate(rep, tau=1))
    path = tmp_path / "planted.json"
    serialize.dump(
        {
            "kind": "spin45-max-isotropic-witness",
            "p": 4,
            "q": 5,
            "seed": 0,
            "trials_used": 1,
            "image_dim": 4,
            "basis": serialize.matrix_to_json(planted),
        },
        path,
    )
    with pytest.raises(ArithmeticError, match="witness is not isotropic"):
        load_and_verify_spin45_witness(path)


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
    assert report.in_hypothesis
    assert set(report.image_dims) == {5}
    assert report.counterexamples == ()


def test_mixed_rank_outside_hypothesis():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep, tau=1)
    report = mixed_rank_inequality(rep, form, 3, 3, trials=5, seed=1)
    assert not report.in_hypothesis
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
    dim = pi_image(rep, form, sub, sub)
    print(f"generic plane bracket image dimension: {dim}")
    assert dim == _pi_image_oracle(rep, form, sub, sub) >= 1
