import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from spinorlab import brackets, exact_linalg, serialize, subspace_lab
from spinorlab.admissible_forms import find_admissible, first_nondegenerate
from spinorlab.brackets import null_kernel, pi_image, random_null_vector
from spinorlab.clifford_core import Signature, build_rep, metric_value
from spinorlab.subspace_lab import (
    IsotropicSearchError,
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
from dense_oracle import Matrix, dense, gamma_dense, is_zero
from test_brackets import _CountingEchelon, _pi_image_oracle
from test_exact_linalg import bareiss_rank, primitive_kernel

WITNESS_PATH = Path(__file__).resolve().parent.parent / "witnesses" / "spin45_max_isotropic.json"


# Oracles: the two greedy isotropic builders as they were written before
# _skew_isotropic replaced them, on dense Gram matrices.


def _greedy_isotropic_oracle(gram, target_dim):
    d = gram.rows
    iso = []
    while len(iso) < target_dim:
        if iso:
            rows = [
                [sum(u[a] * gram[a, b] for a in range(d) if u[a]) for b in range(d)]
                for u in iso
            ]
            space = primitive_kernel(Matrix(rows))
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
            space = primitive_kernel(Matrix(rows))
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


def _typed_entries(columns):
    """(value, type) per entry, column by column, of a Matrix or a list
    of columns."""
    if isinstance(columns, Matrix):
        columns = columns.columns()
    return [[(x, type(x)) for x in col] for col in columns]


def test_skew_isotropic_replays_random_skew_branch():
    # the gathered rows H u = -u^T H against rows u^T H read off the dense
    # Gram matrix: one row space, so one kernel
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep, tau=1)  # the spin23 form
    assert form.sigma == -1
    gram = dense(form.matrix)
    for seed in range(8):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        got = _skew_isotropic(form.matrix.apply, rep.N, rep.N // 2, rng)
        want = _random_skew_isotropic_oracle(gram, rep.N // 2, oracle_rng)
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
            got = original(gram, False, target)
            want = _greedy_isotropic_oracle(Matrix(gram), target)
            assert _typed_entries(got) == _typed_entries(want)


def test_isotropic_subspace_skew():
    gram = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    iso = Matrix.from_columns(isotropic_subspace(gram, symmetric=False, target_dim=2))
    assert iso.cols == 2
    assert is_zero(iso.transpose() * Matrix(gram) * iso)


def test_isotropic_subspace_symmetric_split():
    gram = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    iso = Matrix.from_columns(isotropic_subspace(gram, symmetric=True, target_dim=2))
    assert is_zero(iso.transpose() * Matrix(gram) * iso)
    assert bareiss_rank(iso) == 2


def test_isotropic_subspace_definite_fails():
    gram = Matrix.identity(4).to_lists()
    with pytest.raises(IsotropicSearchError):
        isotropic_subspace(gram, symmetric=True, target_dim=1)


def test_null_direction_square_discriminant():
    from spinorlab.subspace_lab import _find_null_direction

    # no zero diagonal, discriminant 5^2 - 4 * 4 = 9: the pair path needs
    # the exact integer square root
    gram = [[4, 5], [5, 4]]
    vec = _find_null_direction(gram)
    assert vec == [-2, 4]
    val = sum(gram[i][j] * vec[i] * vec[j] for i in range(2) for j in range(2))
    assert val == 0
    assert _find_null_direction([[4, 5], [5, 5]]) is None  # discriminant 5, no square


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
    cols = list(lv.basis)
    comp = []
    for i in range(rep.N):
        e = [0] * rep.N
        e[i] = 1
        if bareiss_rank(Matrix.from_columns(cols + comp + [e])) == n_half + len(comp) + 1:
            comp.append(e)
        if len(comp) == n_half:
            break
    comp_m = Matrix.from_columns(comp)
    gram = comp_m.transpose() * dense(form.matrix) * gamma_dense(rep, v) * comp_m
    if form.sigma * form.tau == 1:
        iso = Matrix.from_columns(_symmetric_isotropic(gram.to_lists(), rep.N // 4))
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
    dependent = SimpleNamespace(basis=(column, column))
    monkeypatch.setattr(subspace_lab, "null_kernel", lambda *args: dependent)
    with pytest.raises(ArithmeticError, match="kernel columns are not independent"):
        extremal_obstructed_subspace(rep, form, [1, 0, 1, 0, 0])


def test_extremal_checks_that_v_lies_in_the_obstruction_space(monkeypatch):
    sig = Signature(2, 3)
    rep = build_rep(sig)
    form, v, extremal = extremal_witness(sig)
    e0 = [1] + [0] * (rep.n - 1)  # a null v has two nonzero entries, so e0 misses it
    spanned = [[2 * x + y for x, y in zip(v, e0)], e0]
    monkeypatch.setattr(subspace_lab, "obstruction_vectors", lambda *args: spanned)
    assert extremal_obstructed_subspace(rep, form, v).basis == extremal.basis
    missing = [e0]
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
    # fallback, so no Echelon at all (brackets eliminates only through it)
    rep = build_rep(Signature(3, 3))
    form = first_nondegenerate(rep)
    assert not hasattr(brackets, "kernel") and not hasattr(brackets, "rank")
    monkeypatch.setattr(brackets, "Echelon", _CountingEchelon)
    monkeypatch.setattr(subspace_lab, "Echelon", _CountingEchelon)
    _CountingEchelon.adds = _CountingEchelon.kernels = 0
    fallbacks = _fallback_trials(monkeypatch, 7, 500)
    report = random_surjectivity_sweep(rep, form, 3 * rep.N // 4 + 1, 500, 7)
    assert report.in_hypothesis and not report.counterexamples
    assert fallbacks == []
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
        assert len(obstruction_vectors(rep, first_nondegenerate(rep), kernel_sub)) >= 1
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
        if obs:
            bad.append((t, sub.basis, obs))
    return subspace_lab.SweepReport(in_hypothesis=dim > threshold, counterexamples=tuple(bad))


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
    assert spin23_isotropic_scan(trials=50, seed=2) == {1: 50}


def test_random_max_isotropic_symmetric_form():
    # only skew forms are sampled: the (4,5) spin45 form is symmetric
    rep = build_rep(Signature(4, 5))
    form = first_nondegenerate(rep, tau=1)
    assert form.sigma == 1
    rng = random.Random(4)
    with pytest.raises(ValueError, match="skew"):
        random_max_isotropic(rep, form, rng)
    assert rng.getstate() == random.Random(4).getstate()  # nothing drawn
    skew = build_rep(Signature(2, 3))
    sub = random_max_isotropic(skew, first_nondegenerate(skew, tau=1), rng)
    basis = Matrix.from_columns(sub.basis)
    assert sub.dim == skew.N // 2 == bareiss_rank(basis)
    assert is_zero(basis.transpose() * dense(first_nondegenerate(skew, tau=1).matrix) * basis)


def _planted_nonisotropic_basis(rep, form):
    """N/2 independent Fraction coordinate columns, among them e_0 and
    e_perm[0], whose pairing h(e_perm[0], e_0) = signs[0] is nonzero."""
    first = [0, int(form.matrix.perm[0])]
    picks = list(dict.fromkeys(first + list(range(rep.N))))[: rep.N // 2]
    basis = [[Fraction(1, k + 2) if r == j else 0 for r in range(rep.N)] for k, j in enumerate(picks)]
    dense_basis = Matrix.from_columns(basis)
    assert not is_zero(dense_basis.transpose() * dense(form.matrix) * dense_basis)
    return basis


@pytest.mark.parametrize("sig", [Signature(2, 3), Signature(3, 3)], ids=str)
def test_random_max_isotropic_rejects_a_planted_nonisotropic_basis(sig, monkeypatch):
    rep = build_rep(sig)
    form = first_nondegenerate(rep, tau=1)
    assert form.sigma == -1
    planted = _planted_nonisotropic_basis(rep, form)
    monkeypatch.setattr(subspace_lab, "_skew_isotropic", lambda *args: planted)
    with pytest.raises(ArithmeticError, match="sampled subspace is not isotropic"):
        random_max_isotropic(rep, form, random.Random(0))


def _write_witness(path, rows):
    serialize.dump(
        {
            "kind": "spin45-max-isotropic-witness",
            "p": 4,
            "q": 5,
            "seed": 0,
            "trials_used": 1,
            "image_dim": 4,
            "basis": rows,
        },
        path,
    )


def test_witness_loader_rejects_a_planted_nonisotropic_basis(tmp_path):
    rep = build_rep(Signature(4, 5))
    planted = _planted_nonisotropic_basis(rep, first_nondegenerate(rep, tau=1))
    path = tmp_path / "planted.json"
    _write_witness(path, serialize.columns_to_json(planted))
    with pytest.raises(ArithmeticError, match="witness is not isotropic"):
        load_and_verify_spin45_witness(path)


def _archived_rows():
    return serialize.load(WITNESS_PATH)["basis"]


@pytest.mark.parametrize(
    "plant, message",
    [
        (lambda rows: rows[:-1] + [rows[-1][:-1]], r"ragged rows, of widths \[7, 8\]"),
        (lambda rows: rows[:-1], "has 15 rows, not 16"),
        (lambda rows: rows + [rows[0]], "has 17 rows, not 16"),
        (lambda rows: [[] for _ in rows], "zero columns"),
        (lambda rows: [], "has 0 rows, not 16"),
        (lambda rows: {"0": rows}, "not a list of rows"),
        (lambda rows: [[int(x) for x in row] for row in rows], "as strings, not int"),
    ],
    ids=["ragged", "short", "long", "no-columns", "no-rows", "not-a-list", "raw-ints"],
)
def test_witness_loader_names_a_planted_bad_shape(plant, message, tmp_path):
    path = tmp_path / "planted.json"
    _write_witness(path, plant(_archived_rows()))
    with pytest.raises(ValueError, match=message):
        load_and_verify_spin45_witness(path)


@pytest.mark.parametrize("key, value", [("seed", "7"), ("trials_used", 1.0), ("image_dim", True)])
def test_witness_loader_refuses_a_non_integer_field(key, value, tmp_path):
    path = tmp_path / "planted.json"
    _write_witness(path, _archived_rows())
    payload = serialize.load(path)
    payload[key] = value
    serialize.dump(payload, path)
    with pytest.raises(ValueError, match=f"witness field {key} is not an integer"):
        load_and_verify_spin45_witness(path)
    path.write_text("[]")  # valid JSON, but no witness object
    with pytest.raises(ValueError, match="unexpected schema"):
        load_and_verify_spin45_witness(path)


def test_witness_basis_round_trips_through_its_row_format():
    rows = _archived_rows()
    columns = serialize.columns_from_json(rows, 16)
    assert len(columns) == 8 and all(len(col) == 16 for col in columns)
    assert serialize.columns_to_json(columns) == rows


def test_spin45_search_finds_witness():
    report = spin45_search(seed=7, budget=50)
    assert report.found
    assert report.image_dim == 4
    assert report.subspace.dim == 8


def test_spin45_search_moves_past_a_failed_construction(monkeypatch):
    # a trial without a candidate counts as used, enters no distribution,
    # and the next trial builds from its own fresh generator
    original = subspace_lab._structured_spin45_candidate
    fresh = {subspace_lab._trial_rng(7, t).getstate(): t for t in range(5)}
    seen = []

    def failing_twice(rep, form, rng):
        seen.append(fresh[rng.getstate()])
        return None if len(seen) <= 2 else original(rep, form, rng)

    monkeypatch.setattr(subspace_lab, "_structured_spin45_candidate", failing_twice)
    report = spin45_search(seed=7, budget=5)
    assert seen == [0, 1, 2]
    assert report.found and report.trials_used == 3 and report.distribution == {4: 1}
    monkeypatch.setattr(subspace_lab, "_structured_spin45_candidate", lambda *args: None)
    report = spin45_search(seed=7, budget=4)
    assert not report.found and report.trials_used == 4 and report.distribution == {}


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
