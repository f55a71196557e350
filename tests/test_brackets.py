import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.admissible_forms import BilinearForm, first_nondegenerate
from spinorlab.brackets import (
    SpinorSubspace,
    beta_form,
    bracket_k,
    null_kernel,
    obstruction_vectors,
    pi_image,
    random_null_vector,
    random_spinor,
    random_subspace,
)
from spinorlab.clifford_core import (
    Polyvector,
    Signature,
    build_rep,
    gamma_polyvector,
    gamma_vector,
    wedge_vectors,
)
from spinorlab.exact_linalg import Matrix, column_space_basis, kernel, rank


def indefinite_signatures(max_n):
    for n in range(2, max_n + 1):
        for p in range(1, n):
            yield Signature(p, n - p)


def test_bracket_degree_zero():
    rep = build_rep(Signature(2, 0))
    form = first_nondegenerate(rep)
    rng = random.Random(0)
    for _ in range(5):
        s = random_spinor(rep, rng)
        t = random_spinor(rep, rng)
        b = bracket_k(rep, form, s, t, 0)
        h_val = (Matrix.column(s).transpose() * form.matrix.dense() * Matrix.column(t))[0, 0]
        assert b.coeffs == (h_val,)


def test_bracket_zero_spinor():
    rep = build_rep(Signature(2, 1))
    form = first_nondegenerate(rep)
    zero = [0] * rep.N
    t = [1] * rep.N
    for k in range(rep.n + 1):
        assert bracket_k(rep, form, zero, t, k).is_zero()


def test_bracket_defining_identity_vectors():
    rep = build_rep(Signature(2, 0))
    form = first_nondegenerate(rep, tau=-1)
    rng = random.Random(42)
    eta = rep.eta
    for _ in range(20):
        s = random_spinor(rep, rng)
        t = random_spinor(rep, rng)
        v = [rng.randint(-3, 3) for _ in range(rep.n)]
        omega = bracket_k(rep, form, s, t, 1)
        lhs = omega.metric_inner(Polyvector.from_vector(v), eta)
        gv = gamma_vector(rep, v)
        rhs = ((gv * Matrix.column(s)).transpose() * form.matrix.dense() * Matrix.column(t))[0, 0]
        assert lhs == rhs


def test_bracket_defining_identity_general_blades():
    rep = build_rep(Signature(1, 2))
    form = first_nondegenerate(rep)
    h = form.matrix.dense()
    rng = random.Random(9)
    eta = rep.eta
    for k in (1, 2, 3):
        for _ in range(6):
            s = random_spinor(rep, rng)
            t = random_spinor(rep, rng)
            vs = [[rng.randint(-3, 3) for _ in range(rep.n)] for _ in range(k)]
            xi = wedge_vectors(vs)
            omega = bracket_k(rep, form, s, t, k)
            lhs = omega.metric_inner(xi, eta)
            g_xi = gamma_polyvector(rep, xi)
            rhs = ((g_xi * Matrix.column(s)).transpose() * h * Matrix.column(t))[0, 0]
            assert lhs == rhs


def test_bracket_bilinearity():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep)
    rng = random.Random(5)
    s1, s2, t = (random_spinor(rep, rng) for _ in range(3))
    for k in (0, 1, 2):
        combined = bracket_k(
            rep, form, [2 * a - 3 * b for a, b in zip(s1, s2)], t, k
        )
        split = bracket_k(rep, form, s1, t, k).scale(2) - bracket_k(
            rep, form, s2, t, k
        ).scale(3)
        assert combined.coeffs == split.coeffs


def test_bracket_rejects_degenerate_form():
    # a form that reaches bracket_k is a signed permutation, so invertible;
    # a dense matrix, degenerate or not, is refused when the form is built
    for dense in (Matrix.zero(4, 4), Matrix.identity(4)):
        with pytest.raises(TypeError, match="SignedPerm"):
            BilinearForm(dense, 1, -1)


def test_null_kernel_min_example():
    rep = build_rep(Signature(1, 1))
    form = first_nondegenerate(rep)
    sub = null_kernel(rep, form, [1, 1])
    assert sub.dim == 1


def test_null_kernel_lemma_sweep():
    rng = random.Random(17)
    for sig in indefinite_signatures(8):
        rep = build_rep(sig)
        form = first_nondegenerate(rep)
        for _ in range(10):
            v = random_null_vector(sig, rng)
            sub = null_kernel(rep, form, v)
            assert 2 * sub.dim == rep.N


def test_null_kernel_rejections():
    rep = build_rep(Signature(3, 0))
    form = first_nondegenerate(rep)
    with pytest.raises(ValueError):
        null_kernel(rep, form, [1, 0, 0])
    rep2 = build_rep(Signature(1, 1))
    form2 = first_nondegenerate(rep2)
    with pytest.raises(ValueError):
        null_kernel(rep2, form2, [1, 0])
    with pytest.raises(ValueError):
        null_kernel(rep2, form2, [0, 0])


def test_spinor_subspace_accepts_kernel_bases_and_rejects_dependent_columns():
    rep = build_rep(Signature(2, 2))  # N = 4
    form = first_nondegenerate(rep)
    SpinorSubspace(rep, null_kernel(rep, form, [1, 0, 1, 0]).basis)
    # independent, but only column 0 has a single-nonzero row: rank decides
    SpinorSubspace(rep, Matrix.from_columns([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 2, 0]]))
    dependent = [
        # rows 0 and 1 mark columns 0 and 1, column 3 = 2 * column 2
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 2, 2]],
        # row 0 marks column 0 only
        [[1, 0, 0, 0], [0, 1, 2, 0], [0, 2, 4, 0]],
        # rows 0, 1 and 2 all mark column 0: three marking rows, one mark
        [[1, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 2]],
        [[1, 1, 0, 0], [0, 0, 0, 0]],
        [[1, 0, 0, 0], [1, 0, 0, 0]],
        [[0, 1, 0, 0], [0, 0, 0, 0]],
        [[1, 2, 3, 4], [2, 4, 6, 8]],
    ]
    for cols in dependent:
        with pytest.raises(ValueError, match="independent"):
            SpinorSubspace(rep, Matrix.from_columns(cols))


def test_null_kernel_isotropy_check_on_planted_fraction_bases(monkeypatch):
    rep = build_rep(Signature(2, 2))  # N = 4
    form = first_nondegenerate(rep)
    v = [1, 0, 1, 0]
    true_basis = kernel(gamma_vector(rep, v))
    # the true kernel with rational column scales is isotropic and accepted
    scaled = Matrix([[x * c for x, c in zip(row, (Fraction(2, 3), Fraction(-5, 7)))]
                     for row in true_basis.data])
    monkeypatch.setattr("spinorlab.brackets.kernel", lambda m: scaled)
    assert null_kernel(rep, form, v).basis == scaled
    # a half-dimensional Fraction basis that is not isotropic is rejected
    h = form.matrix.dense()
    for i in range(rep.N):
        for j in range(i + 1, rep.N):
            cols = [[Fraction(1, 3) if r == i else 0 for r in range(rep.N)],
                    [Fraction(1, 2) if r == j else 0 for r in range(rep.N)]]
            planted = Matrix.from_columns(cols)
            if not (planted.transpose() * h * planted).is_zero():
                monkeypatch.setattr("spinorlab.brackets.kernel", lambda m: planted)
                with pytest.raises(ArithmeticError, match="not h-isotropic"):
                    null_kernel(rep, form, v)
                return
    raise AssertionError("no non-isotropic coordinate plane found")


def test_obstruction_full_space():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep)
    obs = obstruction_vectors(rep, form, SpinorSubspace(rep, Matrix.identity(rep.N)))
    assert obs.cols == 0


def test_obstruction_trivial_space():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep)
    obs = obstruction_vectors(rep, form, SpinorSubspace.trivial(rep))
    assert obs.cols == rep.n


def test_obstruction_contains_null_vector():
    rng = random.Random(3)
    sig = Signature(2, 3)
    rep = build_rep(sig)
    form = first_nondegenerate(rep)
    v = random_null_vector(sig, rng)
    sub = null_kernel(rep, form, v)
    obs = obstruction_vectors(rep, form, sub)
    assert obs.cols >= 1
    # v lies in the span of the obstruction basis
    from spinorlab.exact_linalg import solve

    assert solve(obs, [Fraction(c) for c in v]) is not None


def test_pi_image_full_and_empty():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep)
    full = SpinorSubspace(rep, Matrix.identity(rep.N))
    dim, _ = pi_image(rep, form, full, full)
    assert dim == rep.n
    dim0, _ = pi_image(rep, form, SpinorSubspace.trivial(rep), full)
    assert dim0 == 0


def test_beta_form_properties():
    rng = random.Random(23)
    sig = Signature(2, 3)
    rep = build_rep(sig)
    form = first_nondegenerate(rep)
    zero = beta_form(rep, form, [0] * 5)
    assert zero.rank == 0
    v = random_null_vector(sig, rng)
    rep_beta = beta_form(rep, form, v)
    assert rep_beta.rank == rep.N // 2
    assert rep_beta.symmetry == form.sigma * form.tau
    w = [1, 0, 0, 0, 0]  # non-null
    assert beta_form(rep, form, w).rank == rep.N


def test_beta_symmetry_sweep():
    rng = random.Random(29)
    for sig in indefinite_signatures(7):
        rep = build_rep(sig)
        form = first_nondegenerate(rep)
        for _ in range(4):
            v = random_null_vector(sig, rng)
            report = beta_form(rep, form, v)
            assert report.rank == rep.N // 2
            assert report.matrix.transpose() == report.matrix.scale(
                form.sigma * form.tau
            )


def test_random_subspace_rank():
    rep = build_rep(Signature(2, 3))
    rng = random.Random(1)
    sub = random_subspace(rep, 3, rng)
    assert sub.dim == 3


def test_random_subspace_edge_dimensions():
    rep = build_rep(Signature(2, 3))
    rng = random.Random(1)
    state = rng.getstate()
    sub = random_subspace(rep, 0, rng)
    assert sub.dim == 0 and sub.basis.rows == rep.N
    assert rng.getstate() == state  # nothing drawn
    with pytest.raises(ValueError, match="dimension -1"):
        random_subspace(rep, -1, rng)


_spinor4 = st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4)


@given(_spinor4, _spinor4, st.integers(min_value=0, max_value=3))
@settings(max_examples=40)
def test_bracket_defining_identity_property(s, t, k):
    rep = build_rep(Signature(2, 2))
    form = first_nondegenerate(rep)
    h = form.matrix.dense()
    omega = bracket_k(rep, form, s, t, k)
    eta = rep.eta
    from spinorlab.clifford_core import blade_index_list, gamma_blade

    for indices in blade_index_list(rep.n, k):
        xi = Polyvector(rep.n, k, tuple(int(b == indices) for b in blade_index_list(rep.n, k)))
        lhs = omega.metric_inner(xi, eta)
        g_xi = gamma_blade(rep, indices)
        rhs = ((g_xi.dense() * Matrix.column(s)).transpose() * h * Matrix.column(t))[0, 0]
        assert lhs == rhs


@given(_spinor4, _spinor4, _spinor4, st.integers(min_value=-3, max_value=3))
@settings(max_examples=40)
def test_bracket_bilinear_property(s1, s2, t, c):
    rep = build_rep(Signature(2, 2))
    form = first_nondegenerate(rep)
    mixed = [c * a + b for a, b in zip(s1, s2)]
    left = bracket_k(rep, form, mixed, t, 1)
    split = bracket_k(rep, form, s1, t, 1).scale(c) + bracket_k(rep, form, s2, t, 1)
    assert left.coeffs == split.coeffs
    right = bracket_k(rep, form, t, mixed, 1)
    rsplit = bracket_k(rep, form, t, s1, 1).scale(c) + bracket_k(rep, form, t, s2, 1)
    assert right.coeffs == rsplit.coeffs


# Slow oracles for the block-assembled fast paths: the per-pair loops the
# library used before it read everything out of one pairing block per
# generator, with every product on dense matrices, so that neither the
# blocks nor the signed-permutation gathers are shared with the fast path.


def _obstruction_oracle(rep, form, space):
    d = space.dim
    if d == 0:
        return Matrix.identity(rep.n)
    b = space.basis
    bt_h = b.transpose() * form.matrix.dense()
    g_bs = [g.dense() * b for g in rep.generators]
    rows = []
    for a in range(d):
        for c in range(d):
            row = []
            for g_b in g_bs:
                row.append(sum(bt_h.data[a][m] * g_b.data[m][c] for m in range(rep.N)))
            rows.append(row)
    return kernel(Matrix(rows))


def _pi_image_oracle(rep, form, a, b):
    # column (s, t) is bracket_k(s, t, 1) evaluated entry by entry
    h = form.matrix.dense()
    gens = [g.dense() for g in rep.generators]
    cols = [
        [((g * Matrix.column(s)).transpose() * h * Matrix.column(t))[0, 0] * e
         for g, e in zip(gens, rep.eta)]
        for s in a.basis.columns()
        for t in b.basis.columns()
    ]
    if not cols:
        return 0, Matrix([[] for _ in range(rep.n)])
    basis = column_space_basis(Matrix.from_columns(cols))
    return basis.cols, basis


def _random_subspace_oracle(rep, dim, rng, bound=3):
    cols = []
    while len(cols) < dim:
        cand = [rng.randint(-bound, bound) for _ in range(rep.N)]
        trial = cols + [cand]
        if rank(Matrix.from_columns(trial)) == len(trial):
            cols.append(cand)
    return Matrix.from_columns(cols)


def _assert_identical(fast, slow):
    assert fast == slow
    assert (fast.rows, fast.cols) == (slow.rows, slow.cols)
    assert [[type(x) for x in row] for row in fast.data] == [
        [type(x) for x in row] for row in slow.data
    ]


def _oracle_subspaces(sig, seed, dim):
    """The full and trivial subspaces, a random one of dimension
    1 + (dim - 1) mod N and, for an indefinite signature, a null kernel."""
    rep = build_rep(sig)
    form = first_nondegenerate(rep)
    rng = random.Random(seed)
    subs = [SpinorSubspace(rep, Matrix.identity(rep.N)), SpinorSubspace.trivial(rep)]
    subs.append(random_subspace(rep, 1 + (dim - 1) % rep.N, rng))
    if not sig.is_definite():
        subs.append(null_kernel(rep, form, random_null_vector(sig, rng)))
    return rep, form, subs


_ORACLE_SIGNATURES = [
    Signature(2, 3),
    Signature(1, 3),
    Signature(3, 3),
    Signature(4, 1),
    Signature(3, 0),
]

# every signature runs on every pass; hypothesis searches seed and dimension
_seeds = st.integers(min_value=0, max_value=2**32 - 1)
_dims = st.integers(min_value=1, max_value=8)
DIFFERENTIAL = settings(max_examples=15)


@pytest.mark.parametrize("sig", _ORACLE_SIGNATURES, ids=str)
@given(seed=_seeds, dim=_dims)
@DIFFERENTIAL
def test_obstruction_vectors_match_per_pair_oracle(sig, seed, dim):
    rep, form, subs = _oracle_subspaces(sig, seed, dim)
    for sub in subs:
        _assert_identical(
            obstruction_vectors(rep, form, sub), _obstruction_oracle(rep, form, sub)
        )


@pytest.mark.parametrize("sig", _ORACLE_SIGNATURES, ids=str)
@given(seed=_seeds, dim=_dims)
@DIFFERENTIAL
def test_pi_image_matches_bracket_k_oracle(sig, seed, dim):
    rep, form, subs = _oracle_subspaces(sig, seed, dim)
    # every ordered pair, so A != B in dimension and in content
    for a in subs:
        for b in subs:
            fast_dim, fast = pi_image(rep, form, a, b)
            slow_dim, slow = _pi_image_oracle(rep, form, a, b)
            assert fast_dim == slow_dim
            _assert_identical(fast, slow)


def test_pi_image_degenerate_form_and_empty_spaces():
    rep = build_rep(Signature(2, 1))
    with pytest.raises(TypeError, match="SignedPerm"):
        BilinearForm(Matrix.zero(rep.N, rep.N), 1, -1)
    form = first_nondegenerate(rep)
    full, trivial = SpinorSubspace(rep, Matrix.identity(rep.N)), SpinorSubspace.trivial(rep)
    for a, b in ((trivial, full), (full, trivial), (trivial, trivial)):
        dim, basis = pi_image(rep, form, a, b)
        assert dim == 0
        assert (basis.rows, basis.cols) == (rep.n, 0)


class _CountingRandom(random.Random):
    draws = 0

    def randint(self, a, b):
        self.draws += 1
        return super().randint(a, b)


@pytest.mark.parametrize(
    "sig, dims, bound",
    [
        (Signature(2, 3), (1, 2, 3, 4), 3),
        (Signature(3, 3), (5, 7, 8), 3),
        (Signature(4, 1), (3, 6), 2),
        (Signature(2, 0), (2, 3, 4), 1),
    ],
    ids=str,
)
def test_random_subspace_matches_rank_per_candidate(sig, dims, bound):
    rep = build_rep(sig)
    rejected = 0
    for seed in range(6):
        for dim in dims:
            fast_rng, slow_rng = _CountingRandom(seed), random.Random(seed)
            sub = random_subspace(rep, dim, fast_rng, bound=bound)
            assert sub.basis == _random_subspace_oracle(rep, dim, slow_rng, bound=bound)
            assert fast_rng.getstate() == slow_rng.getstate()
            rejected += fast_rng.draws // rep.N - dim
    if bound == 1:
        assert rejected > 0  # dependent candidates were drawn and skipped
