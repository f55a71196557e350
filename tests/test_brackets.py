import dataclasses
import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import brackets
from spinorlab.admissible_forms import BilinearForm, find_admissible, first_nondegenerate
from spinorlab.brackets import (
    SpinorSubspace,
    beta_form,
    bracket_k,
    isotropic,
    null_kernel,
    obstruction_vectors,
    pi_image,
    random_integers,
    random_null_vector,
    random_spinor,
    random_subspace,
)
from spinorlab.clifford_core import (
    Signature,
    blade_index_list,
    build_rep,
    gamma_blade,
    gamma_vector,
    metric_value,
)
from spinorlab.exact_linalg import Echelon, apply_terms, term_rows
from spinorlab.subspace_lab import extremal_witness, random_max_isotropic
from dense_oracle import (
    Matrix,
    beta_form_oracle,
    beta_form_stack,
    dense,
    flip_sign,
    gamma_dense,
    gamma_stack,
    is_zero,
    kernel,
    rank,
    squares_to_scalar_stack,
    swap_entries,
    zero_matrix,
)
from dense_oracle import column as _column
from test_clifford_core import _permutation_sign, _planted_breaks, gamma_alternating
from test_exact_linalg import bareiss_rank, primitive_kernel


def metric_inner(k, omega, xi, eta):
    """The extension of g to degree-k polyvectors, given by their
    coefficient tuples over blade_index_list(n, k): orthonormal blades
    are orthogonal, and g(e_I, e_I) is the product of eta over I."""
    return sum(
        a * b * prod(eta[i] for i in indices)
        for indices, a, b in zip(blade_index_list(len(eta), k), omega, xi, strict=True)
    )


def wedge_coefficients(vectors, n):
    """The coefficients of v_1 ^ ... ^ v_k over blade_index_list(n, k):
    the k x k minors of the vectors' coordinates on the columns I."""
    k = len(vectors)
    return tuple(
        sum(
            _permutation_sign(perm) * prod(vectors[r][indices[perm[r]]] for r in range(k))
            for perm in itertools.permutations(range(k))
        )
        for indices in blade_index_list(n, k)
    )


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
        h_val = (_column(s).transpose() * dense(form.matrix) * _column(t))[0, 0]
        assert b == (h_val,)


def test_bracket_zero_spinor():
    rep = build_rep(Signature(2, 1))
    form = first_nondegenerate(rep)
    zero = [0] * rep.N
    t = [1] * rep.N
    for k in range(rep.n + 1):
        assert not any(bracket_k(rep, form, zero, t, k))


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
        lhs = metric_inner(1, omega, v, eta)
        gv = gamma_dense(rep, v)
        rhs = ((gv * _column(s)).transpose() * dense(form.matrix) * _column(t))[0, 0]
        assert lhs == rhs


def test_bracket_defining_identity_general_blades():
    rep = build_rep(Signature(1, 2))
    form = first_nondegenerate(rep)
    h = dense(form.matrix)
    rng = random.Random(9)
    eta = rep.eta
    for k in (1, 2, 3):
        for _ in range(6):
            s = random_spinor(rep, rng)
            t = random_spinor(rep, rng)
            vs = [[rng.randint(-3, 3) for _ in range(rep.n)] for _ in range(k)]
            omega = bracket_k(rep, form, s, t, k)
            lhs = metric_inner(k, omega, wedge_coefficients(vs, rep.n), eta)
            g_xi = gamma_alternating(rep, vs)
            rhs = ((g_xi * _column(s)).transpose() * h * _column(t))[0, 0]
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
        split = tuple(
            2 * a - 3 * b
            for a, b in zip(
                bracket_k(rep, form, s1, t, k), bracket_k(rep, form, s2, t, k)
            )
        )
        assert combined == split


def test_bracket_rejects_degenerate_form():
    # a form that reaches bracket_k is a signed permutation, so invertible;
    # a dense matrix, degenerate or not, is refused when the form is built
    for dense in (zero_matrix(4, 4), Matrix.identity(4)):
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


def test_spinor_lengths_other_than_n_are_refused():
    # (2,1) has N = 4: a longer spinor or a shorter one is refused by name
    rep = build_rep(Signature(2, 1))
    form = first_nondegenerate(rep)
    s = [1, -2, 0, 3]
    gamma = gamma_vector(rep, [1, 1, 0])
    for bad in (s + [5, 7], s[:3]):
        message = f"length {len(bad)}"
        for k in range(rep.n + 1):
            with pytest.raises(ValueError, match=message):
                bracket_k(rep, form, bad, s, k)
            with pytest.raises(ValueError, match=message):
                bracket_k(rep, form, s, bad, k)
        with pytest.raises(ValueError, match=message):
            isotropic(form, [bad])
        with pytest.raises(ValueError, match=message):
            apply_terms(gamma, bad)
    with pytest.raises(ValueError, match="length 5"):
        isotropic(form, [[1, 0, 0, 0, 9]])
    assert isotropic(form, [[1, 0, 0, 0]]) == (dense(form.matrix)[0, 0] == 0)


def test_spinor_subspace_accepts_kernel_bases_and_rejects_dependent_columns():
    rep = build_rep(Signature(2, 2))  # N = 4
    form = first_nondegenerate(rep)
    SpinorSubspace(rep, null_kernel(rep, form, [1, 0, 1, 0]).basis)
    # independent, but only column 0 has a single-nonzero row: rank decides
    SpinorSubspace(rep, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 2, 0]])
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
            SpinorSubspace(rep, cols)
    with pytest.raises(ValueError, match="module dimension"):
        SpinorSubspace(rep, [[1, 0, 0]])


def _plant_kernel(monkeypatch, basis):
    """Make every kernel that brackets solves return basis."""

    class Planted(Echelon):
        def kernel(self, n_cols):
            return [list(col) for col in basis]

    monkeypatch.setattr(brackets, "Echelon", Planted)


def test_null_kernel_isotropy_check_on_planted_fraction_bases(monkeypatch):
    rep = build_rep(Signature(2, 2))  # N = 4
    form = first_nondegenerate(rep)
    v = [1, 0, 1, 0]
    true_basis = kernel(term_rows(gamma_vector(rep, v), rep.N), rep.N)
    assert Matrix.from_columns(true_basis) == primitive_kernel(gamma_dense(rep, v))
    # the true kernel with rational column scales is isotropic and accepted
    scaled = [[x * c for x in col] for col, c in zip(true_basis, (Fraction(2, 3), Fraction(-5, 7)))]
    _plant_kernel(monkeypatch, scaled)
    assert list(null_kernel(rep, form, v).basis) == scaled
    # a half-dimensional Fraction basis that is not isotropic is rejected
    h = dense(form.matrix)
    for i in range(rep.N):
        for j in range(i + 1, rep.N):
            cols = [[Fraction(1, 3) if r == i else 0 for r in range(rep.N)],
                    [Fraction(1, 2) if r == j else 0 for r in range(rep.N)]]
            planted = Matrix.from_columns(cols)
            if not is_zero(planted.transpose() * h * planted):
                _plant_kernel(monkeypatch, cols)
                with pytest.raises(ArithmeticError, match="not h-isotropic"):
                    null_kernel(rep, form, v)
                return
    raise AssertionError("no non-isotropic coordinate plane found")


def test_obstruction_full_space():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep)
    obs = obstruction_vectors(rep, form, SpinorSubspace(rep, Matrix.identity(rep.N).columns()))
    assert obs == []


def test_obstruction_trivial_space():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep)
    obs = obstruction_vectors(rep, form, SpinorSubspace.trivial(rep))
    assert obs == Matrix.identity(rep.n).columns()


def test_obstruction_contains_null_vector():
    rng = random.Random(3)
    sig = Signature(2, 3)
    rep = build_rep(sig)
    form = first_nondegenerate(rep)
    v = random_null_vector(sig, rng)
    sub = null_kernel(rep, form, v)
    obs = obstruction_vectors(rep, form, sub)
    assert len(obs) >= 1
    # v lies in the span of the obstruction basis
    assert bareiss_rank(Matrix.from_columns(obs + [v])) == len(obs)


def test_pi_image_full_and_empty():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep)
    full = SpinorSubspace(rep, Matrix.identity(rep.N).columns())
    assert pi_image(rep, form, full, full) == _pi_image_oracle(rep, form, full, full) == rep.n
    trivial = SpinorSubspace.trivial(rep)
    assert pi_image(rep, form, trivial, full) == _pi_image_oracle(rep, form, trivial, full) == 0


def beta_rank(rep, form, v):
    """beta_form's rank on the one vector v."""
    (rank,) = beta_form(rep, form, [v])
    return rank


def test_beta_form_properties():
    rng = random.Random(23)
    sig = Signature(2, 3)
    rep = build_rep(sig)
    form = first_nondegenerate(rep)
    assert beta_rank(rep, form, [0] * 5) == 0
    v = random_null_vector(sig, rng)
    beta = dense(form.matrix) * gamma_dense(rep, v)  # the dense oracle
    assert beta_rank(rep, form, v) == rank(beta.data) == rep.N // 2
    assert beta.transpose() == beta.scale(form.sigma * form.tau)
    w = [1, 0, 0, 0, 0]  # non-null
    assert beta_rank(rep, form, w) == rep.N


def test_beta_symmetry_sweep():
    rng = random.Random(29)
    for sig in indefinite_signatures(7):
        rep = build_rep(sig)
        form = first_nondegenerate(rep)
        for _ in range(4):
            v = random_null_vector(sig, rng)
            beta = dense(form.matrix) * gamma_dense(rep, v)
            assert beta_rank(rep, form, v) == rank(beta.data) == rep.N // 2
            assert beta.transpose() == beta.scale(form.sigma * form.tau)


def _certificate_vectors(sig, rng):
    """Zero, integer, Fraction and (when indefinite) null vectors of sig."""
    n = sig.n
    vectors = [[0] * n, [0] * (n - 1) + [1]]
    vectors += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
    vectors.append([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)])
    if not sig.is_definite():
        null = random_null_vector(sig, rng)
        vectors += [null, [Fraction(3, 7) * x for x in null]]
    return vectors


def test_beta_form_rank_matches_elimination_and_bareiss_oracles():
    rng = random.Random(31)
    seen = {"zero": 0, "null": 0, "non-null": 0}
    for n in range(1, 8):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            rep = build_rep(sig)
            form = first_nondegenerate(rep)
            for v in _certificate_vectors(sig, rng):
                gv = gamma_dense(rep, v)
                beta = dense(form.matrix) * gv
                assert beta_rank(rep, form, v) == rank(beta.data) == bareiss_rank(beta), (sig, v)
                if not any(v):
                    seen["zero"] += 1
                elif metric_value(rep.eta, v, v):
                    seen["non-null"] += 1
                else:
                    seen["null"] += 1
                    # the idempotent P = gamma_v gamma_k / c has trace N/2
                    k = next(i for i, x in enumerate(v) if x)
                    c = -2 * rep.eta[k] * v[k]
                    prod_k = gv * dense(rep.generators[k])
                    assert 2 * sum(prod_k[i, i] for i in range(rep.N)) == c * rep.N
    assert min(seen.values()) >= 35, seen


def _flip_sign(rep, i):
    """A broken copy of rep: column 0 of generator i negated."""
    return dataclasses.replace(rep, generators=flip_sign(rep.generators, (i, 0)))


def test_beta_form_names_each_failed_identity():
    rep = build_rep(Signature(1, 1))
    form = first_nondegenerate(rep)
    vectors = [[1, 1], [2, 1], [0, 0]]  # null, non-null and zero
    relation = r"Clifford relation failed at \(0,0\) for \(1,1\)"
    # a sign flipped in G_0 breaks G_0^2 = -eta_0 Id, whatever the vectors
    with pytest.raises(ArithmeticError, match=relation):
        beta_form(_flip_sign(rep, 0), form, vectors)
    with pytest.raises(ArithmeticError, match=relation):
        beta_form(_flip_sign(rep, 0), form, [])
    # negating eta keeps v null and gamma_v unchanged, but G_0^2 != eta_0 Id
    wrong_eta = dataclasses.replace(rep, eta=tuple(-e for e in rep.eta))
    with pytest.raises(ArithmeticError, match=relation):
        beta_form(wrong_eta, form, vectors)
    wrong_sigma = BilinearForm(form.matrix, -form.sigma, form.tau)
    with pytest.raises(ArithmeticError, match=r"relation H\^T = sigma H fails for \(1,1\)"):
        beta_form(rep, wrong_sigma, vectors)
    wrong_tau = BilinearForm(form.matrix, form.sigma, -form.tau)
    with pytest.raises(ArithmeticError, match=r"relation G_0\^T H = tau H G_0 fails"):
        beta_form(rep, wrong_tau, vectors)
    # the length is checked before either certificate
    with pytest.raises(ValueError, match="length mismatch"):
        beta_form(_flip_sign(rep, 0), wrong_sigma, [[1, 1], [1]])
    assert beta_form(rep, form, vectors) == [1, 2, 0]


def _oracle_verdicts(rep, form, vectors):
    """The per-vector oracle's rank, or its error message, per vector."""
    out = []
    for v in vectors:
        try:
            out.append(beta_form_oracle(rep, form, v))
        except ArithmeticError as err:
            out.append(str(err))
    return out


def _swap_perm(rep, i):
    """A broken copy of rep: entries 0 and 1 of generator i's perm swapped."""
    return dataclasses.replace(rep, generators=swap_entries(rep.generators, (i, 0), (i, 1)))


def test_batched_beta_form_matches_the_per_vector_oracle():
    # every admissible form of every rep with n <= 8, on zero, integer,
    # null, 2^40-scaled and Fraction vectors
    rng = random.Random(37)
    for n in range(1, 9):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            rep = build_rep(sig)
            forms = [f for s in (1, -1) for t in (1, -1) for f in find_admissible(rep, s, t)]
            ints = [[0] * n] + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(4)]
            if not sig.is_definite():
                ints += [random_null_vector(sig, rng) for _ in range(4)]
            big = [[2**40 * x for x in v] for v in ints]
            big.append([2**40 + rng.randint(-9, 9) for _ in range(n)])
            vectors = ints + big + _certificate_vectors(sig, rng)
            for form in forms:
                assert beta_form(rep, form, vectors) == _oracle_verdicts(rep, form, vectors), sig
    assert beta_form(rep, form, []) == []


def _planted_forms(form):
    """Copies of the form, each with one break: a sign flipped or two perm
    entries swapped in H, or a wrong sigma or tau."""
    h, out = form.matrix, []
    for c in range(h.N):
        out.append(BilinearForm(flip_sign(h, (c,)), form.sigma, form.tau))
    for c, d in itertools.combinations(range(h.N), 2):
        out.append(BilinearForm(swap_entries(h, (c,), (d,)), form.sigma, form.tau))
    out.append(BilinearForm(h, -form.sigma, form.tau))
    return out + [BilinearForm(h, form.sigma, -form.tau)]


def test_batched_beta_form_matches_the_oracle_on_planted_reps():
    # each planted defect of a rep or its form makes a certificate raise,
    # in particular wherever the per-vector oracle reports an error on a
    # drawn vector: every _planted_breaks copy of the indefinite reps with
    # n <= 5, a negated eta, and every planted form
    rng = random.Random(41)
    planted = seen = 0
    for sig in indefinite_signatures(5):
        rep = build_rep(sig)
        form = first_nondegenerate(rep)
        copies = [(dataclasses.replace(rep, eta=tuple(-e for e in rep.eta)), form)]
        for gens in _planted_breaks(rep.generators):
            copies.append((dataclasses.replace(rep, generators=gens), form))
        copies += [(rep, broken) for broken in _planted_forms(form)]
        vectors = [[0] * sig.n, [rng.randint(-3, 3) for _ in range(sig.n)]]
        vectors += [random_null_vector(sig, rng) for _ in range(3)]
        for broken, broken_form in copies:
            with pytest.raises(ArithmeticError, match="relation"):
                beta_form(broken, broken_form, vectors)
            planted += 1
            seen += any(isinstance(x, str) for x in _oracle_verdicts(broken, broken_form, vectors))
    # the drawn vectors show the oracle all but two of the defects
    assert (planted, seen) == (1209, 1207)


def test_sum_certificates_match_the_dense_stack_at_N_128():
    # the per-vector oracle is too slow here; the dense (B, N, N) stack
    # checks are the oracle: beta_form's ranks are the stack's on the valid
    # rep, and with one generator's sign flipped or two of its perm entries
    # swapped the stack reports failed identities and beta_form raises
    rng = random.Random(47)
    sig = Signature(7, 5)
    rep = build_rep(sig)
    assert rep.N == 128
    form = first_nondegenerate(rep)
    vectors = [[0] * sig.n, [rng.randint(-3, 3) for _ in range(sig.n)]]
    vectors += [random_null_vector(sig, rng) for _ in range(3)]
    assert beta_form(rep, form, vectors) == beta_form_stack(rep, form, vectors)
    assert set(beta_form(rep, form, vectors)) == {0, rep.N, rep.N // 2}
    assert all(squares_to_scalar_stack(rep, vectors, gamma_stack(rep, vectors)))
    seen = set()
    for broken in (_flip_sign(rep, 3), _swap_perm(rep, 3)):
        with pytest.raises(ArithmeticError, match="Clifford relation failed at"):
            beta_form(broken, form, vectors)
        assert not all(squares_to_scalar_stack(broken, vectors, gamma_stack(broken, vectors)))
        seen.update(x for x in beta_form_stack(broken, form, vectors) if isinstance(x, str))
    assert seen == {
        "gamma_v squared must vanish on a null vector",
        "gamma_v squared is not -g(v,v) Id",
    }


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
    assert sub.dim == 0 and sub.basis == ()
    assert rng.getstate() == state  # nothing drawn
    with pytest.raises(ValueError, match="dimension -1"):
        random_subspace(rep, -1, rng)


_spinor4 = st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4)


@given(_spinor4, _spinor4, st.integers(min_value=0, max_value=3))
@settings(max_examples=40)
def test_bracket_defining_identity_property(s, t, k):
    rep = build_rep(Signature(2, 2))
    form = first_nondegenerate(rep)
    h = dense(form.matrix)
    omega = bracket_k(rep, form, s, t, k)
    eta = rep.eta
    for indices in blade_index_list(rep.n, k):
        xi = tuple(int(b == indices) for b in blade_index_list(rep.n, k))
        lhs = metric_inner(k, omega, xi, eta)
        g_xi = gamma_blade(rep, indices)
        rhs = ((dense(g_xi) * _column(s)).transpose() * h * _column(t))[0, 0]
        assert lhs == rhs


@given(_spinor4, _spinor4, _spinor4, st.integers(min_value=-3, max_value=3))
@settings(max_examples=40)
def test_bracket_bilinear_property(s1, s2, t, c):
    rep = build_rep(Signature(2, 2))
    form = first_nondegenerate(rep)
    mixed = [c * a + b for a, b in zip(s1, s2)]
    left = bracket_k(rep, form, mixed, t, 1)
    split = zip(bracket_k(rep, form, s1, t, 1), bracket_k(rep, form, s2, t, 1))
    assert left == tuple(c * a + b for a, b in split)
    right = bracket_k(rep, form, t, mixed, 1)
    rsplit = zip(bracket_k(rep, form, t, s1, 1), bracket_k(rep, form, t, s2, 1))
    assert right == tuple(c * a + b for a, b in rsplit)


# Slow oracles for the block-assembled fast paths: the per-pair loops the
# library used before it read everything out of one pairing block per
# generator, with every product on dense matrices, so that neither the
# blocks nor the signed-permutation gathers are shared with the fast path.


def _obstruction_oracle(rep, form, space):
    d = space.dim
    if d == 0:
        return Matrix.identity(rep.n)
    b = Matrix.from_columns(space.basis)
    bt_h = b.transpose() * dense(form.matrix)
    g_bs = [dense(g) * b for g in rep.generators]
    rows = []
    for a in range(d):
        for c in range(d):
            row = []
            for g_b in g_bs:
                row.append(sum(bt_h.data[a][m] * g_b.data[m][c] for m in range(rep.N)))
            rows.append(row)
    return primitive_kernel(Matrix(rows))


def _pi_image_oracle(rep, form, a, b):
    # the rank of the columns (s, t) = bracket_k(s, t, 1), entry by entry
    h = dense(form.matrix)
    gens = [dense(g) for g in rep.generators]
    cols = [
        [((g * _column(s)).transpose() * h * _column(t))[0, 0] * e
         for g, e in zip(gens, rep.eta)]
        for s in a.basis
        for t in b.basis
    ]
    return bareiss_rank(Matrix.from_columns(cols)) if cols else 0


def _random_subspace_oracle(rep, dim, rng, bound=3):
    cols = []
    while len(cols) < dim:
        cand = [rng.randint(-bound, bound) for _ in range(rep.N)]
        trial = cols + [cand]
        if bareiss_rank(Matrix.from_columns(trial)) == len(trial):
            cols.append(cand)
    return cols


def _assert_identical(fast, slow):
    """fast's columns against the oracle's matrix, entry types included."""
    fast = Matrix.from_columns(fast, slow.rows)
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
    subs = [SpinorSubspace(rep, Matrix.identity(rep.N).columns()), SpinorSubspace.trivial(rep)]
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
            assert pi_image(rep, form, a, b) == _pi_image_oracle(rep, form, a, b)


@pytest.mark.parametrize("sig", _ORACLE_SIGNATURES, ids=str)
def test_pi_image_of_a_subspace_with_itself_equals_that_with_a_copy(sig):
    # a is b forms only the rows i <= j, a copy forms every row
    rep, form, subs = _oracle_subspaces(sig, 3, 5)
    rng = random.Random(9)
    subs += [random_subspace(rep, d, rng) for d in range(1, min(rep.N, 6) + 1)]
    if sig == Signature(2, 3):
        form = first_nondegenerate(rep, tau=1)
        subs += [random_max_isotropic(rep, form, random.Random(t)) for t in range(3)]
    for sub in subs:
        copy = SpinorSubspace(rep, [list(col) for col in sub.basis])
        assert copy is not sub
        assert (
            pi_image(rep, form, sub, sub)
            == pi_image(rep, form, sub, copy)
            == _pi_image_oracle(rep, form, sub, sub)
        )


@pytest.mark.parametrize("sig", _ORACLE_SIGNATURES, ids=str)
def test_rational_column_scales_change_neither_obstruction_nor_image(sig):
    rep, form, subs = _oracle_subspaces(sig, 5, 3)
    rng = random.Random(13)
    for sub in subs:
        scales = [Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(2, 9))
                  for _ in range(sub.dim)]
        scaled = SpinorSubspace(rep, [[x * c for x in col] for col, c in zip(sub.basis, scales)])
        want = obstruction_vectors(rep, form, sub)
        _assert_identical(obstruction_vectors(rep, form, scaled), Matrix.from_columns(want, rep.n))
        image = pi_image(rep, form, sub, sub)
        assert pi_image(rep, form, scaled, scaled) == pi_image(rep, form, scaled, sub) == image


@pytest.mark.parametrize("sig", _ORACLE_SIGNATURES, ids=str)
def test_isotropic_matches_the_dense_pairing(sig):
    rep = build_rep(sig)
    rng = random.Random(17)
    outcomes = set()
    for form in (f for s in (1, -1) for t in (1, -1) for f in find_admissible(rep, s, t)):
        h = dense(form.matrix)
        for d in range(1, rep.N + 1):
            # sparse Fraction columns, so that some of them are isotropic
            basis = Matrix.from_columns([
                [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.3 else 0
                 for _ in range(rep.N)]
                for _ in range(d)
            ])
            fast = isotropic(form, basis.columns())
            assert fast == is_zero(basis.transpose() * h * basis)
            outcomes.add(fast)
    assert outcomes == {True, False}


class _CountingEchelon(Echelon):
    adds = 0
    kernels = 0

    def add(self, vector):
        _CountingEchelon.adds += 1
        return super().add(vector)

    def kernel(self, n_cols):
        _CountingEchelon.kernels += 1
        return super().kernel(n_cols)


_EXTREMAL_SIGNATURES = [Signature(2, 3), Signature(1, 3), Signature(3, 3), Signature(4, 1)]


@pytest.mark.parametrize("sig", _EXTREMAL_SIGNATURES, ids=str)
def test_obstruction_vectors_match_oracle_on_early_exit_and_extremal_subspaces(sig, monkeypatch):
    rep = build_rep(sig)
    form, v, extremal = extremal_witness(sig, 7)
    rng = random.Random(11)
    full_rank = [random_subspace(rep, 3 * rep.N // 4 + 1, rng) for _ in range(6)]
    deficient = [extremal, null_kernel(rep, form, v), random_subspace(rep, 1, rng)]
    monkeypatch.setattr(brackets, "Echelon", _CountingEchelon)
    _CountingEchelon.kernels = 0
    for sub in full_rank:
        _CountingEchelon.adds = 0
        fast = obstruction_vectors(rep, form, sub)
        _assert_identical(fast, _obstruction_oracle(rep, form, sub))
        assert fast == []
        assert _CountingEchelon.adds < sub.dim * (sub.dim + 1) // 2  # stopped early
    assert _CountingEchelon.kernels == 0
    for sub in deficient:
        fast = obstruction_vectors(rep, form, sub)
        _assert_identical(fast, _obstruction_oracle(rep, form, sub))
        assert fast
    assert _CountingEchelon.kernels == len(deficient)


@pytest.mark.parametrize(
    "sig, dims",
    [(Signature(2, 3), [(4, 4), (4, 3), (3, 4)]), (Signature(4, 1), [(8, 5), (7, 6), (8, 8)])],
    ids=str,
)
def test_pi_image_stops_at_full_image_and_matches_oracle(sig, dims, monkeypatch):
    # the mixed-bound dimensions, where the bracket image is all of R^n
    rep = build_rep(sig)
    form = first_nondegenerate(rep, tau=1)
    monkeypatch.setattr(brackets, "Echelon", _CountingEchelon)
    rng = random.Random(5)
    for k_a, k_b in dims:
        for _ in range(3):
            a, b = random_subspace(rep, k_a, rng), random_subspace(rep, k_b, rng)
            _CountingEchelon.adds = 0
            assert pi_image(rep, form, a, b) == _pi_image_oracle(rep, form, a, b) == rep.n
            assert _CountingEchelon.adds < a.dim * b.dim  # stopped early


def test_pi_image_degenerate_form_and_empty_spaces():
    rep = build_rep(Signature(2, 1))
    with pytest.raises(TypeError, match="SignedPerm"):
        BilinearForm(zero_matrix(rep.N, rep.N), 1, -1)
    form = first_nondegenerate(rep)
    full = SpinorSubspace(rep, Matrix.identity(rep.N).columns())
    trivial = SpinorSubspace.trivial(rep)
    for a, b in ((trivial, full), (full, trivial), (trivial, trivial)):
        assert pi_image(rep, form, a, b) == _pi_image_oracle(rep, form, a, b) == 0


class _CountingRandom(random.Random):
    draws = 0

    def randint(self, a, b):
        self.draws += 1
        return super().randint(a, b)


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
def test_random_integers_replays_randint(bound):
    # the getrandbits sampler is randint's: same values, same state after
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        count = 1 + seed % 40
        assert random_integers(fast, count, bound) == [
            slow.randint(-bound, bound) for _ in range(count)
        ]
        assert fast.getstate() == slow.getstate()


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
            fast_rng, slow_rng = random.Random(seed), _CountingRandom(seed)
            sub = random_subspace(rep, dim, fast_rng, bound=bound)
            assert list(sub.basis) == _random_subspace_oracle(rep, dim, slow_rng, bound=bound)
            assert fast_rng.getstate() == slow_rng.getstate()
            rejected += slow_rng.draws // rep.N - dim
    if bound == 1:
        assert rejected > 0  # dependent candidates were drawn and skipped
