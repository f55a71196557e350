import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinorlab.clifford_core import (
    _plus_eigenbasis,
    _restrict,
    Signature,
    build_rep,
    clifford_relation_failures,
    commutant_dimension,
    even_subalgebra_images,
    first_square_root,
    gamma_blade,
    gamma_vector,
    metric_value,
    null_direction,
    rep_table,
)
from spinorlab.exact_linalg import SignedPerm
from dense_oracle import (
    Matrix,
    dense,
    dense_scalar,
    gamma_dense,
    is_zero,
    matrix_kernel,
    sparse_dense,
    zero_matrix,
)
from test_exact_linalg import signed_perms


# commutant type of the irreducible real module by s mod 8 (the classical
# table), checked against the builder and the dense commutant solver
EXPECTED_COMMUTANT = {0: "R", 1: "C", 2: "H", 3: "H", 4: "H", 5: "C", 6: "R", 7: "R"}


def all_signatures(max_n):
    for n in range(1, max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def test_base_cases():
    r10 = build_rep(Signature(1, 0))
    assert r10.N == 2
    g = r10.generators[0]
    assert dense(g * g) == Matrix.identity(2).scale(-1)

    r01 = build_rep(Signature(0, 1))
    assert r01.N == 1
    assert dense(r01.generators[0]) == Matrix([[1]])


def test_known_dimensions():
    assert build_rep(Signature(2, 3)).N == 4
    assert build_rep(Signature(4, 5)).N == 16
    assert build_rep(Signature(1, 1)).N == 2
    assert build_rep(Signature(3, 0)).N == 4
    assert build_rep(Signature(5, 0)).N == 8
    assert build_rep(Signature(6, 0)).N == 8
    assert build_rep(Signature(7, 0)).N == 8
    assert build_rep(Signature(8, 0)).N == 16
    assert build_rep(Signature(9, 0)).N == 32
    assert build_rep(Signature(0, 8)).N == 16


def test_clifford_relations_all_signatures():
    ident = None
    for sig in all_signatures(8):
        rep = build_rep(sig)
        ident = Matrix.identity(rep.N)
        for i in range(rep.n):
            for j in range(i, rep.n):
                gi, gj = dense(rep.generators[i]), dense(rep.generators[j])
                anti = gi * gj + gj * gi
                want = ident.scale(-2 * rep.eta[i]) if i == j else zero_matrix(rep.N, rep.N)
                assert anti == want, f"{sig} ({i},{j})"


def test_gamma_vector_squares():
    rng = random.Random(7)
    for sig in all_signatures(6):
        rep = build_rep(sig)
        for _ in range(10):
            v = [rng.randint(-3, 3) for _ in range(rep.n)]
            gv = sparse_dense(gamma_vector(rep, v))
            want = Matrix.identity(rep.N).scale(-metric_value(rep.eta, v, v))
            assert gv * gv == want


# the same example budget as the differential searches of test_exact_linalg
DIFFERENTIAL = settings(max_examples=150)

_entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)),
)


@st.composite
def reps_and_vectors(draw):
    """A rep with n <= 6 and a vector of int and Fraction entries."""
    n = draw(st.integers(min_value=1, max_value=6))
    p = draw(st.integers(min_value=0, max_value=n))
    return build_rep(Signature(p, n - p)), draw(st.lists(_entries, min_size=n, max_size=n))


_R23 = build_rep(Signature(2, 3))


@given(reps_and_vectors())
@example((_R23, [Fraction(0)] * 5))  # Fraction zeros are skipped: empty columns
@example((_R23, [0] * 5))
@example((_R23, [-1, 0, 1, 2, Fraction(1, 2)]))
@DIFFERENTIAL
def test_gamma_vector_matches_dense_sum_oracle(rep_and_vector):
    # values only: a sparse column holds no typed zeros, and each entry it
    # holds has the type of its own sum of +-v_i
    rep, v = rep_and_vector
    cols = gamma_vector(rep, v)
    assert len(cols) == rep.N
    assert all(len(col) <= rep.n and set(col) <= set(range(rep.N)) for col in cols)
    assert sparse_dense(cols) == gamma_dense(rep, v)


def test_commutant_matches_mod8_table():
    for sig in all_signatures(8):
        rep = build_rep(sig)
        assert rep.commutant_type == EXPECTED_COMMUTANT[sig.s_mod8], str(sig)
        dim = commutant_dimension(rep.generators, rep.N)
        assert dim == {"R": 1, "C": 2, "H": 4}[rep.commutant_type]


def _commutant_dimension_dense(generators, N):
    """Brute-force oracle: kernel of the stacked N^2 x N^2 system GX - XG."""
    rows = []
    for g in generators:
        for r in range(N):
            for s in range(N):
                row = [0] * (N * N)
                for k in range(N):
                    if g.data[r][k]:
                        row[k * N + s] += g.data[r][k]
                    if g.data[k][s]:
                        row[r * N + k] -= g.data[k][s]
                rows.append(row)
    return matrix_kernel(Matrix(rows)).cols


def test_commutant_dimension_rejects_non_monomial_generators():
    shear = Matrix([[1, 1], [0, 1]])
    assert _commutant_dimension_dense([shear], 2) == 2


def _restrict_dense(m, cols, reps):
    """The dense restriction _restrict replaced: w = m b, coefficients
    read at the representatives, and an exact reconstruction check;
    None when some m b leaves span(cols)."""
    n = m.rows
    out = [[0] * len(cols) for _ in cols]
    for b_idx, b in enumerate(cols):
        w = [sum(m.data[i][j] * b[j] for j in range(n)) for i in range(n)]
        coeffs = [w[r] for r in reps]
        if [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)] != w:
            return None
        for i, c in enumerate(coeffs):
            out[i][b_idx] = c
    return Matrix(out)


def test_restrict_matches_dense_restriction_on_every_signed_perm_of_size_4():
    involutions = [
        SignedPerm((1, 0, 2, 3), (1, 1, 1, -1)),
        SignedPerm((1, 0, 2, 3), (1, 1, 1, 1)),
        SignedPerm((1, 0, 3, 2), (-1, -1, 1, 1)),
        SignedPerm((0, 1, 2, 3), (1, -1, 1, -1)),
    ]
    kept = rejected = 0
    for z in involutions:
        sparse = _plus_eigenbasis(z)
        cols = [[dict(col).get(i, 0) for i in range(4)] for col in sparse]
        reps = [col[0][0] for col in sparse]
        assert all(cols[a][r] == 1 for a, r in enumerate(reps))
        ident = Matrix.identity(4)
        assert all(dense(z) * Matrix.from_columns([c]) == Matrix.from_columns([c]) for c in cols)
        assert len(cols) == matrix_kernel(dense(z) - ident).cols
        for perm in itertools.permutations(range(4)):
            for signs in itertools.product((1, -1), repeat=4):
                m = SignedPerm(perm, signs)
                want = _restrict_dense(dense(m), cols, reps)
                if want is None:
                    with pytest.raises(ArithmeticError, match="does not preserve the eigenspace"):
                        _restrict(m, sparse)
                    rejected += 1
                else:
                    assert dense(_restrict(m, sparse)) == want, (z, m)
                    kept += 1
    assert kept and rejected


def test_clifford_relation_failures_reports_broken_pairs():
    for sig in all_signatures(6):
        rep = build_rep(sig)
        assert clifford_relation_failures(rep.generators, rep.eta) == [], str(sig)
        # G_k := G_m breaks (k, m), and (k, k) when the squares differ
        for k in range(rep.n):
            for m in range(rep.n):
                if k == m:
                    continue
                gens = list(rep.generators)
                gens[k] = gens[m]
                want = [tuple(sorted((k, m)))]
                if rep.eta[k] != rep.eta[m]:
                    want.append((k, k))
                got = clifford_relation_failures(gens, rep.eta)
                assert got == sorted(want), (str(sig), k, m)


def test_commutant_table_against_dense_solver():
    # re-derive the residue table by brute force on small signatures
    for sig in all_signatures(5):
        rep = build_rep(sig)
        dim = _commutant_dimension_dense([dense(g) for g in rep.generators], rep.N)
        assert dim == {"R": 1, "C": 2, "H": 4}[EXPECTED_COMMUTANT[sig.s_mod8]]


def test_build_determinism():
    from spinorlab.clifford_core import _build_rep_cached

    rep1 = build_rep(Signature(3, 2))
    _build_rep_cached.cache_clear()
    rep2 = build_rep(Signature(3, 2))
    assert rep1.generators == rep2.generators
    assert rep1.commutant_basis == rep2.commutant_basis


def test_gamma_null_vector():
    rep = build_rep(Signature(2, 3))
    v = [1, 0, 1, 0, 0]  # e_1 + e_3 with eta = (+,+,-,-,-)
    gv = sparse_dense(gamma_vector(rep, v))
    assert is_zero(gv * gv)
    assert gamma_vector(rep, [0] * rep.n) == [{} for _ in range(rep.N)]


def gamma_alternating(rep, vectors):
    """(1/k!) sum over permutations of signed products; the defining
    antisymmetrization, used as an independent oracle for the action of
    a wedge of vectors."""
    k = len(vectors)
    if k == 0:
        return Matrix.identity(rep.N)
    gammas = [gamma_dense(rep, v) for v in vectors]
    out = zero_matrix(rep.N, rep.N)
    for perm in itertools.permutations(range(k)):
        sign = _permutation_sign(perm)
        prod = gammas[perm[0]]
        for idx in perm[1:]:
            prod = prod * gammas[idx]
        out = out + prod.scale(sign)
    return out.scale(Fraction(1, _factorial(k)))


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def _permutation_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_gamma_blade_matches_antisymmetrization():
    rep = build_rep(Signature(2, 1))
    e0 = [1, 0, 0]
    e1 = [0, 1, 0]
    assert dense(gamma_blade(rep, (0, 1))) == gamma_alternating(rep, [e0, e1])
    # non-orthogonal pair: gamma(v ^ w) = gamma_v gamma_w + g(v,w) Id
    v = [1, 2, 0]
    w = [0, 1, 1]
    lhs = gamma_alternating(rep, [v, w])
    gv, gw = sparse_dense(gamma_vector(rep, v)), sparse_dense(gamma_vector(rep, w))
    rhs = gv * gw + Matrix.identity(rep.N).scale(metric_value(rep.eta, v, w))
    assert lhs == rhs


def test_volume_element():
    r01 = build_rep(Signature(0, 1))
    assert gamma_blade(r01, range(r01.n)) == r01.generators[0]
    for sig, square in ((Signature(2, 0), -1), (Signature(1, 1), 1)):
        rep = build_rep(sig)
        nu = gamma_blade(rep, range(rep.n))
        assert (nu * nu).is_scalar_multiple_of_identity() == square


def test_null_direction():
    sig = Signature(2, 3)
    p_vec = null_direction(sig)
    assert p_vec == [1, 0, 1, 0, 0]
    assert metric_value(sig.eta(), p_vec, p_vec) == 0
    with pytest.raises(ValueError):
        null_direction(Signature(3, 0))


def _even_relation_failures(base):
    """The Clifford relations of the base that the images e_i e_0 in its
    cone's even subalgebra break."""
    cone = build_rep(Signature(base.p + 1, base.q))
    return clifford_relation_failures(even_subalgebra_images(cone), base.eta())


def test_cone_even_iso_small():
    for base in [Signature(0, 1), Signature(2, 0), Signature(1, 2)]:
        assert _even_relation_failures(base) == [], str(base)


def test_cone_even_iso_all_small_n():
    for sig in all_signatures(6):
        assert _even_relation_failures(sig) == [], str(sig)


def test_rep_table_contains_known_row():
    rows = rep_table(5)
    row = next(r for r in rows if (r["p"], r["q"]) == (2, 3))
    assert row["N"] == 4


def test_hypercomplex_commutant_examples():
    rep = build_rep(Signature(2, 0))
    assert rep.commutant_type == "H"
    j1, j2, j3 = rep.commutant_basis
    assert dense(j1 * j1) == Matrix.identity(4).scale(-1)
    assert j3 == j1 * j2
    assert j1 * j2 == -(j2 * j1)

    assert build_rep(Signature(1, 0)).commutant_type == "C"
    assert build_rep(Signature(0, 1)).commutant_type == "R"



@given(
    st.integers(min_value=1, max_value=4).flatmap(lambda n: st.lists(signed_perms(n), max_size=6)),
    st.sampled_from([1, -1]),
)
@settings(max_examples=150)
def test_first_square_root_matches_dense_search(elements, c):
    # the first element that is not scalar and squares to c Id, as dense
    # products; drawn perms are +-Id a quarter of the time
    want = None
    for x in elements:
        d = dense(x)
        if dense_scalar(d) is None and dense_scalar(d * d) == c:
            want = x
            break
    assert first_square_root(elements, c) == want
    assert first_square_root(iter(elements), c) == want
