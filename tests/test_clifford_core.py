import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinorlab.clifford_core import (
    EXPECTED_COMMUTANT,
    _plus_eigenbasis,
    _restrict,
    Polyvector,
    Signature,
    build_rep,
    cell_maps,
    clifford_relation_failures,
    commutant_dimension,
    cone_even_iso,
    even_subalgebra_images,
    gamma_blade,
    gamma_polyvector,
    gamma_vector,
    metric_value,
    null_pair,
    rep_table,
    wedge_vectors,
)
from spinorlab.exact_linalg import Matrix, SignedPerm, kernel


def all_signatures(max_n):
    for n in range(1, max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def test_base_cases():
    r10 = build_rep(Signature(1, 0))
    assert r10.N == 2
    g = r10.generators[0]
    assert (g * g).dense() == Matrix.identity(2).scale(-1)

    r01 = build_rep(Signature(0, 1))
    assert r01.N == 1
    assert r01.generators[0].dense() == Matrix([[1]])


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
                gi, gj = rep.generators[i].dense(), rep.generators[j].dense()
                anti = gi * gj + gj * gi
                want = ident.scale(-2 * rep.eta[i]) if i == j else Matrix.zero(rep.N, rep.N)
                assert anti == want, f"{sig} ({i},{j})"


def test_gamma_vector_squares():
    rng = random.Random(7)
    for sig in all_signatures(6):
        rep = build_rep(sig)
        for _ in range(10):
            v = [rng.randint(-3, 3) for _ in range(rep.n)]
            gv = gamma_vector(rep, v)
            want = Matrix.identity(rep.N).scale(-metric_value(rep.eta, v, v))
            assert gv * gv == want


def _gamma_vector_oracle(rep, v):
    """The dense sum of scaled generators gamma_vector replaced."""
    out = Matrix.zero(rep.N, rep.N)
    for c, g in zip(v, rep.generators):
        if c:
            out = out + g.dense().scale(c)
    return out


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
@example((_R23, [Fraction(0)] * 5))  # Fraction zeros are skipped: int entries
@example((_R23, [0] * 5))
@example((_R23, [-1, 0, 1, 2, Fraction(1, 2)]))  # one Fraction makes every entry one
@DIFFERENTIAL
def test_gamma_vector_matches_dense_sum_oracle(rep_and_vector):
    rep, v = rep_and_vector
    got, want = gamma_vector(rep, v), _gamma_vector_oracle(rep, v)
    assert got == want
    assert [[type(x) for x in row] for row in got.data] == [
        [type(x) for x in row] for row in want.data
    ]


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
    return kernel(Matrix(rows)).cols


def signed_permutation(matrix: Matrix):
    """(perm, signs) with matrix @ e_j == signs[j] * e_perm[j], or None:
    the dense extraction the builder used before it kept SignedPerms."""
    perm = [None] * matrix.cols
    signs = [0] * matrix.cols
    for j in range(matrix.cols):
        hit = None
        for i in range(matrix.rows):
            x = matrix.data[i][j]
            if x:
                if hit is not None or x not in (1, -1):
                    return None
                hit = i
                signs[j] = x
        if hit is None:
            return None
        perm[j] = hit
    return tuple(perm), tuple(signs)


def _commutant_relations_oracle(mats, N):
    """The relation loop commutant_dimension and the even commutant each
    inlined before monomial_relations: d_a X[a, s] == d_s X[r, perm[s]]."""
    relations = []
    for g in mats:
        perm, signs = signed_permutation(g.dense())
        inv = [0] * N
        for j, i in enumerate(perm):
            inv[i] = j
        for r in range(N):
            a = inv[r]
            da = signs[a]
            for s in range(N):
                relations.append((a * N + s, r * N + perm[s], da * signs[s]))
    return relations


def _type_relations_oracle(generators, N, tau):
    """The relation loop find_admissible used before monomial_relations:
    d(r) H[perm(r), s] == tau d(s) H[r, perm(s)]."""
    relations = []
    for g in generators:
        perm, signs = signed_permutation(g.dense())
        for r in range(N):
            for s in range(N):
                relations.append(
                    (perm[r] * N + s, r * N + perm[s], tau * signs[r] * signs[s])
                )
    return relations


def _edges(relations):
    """Two-term relations as a sorted list of undirected signed edges."""
    return sorted((min(a, b), max(a, b), s) for a, b, s in relations)


def _map_edges(maps):
    return _edges(
        (c, t, s) for target, sign in maps for c, (t, s) in enumerate(zip(target, sign))
    )


def test_cell_maps_match_inline_builders():
    def commutant_maps(mats, N):
        return cell_maps([(m, m) for m in mats], N)

    def type_maps(mats, N, tau):
        return cell_maps([(m, m.transpose()) for m in mats], N, tau)

    for sig in all_signatures(6):
        rep = build_rep(sig)
        gens, N = rep.generators, rep.N
        want = _edges(_commutant_relations_oracle(gens, N))
        assert _map_edges(commutant_maps(gens, N)) == want, str(sig)
        for tau in (1, -1):
            want = _edges(_type_relations_oracle(gens, N, tau))
            assert _map_edges(type_maps(gens, N, tau)) == want, (str(sig), tau)
        if sig.p >= 1 and sig.n >= 2:
            images = even_subalgebra_images(rep)
            want = _edges(_commutant_relations_oracle(images, N))
            assert _map_edges(commutant_maps(images, N)) == want, str(sig)
    # generators are involutions up to sign, so only a non-involutive
    # monomial tells a permutation from its inverse
    cycle = SignedPerm(*signed_permutation(Matrix([[0, 0, -1], [1, 0, 0], [0, 1, 0]])))
    want = _edges(_commutant_relations_oracle([cycle], 3))
    assert _map_edges(commutant_maps([cycle], 3)) == want
    for tau in (1, -1):
        want = _edges(_type_relations_oracle([cycle], 3, tau))
        assert _map_edges(type_maps([cycle], 3, tau)) == want


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
        cols, reps = _plus_eigenbasis(z)
        ident = Matrix.identity(4)
        assert all(z.dense() * Matrix.column(c) == Matrix.column(c) for c in cols)
        assert len(cols) == kernel(z.dense() - ident).cols
        for perm in itertools.permutations(range(4)):
            for signs in itertools.product((1, -1), repeat=4):
                m = SignedPerm(perm, signs)
                want = _restrict_dense(m.dense(), cols, reps)
                if want is None:
                    with pytest.raises(ArithmeticError, match="does not preserve the eigenspace"):
                        _restrict(m, cols, reps)
                    rejected += 1
                else:
                    assert _restrict(m, cols, reps).dense() == want, (z, m)
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
        dense = _commutant_dimension_dense([g.dense() for g in rep.generators], rep.N)
        assert dense == {"R": 1, "C": 2, "H": 4}[EXPECTED_COMMUTANT[sig.s_mod8]]


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
    gv = gamma_vector(rep, v)
    assert (gv * gv).is_zero()


def gamma_alternating(rep, vectors):
    """(1/k!) sum over permutations of signed products; the defining
    antisymmetrization, used as an independent oracle for gamma_polyvector."""
    k = len(vectors)
    if k == 0:
        return Matrix.identity(rep.N)
    gammas = [gamma_vector(rep, v) for v in vectors]
    out = Matrix.zero(rep.N, rep.N)
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
    assert gamma_blade(rep, (0, 1)).dense() == gamma_alternating(rep, [e0, e1])
    # non-orthogonal pair: gamma(v ^ w) = gamma_v gamma_w + g(v,w) Id
    v = [1, 2, 0]
    w = [0, 1, 1]
    lhs = gamma_polyvector(rep, wedge_vectors([v, w]))
    assert lhs == gamma_alternating(rep, [v, w])
    gv, gw = gamma_vector(rep, v), gamma_vector(rep, w)
    rhs = gv * gw + Matrix.identity(rep.N).scale(metric_value(rep.eta, v, w))
    assert lhs == rhs


def test_gamma_triple_matches_antisymmetrization():
    rep = build_rep(Signature(2, 2))
    rng = random.Random(6)
    for _ in range(5):
        vs = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)]
        pv = wedge_vectors(vs)
        assert gamma_polyvector(rep, pv) == gamma_alternating(rep, vs)


def test_gamma_degree_filtration_basis_pairs():
    for sig in [Signature(2, 2), Signature(3, 0)]:
        rep = build_rep(sig)
        for i in range(rep.n):
            for j in range(rep.n):
                if i == j:
                    continue
                ei = [1 if a == i else 0 for a in range(rep.n)]
                ej = [1 if a == j else 0 for a in range(rep.n)]
                lhs = gamma_polyvector(rep, wedge_vectors([ei, ej]))
                gi, gj = rep.generators[i], rep.generators[j]
                rhs = (gi * gj).dense() + Matrix.identity(rep.N).scale(
                    metric_value(rep.eta, ei, ej)
                )
                assert lhs == rhs


def test_gamma_polyvector_degenerate_cases():
    rep = build_rep(Signature(2, 0))
    assert gamma_polyvector(rep, Polyvector.scalar(2, 3)) == Matrix.identity(4).scale(3)
    v = [1, 2]
    vv = wedge_vectors([v, v])
    assert vv.is_zero()
    assert gamma_polyvector(rep, vv).is_zero()
    assert gamma_vector(rep, [0, 0]).is_zero()


def test_volume_element():
    r01 = build_rep(Signature(0, 1))
    assert gamma_blade(r01, range(r01.n)) == r01.generators[0]
    for sig, square in ((Signature(2, 0), -1), (Signature(1, 1), 1)):
        rep = build_rep(sig)
        nu = gamma_blade(rep, range(rep.n))
        assert (nu * nu).is_scalar_multiple_of_identity() == square


def test_null_pair():
    sig = Signature(2, 3)
    p_vec, q_vec = null_pair(sig)
    eta = sig.eta()
    assert metric_value(eta, p_vec, p_vec) == 0
    assert metric_value(eta, q_vec, q_vec) == 0
    assert metric_value(eta, p_vec, q_vec) == 1
    with pytest.raises(ValueError):
        null_pair(Signature(3, 0))


def test_cone_even_iso_small():
    for base in [Signature(0, 1), Signature(2, 0), Signature(1, 2)]:
        rep_base = build_rep(base)
        rep_cone = build_rep(Signature(base.p + 1, base.q))
        report = cone_even_iso(rep_base, rep_cone)
        assert report.ok, report.failures


def test_cone_even_iso_reports_broken_relations_interleaved():
    rep_base = build_rep(Signature(2, 1))
    rep_cone = build_rep(Signature(3, 1))
    g = rep_base.generators
    broken_base = dataclasses.replace(rep_base, generators=(g[0], g[0], g[0]))
    c = rep_cone.generators
    broken_cone = dataclasses.replace(rep_cone, generators=(c[0], c[1], c[1], c[3]))
    report = cone_even_iso(broken_base, broken_cone)
    assert not report.ok
    assert report.checked == 6
    assert report.failures == (
        "even_relation(0,1)",
        "base_relation(0,1)",
        "base_relation(0,2)",
        "base_relation(1,2)",
        "base_relation(2,2)",
    )


def test_cone_even_iso_all_small_n():
    for sig in all_signatures(6):
        report = cone_even_iso(
            build_rep(sig), build_rep(Signature(sig.p + 1, sig.q))
        )
        assert report.ok, (str(sig), report.failures)


def test_rep_table_contains_known_row():
    rows = rep_table(5)
    row = next(r for r in rows if (r["p"], r["q"]) == (2, 3))
    assert row["N"] == 4


def test_polyvector_wedge_interior_adjoint():
    rng = random.Random(3)
    n = 4
    eta = (1, 1, -1, -1)
    for _ in range(20):
        v = [rng.randint(-2, 2) for _ in range(n)]
        omega_coeffs = [rng.randint(-2, 2) for _ in range(6)]
        omega = Polyvector(n, 2, tuple(omega_coeffs))
        xi = Polyvector.from_vector([rng.randint(-2, 2) for _ in range(n)])
        lhs = omega.interior(v, eta).metric_inner(xi, eta)
        rhs = omega.metric_inner(Polyvector.from_vector(v).wedge(xi), eta)
        assert lhs == rhs


def test_hypercomplex_commutant_examples():
    rep = build_rep(Signature(2, 0))
    assert rep.commutant_type == "H"
    j1, j2, j3 = rep.commutant_basis
    assert (j1 * j1).dense() == Matrix.identity(4).scale(-1)
    assert j3 == j1 * j2
    assert j1 * j2 == -(j2 * j1)

    assert build_rep(Signature(1, 0)).commutant_type == "C"
    assert build_rep(Signature(0, 1)).commutant_type == "R"

