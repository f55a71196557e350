import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinorlab import clifford_core
from spinorlab.clifford_core import (
    _COMM_DIM,
    _conjugation,
    _restrict,
    _verify_rep,
    Signature,
    build_rep,
    character_dimension,
    certify_relations,
    clifford_relation_failures,
    even_subalgebra_images,
    first_square_root,
    gamma_blade,
    gamma_vector,
    metric_value,
    null_direction,
    rep_table,
    twisted_commutant,
)
from spinorlab.exact_linalg import SignedPerm, term_rows
from dense_oracle import (
    Matrix,
    clifford_relation_failures_oracle,
    commutant_dimension_by_solve,
    dense,
    dense_scalar,
    flip_sign,
    gamma_dense,
    is_zero,
    kernel,
    matrix_kernel,
    from_cells,
    planted,
    signed_relation_basis,
    swap_entries,
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
            gv = Matrix(term_rows(gamma_vector(rep, v), rep.N))
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
@example((_R23, [Fraction(0)] * 5))  # Fraction zeros are skipped: no terms
@example((_R23, [0] * 5))
@example((_R23, [-1, 0, 1, 2, Fraction(1, 2)]))
@DIFFERENTIAL
def test_gamma_vector_matches_dense_sum_oracle(rep_and_vector):
    # the terms are (v_i, G_i) over the nonzero v_i, in order; their rows
    # match the dense sum in value (a rows entry may be a typed zero)
    rep, v = rep_and_vector
    terms = gamma_vector(rep, v)
    nonzero = [i for i, c in enumerate(v) if c]
    assert [c for c, _ in terms] == [v[i] for i in nonzero]
    assert all(g == rep.generators[i] for (_, g), i in zip(terms, nonzero))
    assert Matrix(term_rows(terms, rep.N)) == gamma_dense(rep, v)


def test_commutant_matches_mod8_table():
    for sig in all_signatures(8):
        rep = build_rep(sig)
        assert rep.commutant_type == EXPECTED_COMMUTANT[sig.s_mod8], str(sig)
        dim = character_dimension(rep.generators, [1] * rep.n)  # build_rep certified them
        assert dim == {"R": 1, "C": 2, "H": 4}[rep.commutant_type]


def _commutant_dimension_dense(generators, N):
    """Brute-force oracle: kernel of the stacked N^2 x N^2 system GX - XG
    over N^2 unknowns, all of them with no generators."""
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
    return len(kernel(rows, N * N))


def test_commutant_dimension_rejects_non_monomial_generators():
    shear = Matrix([[1, 1], [0, 1]])
    assert _commutant_dimension_dense([shear], 2) == 2


def _clifford_sets(max_n):
    """(label, generator stack) for certified Clifford sets: every rep
    with n <= max_n, whose relations certify_relations certifies, and the
    even images of every cone with n <= max_n, whose base relations the
    cone's certified relations imply, as eta_0 = +1 (no images for the
    cone (1,0)).  The implication is checked here on every cone, against
    the images' own relation table."""
    for sig in all_signatures(max_n):
        rep = build_rep(sig)
        certify_relations(rep)
        yield str(sig), rep.generators
        if sig.p >= 1:
            images = even_subalgebra_images(rep)
            assert clifford_relation_failures(images, rep.eta[1:]) == [], str(sig)
            yield f"even {sig}", images


def test_commutant_count_matches_the_orbit_solve_and_the_dense_solver():
    solved = dense_checked = 0
    for label, gens in _clifford_sets(10):
        count = character_dimension(gens, [1] * len(gens))
        assert count == commutant_dimension_by_solve(gens), label
        solved += 1
        if len(gens) <= 6:  # the dense N^2 x N^2 system is slow past N = 16
            assert count == _commutant_dimension_dense([dense(g) for g in gens], gens.N), label
            dense_checked += 1
    assert (solved, dense_checked) == (65 + 55, 27 + 28)
    # with no generators the commutant is all of End(R^N)
    assert character_dimension(SignedPerm(np.zeros((0, 3)), np.zeros((0, 3))), []) == 9


def test_verify_rep_rejects_a_reducible_module_by_the_count():
    # G (x) Id_2 satisfies the relations and its commutant holds X (x) M
    # for every 2 x 2 M: four times the count, which no type matches
    ident = SignedPerm.identity(2)
    for sig in all_signatures(6):
        rep = build_rep(sig)
        doubled = dataclasses.replace(
            rep,
            generators=rep.generators.kron(ident),
            commutant_basis=rep.commutant_basis.kron(ident),
        )
        assert doubled.N == 2 * rep.N
        dim = 4 * _COMM_DIM[rep.commutant_type]
        assert clifford_relation_failures(doubled.generators, rep.eta) == []
        assert character_dimension(doubled.generators, [1] * rep.n) == dim
        with pytest.raises(ArithmeticError, match=f"commutant dimension {dim} does not match"):
            _verify_rep(doubled)


def test_build_memo_runs_each_signature_once(monkeypatch):
    from spinorlab import clifford_core

    sigs = list(all_signatures(10))
    memo = clifford_core._build
    # the unmemoized recursion: every sub-signature is rebuilt on each path
    calls = []
    monkeypatch.setattr(
        clifford_core, "_build", lambda p, q: calls.append((p, q)) or memo.__wrapped__(p, q)
    )
    unmemoized = {sig: clifford_core._build(sig.p, sig.q) for sig in sigs}
    monkeypatch.undo()
    memo.cache_clear()
    clifford_core._build_rep_cached.cache_clear()
    reps = {sig: build_rep(sig) for sig in sigs}
    info = memo.cache_info()
    assert info.misses == info.currsize == len(set(calls)) < len(calls)
    for sig in sigs:
        gens, comm = memo(sig.p, sig.q)
        assert (gens, comm) == unmemoized[sig]
        assert not any(x.perm.flags.writeable or x.signs.flags.writeable for x in (gens, comm))
        assert reps[sig].generators is gens  # the rep holds the one cached stack


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


def _plus_eigencolumns(z):
    """The dense basis of z's +1 eigenspace that _restrict works in,
    e_s + z e_s over the s with z.perm[s] > s and e_s alone where
    z e_s = e_s, and its representatives s."""
    cols, reps = [], []
    for s, (t, sign) in enumerate(zip(z.perm.tolist(), z.signs.tolist())):
        if t > s or (t == s and sign == 1):
            col = [0] * z.N
            col[s], col[t] = 1, sign
            cols.append(col)
            reps.append(s)
    return cols, reps


def test_restrict_matches_dense_restriction_on_every_signed_perm_of_size_4():
    # _restrict takes only what commutes with z, which preserves the
    # eigenspace; the dense restriction of each such m is its answer
    involutions = [
        SignedPerm((1, 0, 2, 3), (1, 1, 1, -1)),
        SignedPerm((1, 0, 2, 3), (1, 1, 1, 1)),
        SignedPerm((1, 0, 3, 2), (-1, -1, 1, 1)),
        SignedPerm((0, 1, 2, 3), (1, -1, 1, -1)),
    ]
    kept = rejected = 0
    for z in involutions:
        cols, reps = _plus_eigencolumns(z)
        assert all(cols[a][r] == 1 for a, r in enumerate(reps))
        ident = Matrix.identity(4)
        assert all(dense(z) * Matrix.from_columns([c]) == Matrix.from_columns([c]) for c in cols)
        assert len(cols) == matrix_kernel(dense(z) - ident).cols
        commuting = []
        for perm in itertools.permutations(range(4)):
            for signs in itertools.product((1, -1), repeat=4):
                m = SignedPerm(perm, signs)
                if dense(m) * dense(z) != dense(z) * dense(m):
                    with pytest.raises(ArithmeticError, match="does not commute with the involution"):
                        _restrict(m, z)
                    rejected += 1
                    continue
                want = _restrict_dense(dense(m), cols, reps)
                assert want is not None and dense(_restrict(m, z)) == want, (z, m)
                commuting.append(m)
                kept += 1
        # a stack restricts element by element
        assert list(_restrict(SignedPerm.concat(commuting), z)) == [_restrict(m, z) for m in commuting]
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
                gens = rep.generators[[m if i == k else i for i in range(rep.n)]]
                want = [tuple(sorted((k, m)))]
                if rep.eta[k] != rep.eta[m]:
                    want.append((k, k))
                got = clifford_relation_failures(gens, rep.eta)
                assert got == sorted(want), (str(sig), k, m)


def _planted_breaks(gens):
    """Copies of the (n, N) generator stack, each with one break: a
    flipped sign or two swapped perm entries in one column pair of one
    generator, or one generator replaced by another.  Each copy differs
    from gens in exactly its planted entries."""
    out = []
    n, N = gens.perm.shape
    for i in range(n):
        out += [flip_sign(gens, (i, c)) for c in range(N)]
        out += [swap_entries(gens, (i, c), (i, d)) for c, d in itertools.combinations(range(N), 2)]
        for h in range(n):
            if h != i:
                replaced = gens[[h if k == i else k for k in range(n)]]
                changed = (replaced.perm[i] != gens.perm[i]) | (replaced.signs[i] != gens.signs[i])
                cells = {(i, c) for c in np.flatnonzero(changed).tolist()}
                out.append(planted(gens, cells, replaced.perm, replaced.signs))
    return out


def test_clifford_relation_failures_matches_the_pairwise_oracle():
    for sig in all_signatures(9):
        rep = build_rep(sig)
        assert clifford_relation_failures(rep.generators, rep.eta) == [], str(sig)
        assert clifford_relation_failures_oracle(rep.generators, rep.eta) == [], str(sig)
    for sig in (Signature(2, 2), Signature(3, 0)):
        rep = build_rep(sig)
        broken_pairs = set()
        for gens in _planted_breaks(rep.generators):
            got = clifford_relation_failures(gens, rep.eta)
            assert got == clifford_relation_failures_oracle(gens, rep.eta), (str(sig), gens)
            assert all(type(x) is int for pair in got for x in pair)
            broken_pairs.update(got)
        # a break is planted at every (i, j), i <= j
        assert broken_pairs == {(i, j) for i in range(rep.n) for j in range(i, rep.n)}


def test_verify_rep_commutant_check_matches_the_pairwise_oracle():
    # every tracked commutant element commutes with every generator; a
    # planted break is reported exactly when some x g != g x
    caught = 0
    for sig in all_signatures(6):
        rep = build_rep(sig)
        _verify_rep(rep)
        comm = rep.commutant_basis
        for a, x in enumerate(comm):
            for (broken,) in _planted_breaks(x[None]) + [[g] for g in rep.generators]:
                basis = SignedPerm.concat([comm[:a], broken, comm[a + 1:]])
                broken_rep = dataclasses.replace(rep, commutant_basis=basis)
                if all(broken * g == g * broken for g in rep.generators):
                    _verify_rep(broken_rep)
                    continue
                with pytest.raises(ArithmeticError, match="commutant element fails"):
                    _verify_rep(broken_rep)
                caught += 1
    assert caught > 100


def test_commutant_table_against_dense_solver():
    # re-derive the residue table by brute force on small signatures
    for sig in all_signatures(5):
        rep = build_rep(sig)
        dim = _commutant_dimension_dense([dense(g) for g in rep.generators], rep.N)
        assert dim == {"R": 1, "C": 2, "H": 4}[EXPECTED_COMMUTANT[sig.s_mod8]]


def test_build_determinism():
    from spinorlab.clifford_core import _build, _build_rep_cached

    rep1 = build_rep(Signature(3, 2))
    _build.cache_clear()
    _build_rep_cached.cache_clear()
    rep2 = build_rep(Signature(3, 2))
    assert rep1.generators == rep2.generators
    assert rep1.commutant_basis == rep2.commutant_basis


def test_gamma_null_vector():
    rep = build_rep(Signature(2, 3))
    v = [1, 0, 1, 0, 0]  # e_1 + e_3 with eta = (+,+,-,-,-)
    gv = Matrix(term_rows(gamma_vector(rep, v), rep.N))
    assert is_zero(gv * gv)
    assert gamma_vector(rep, [0] * rep.n) == []


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
    gv, gw = (Matrix(term_rows(gamma_vector(rep, x), rep.N)) for x in (v, w))
    rhs = gv * gw + Matrix.identity(rep.N).scale(metric_value(rep.eta, v, w))
    assert lhs == rhs


def test_volume_element():
    r01 = build_rep(Signature(0, 1))
    assert gamma_blade(r01, range(r01.n)) == r01.generators[0]
    for sig, square in ((Signature(2, 0), -1), (Signature(1, 1), 1)):
        rep = build_rep(sig)
        nu = gamma_blade(rep, range(rep.n))
        assert (nu * nu).scalar() == square


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
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(signed_perms(n), min_size=1, max_size=6)
    ),
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
    assert first_square_root(SignedPerm.concat(elements), c) == want


def test_conjugation_on_every_type_c_rep():
    # J is diagonal, J G_i = c_i G_i J and J j_1 = -j_1 J on each of the
    # 55 reps of type C (all of odd n) with n <= 19, N <= 512
    checked = 0
    for sig in all_signatures(19):
        rep = build_rep(sig)
        if rep.commutant_type != "C":
            continue
        assert sig.n % 2 == 1
        j, c = _conjugation(rep)
        assert j.perm.tolist() == list(range(rep.N))
        for g, sign in zip(rep.generators, c.tolist()):
            assert j * g == (g * j if sign == 1 else -(g * j)), str(sig)
        j1 = rep.commutant_basis[0]
        assert j * j1 == -(j1 * j), str(sig)
        checked += 1
    assert checked == 55


def _normalized(x):
    """x scaled to +1 at its lowest row-major cell, the walk's normalization."""
    return x if x.signs[(x.perm == 0).argmax()] == 1 else -x


def test_twisted_commutant_counts_and_disjoint_cells_on_seeded_chi():
    # every element meets its relation, no two share a cell, and there are
    # as many as the character counts: checked element by element for
    # chi = +1, -1 and three seeded draws on every rep with n <= 12, and
    # against the orbit walk's basis of X = chi_i G_i X G_i^T for n <= 8
    rng = random.Random(38)
    cases = 0
    for sig in all_signatures(12):
        rep = build_rep(sig)
        gens = rep.generators
        draws = [[1] * sig.n, [-1] * sig.n] + [[rng.choice((1, -1)) for _ in gens] for _ in range(3)]
        for chi in draws:
            basis = twisted_commutant(rep, chi)
            for x in basis:
                for c, g in zip(chi, gens):
                    assert x * g == (g * x if c == 1 else -(g * x)), (str(sig), chi)
            cells = [(row, col) for x in basis for col, row in enumerate(x.perm.tolist())]
            assert len(cells) == len(set(cells)), (str(sig), chi)
            assert len(basis) == character_dimension(gens, chi), (str(sig), chi)
            if sig.n <= 8:
                twisted = SignedPerm(gens.perm, gens.signs * np.array(chi)[:, None])
                walked = [from_cells(e, rep.N) for e in signed_relation_basis(twisted, gens)]
                assert len(walked) == len(basis), (str(sig), chi)
                assert {_normalized(x) for x in basis} == set(walked), (str(sig), chi)
            cases += 1
    assert cases == 5 * 90


def test_a_planted_conjugation_or_generator_sign_raises(monkeypatch):
    # (3,2) is of type C: a J with one sign flipped breaks the relation of
    # every element that carries it, and a copy of the rep with one sign
    # of G_1 flipped fails its relation table before any basis is built
    rep = build_rep(Signature(3, 2))
    assert rep.commutant_type == "C"
    chis = [list(x) for x in itertools.product((1, -1), repeat=rep.n)]
    j, c = _conjugation(rep)
    # the chi whose basis carries J: the sign rule with c fixes an S of
    # the right parity
    carries_j = [chi for chi in chis
                 if any(sum((-1) ** k * a * b == -1 for a, b in zip(c.tolist(), chi)) % 2 == k
                        for k in (0, 1))]
    with monkeypatch.context() as patch:
        patch.setattr(clifford_core, "_conjugation", lambda r: (flip_sign(j, (0,)), c))
        raised = []
        for chi in chis:
            try:
                twisted_commutant(rep, chi)
            except ArithmeticError as err:
                assert "fails its relation with generator" in str(err)
                raised.append(chi)
    assert raised == carries_j and 0 < len(raised) < len(chis)
    broken = dataclasses.replace(rep, generators=flip_sign(rep.generators, (1, 0)))
    for chi in chis:
        with pytest.raises(ArithmeticError, match=r"Clifford relation failed at \(\d,\d\) for \(3,2\)"):
            twisted_commutant(broken, chi)


def test_twisted_commutant_refuses_repeated_or_missing_elements():
    # a commutant basis that repeats Id makes two elements share every
    # cell, and one that drops the quaternion triple leaves the basis
    # short of the character count
    rep = build_rep(Signature(3, 0))
    assert rep.commutant_type == "H"
    chi = [1] * rep.n
    assert len(twisted_commutant(rep, chi)) == 4
    repeated = dataclasses.replace(rep, commutant_basis=SignedPerm.identity(rep.N)[None])
    with pytest.raises(ArithmeticError, match=r"twisted commutant elements of \(3,0\) share a cell"):
        twisted_commutant(repeated, chi)
    short = dataclasses.replace(rep, commutant_basis=rep.commutant_basis[:0])
    with pytest.raises(ArithmeticError, match=r"1 twisted commutant elements of \(3,0\) where the count is 4"):
        twisted_commutant(short, chi)
