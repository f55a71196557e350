import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.admissible_forms import find_admissible
from spinorlab.clifford_core import (
    Signature,
    build_rep,
    commutant_vectors,
    even_subalgebra_images,
)
from spinorlab.exact_linalg import (
    Matrix,
    SignedPerm,
    Echelon,
    clear_denominators,
    kernel,
    rank,
    signed_relation_basis,
)


def zero_matrix(rows, cols):
    return Matrix([[0] * cols for _ in range(rows)])


# Fraction-free (Bareiss) elimination with Fraction back-substitution: the
# slow oracle for the library's one elimination, Echelon, and for rank and
# kernel built on it (Bareiss, Math. Comp. 22 (1968)).


def bareiss_echelon(matrix: Matrix):
    """Fraction-free (Bareiss) row echelon form.

    Returns (rows, pivot_cols).  Pivots are chosen as the first nonzero
    entry scanning rows top-down within each column, columns left to
    right, so results are deterministic for identical input.
    """
    rows = [clear_denominators(r) for r in matrix.data]
    n_rows, n_cols = matrix.rows, matrix.cols
    pivot_cols = []
    piv_r = 0
    prev = 1
    for col in range(n_cols):
        sel = next((r for r in range(piv_r, n_rows) if rows[r][col]), None)
        if sel is None:
            continue
        rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        p = rows[piv_r][col]
        for r in range(piv_r + 1, n_rows):
            x = rows[r][col]
            row_r, row_p = rows[r], rows[piv_r]
            for c in range(col, n_cols):
                num, rem = divmod(p * row_r[c] - x * row_p[c], prev)
                assert not rem  # Bareiss division is exact over Z
                row_r[c] = num
        pivot_cols.append(col)
        prev = p
        piv_r += 1
        if piv_r == n_rows:
            break
    return rows[:piv_r], pivot_cols


def bareiss_rank(matrix: Matrix) -> int:
    return len(bareiss_echelon(matrix)[1])


def _div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def bareiss_kernel(matrix: Matrix) -> Matrix:
    """Normalized kernel basis by Fraction back-substitution on the Bareiss
    rows: Fraction(1) at the free variable, int 0 at the other free
    positions and Fraction at the pivots; an empty kernel is n x 0."""
    ech, pivots = bareiss_echelon(matrix)
    n_cols = matrix.cols
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        sol = [0] * n_cols
        sol[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = 0
            row = ech[r]
            for c in range(pc + 1, n_cols):
                if row[c] and sol[c]:
                    s = s + row[c] * sol[c]
            sol[pc] = _div(-s, row[pc]) if s else Fraction(0)
        basis.append(sol)
    if not basis:
        return Matrix([[] for _ in range(n_cols)])
    return Matrix.from_columns(basis)


def test_kernel_identity_empty():
    assert kernel(Matrix.identity(3)).cols == 0


def test_kernel_zero_map():
    k = kernel(zero_matrix(2, 3))
    assert k.cols == 3
    assert rank(k) == 3


def test_kernel_rank_one():
    m = Matrix([[1, 1], [2, 2]])
    k = kernel(m)
    assert k.cols == 1
    v = k.col(0)
    # proportional to (1, -1)
    assert v[0] == -v[1]
    assert (m * k).is_zero()


def test_rank_basics():
    assert rank(Matrix.identity(5)) == 5
    assert rank(zero_matrix(4, 6)) == 0
    outer = Matrix([[2 * b for b in (1, -1, 3)] for _ in range(1)])
    outer = Matrix([[a * b for b in (1, -1, 3)] for a in (2, 5, -1, 0)])
    assert rank(outer) == 1


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def small_matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    data = [[draw(small_entries) for _ in range(c)] for _ in range(r)]
    return Matrix(data)


@given(small_matrices())
@settings(max_examples=60)
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.transpose())


@given(small_matrices())
@settings(max_examples=60)
def test_rank_nullity(m):
    k = kernel(m)
    assert rank(m) + k.cols == m.cols
    if k.cols:
        assert (m * k).is_zero()
        assert rank(k) == k.cols


def test_fraction_entries():
    m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert rank(m) == 1
    k = kernel(m)
    assert (m * k).is_zero()


def test_integral_fraction_rows_eliminate_over_int():
    ints = [[2, 4, 6, 1], [1, 3, 5, 0], [3, 7, 11, 1]]  # rank 2
    as_fractions = Matrix([[Fraction(x) for x in row] for row in ints])
    halves = Matrix([[Fraction(x, 2) for x in row] for row in ints])
    for m in (as_fractions, halves):
        echelon = Echelon()
        assert [echelon.add(row) for row in m.data] == [True, True, False]
        assert [p for p, _ in echelon.rows] == [0, 1]
        assert all(type(x) is int for _, row in echelon.rows for x in row)
    want = kernel(Matrix(ints))
    for m in (as_fractions, halves):
        k = kernel(m)
        assert k == want and k.cols == 2
        assert [[type(x) for x in row] for row in k.data] == [
            [type(x) for x in row] for row in want.data
        ]


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Dense Kronecker product, the oracle for SignedPerm.kron."""
    out = [
        [0] * (a.cols * b.cols) for _ in range(a.rows * b.rows)
    ]
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.data[i][j]
            if not x:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    y = b.data[k][l]
                    if y:
                        out[i * b.rows + k][j * b.cols + l] = x * y
    return Matrix(out)


@pytest.mark.parametrize("bad", [0.5, 1j, np.int64(3)], ids=["float", "complex", "int64"])
def test_elimination_rejects_non_rational_entries(bad):
    # elimination runs over Z after clearing int/Fraction denominators;
    # any other scalar is refused by name rather than computed with
    name = type(bad).__name__
    m = Matrix([[1, 2], [bad, 4]])
    for call in (rank, kernel):
        with pytest.raises(TypeError, match=name):
            call(m)
    for seed in ([], [[1, 2]], [[1, 2], [0, 1]]):  # empty, partial, full rank
        echelon = Echelon(seed)
        with pytest.raises(TypeError, match=name):
            echelon.add([3, bad])


def test_kron_shapes():
    a = Matrix([[1, 2], [0, 1]])
    b = Matrix([[0, -1], [1, 0]])
    ab = kron(a, b)
    assert ab.rows == 4 and ab.cols == 4
    assert ab[0, 1] == -1 and ab[0, 3] == -2


def test_column_space_basis():
    # the columns an Echelon accepts in order are the Bareiss pivot columns
    m = Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    echelon = Echelon()
    assert [echelon.add(c) for c in m.columns()] == [True, False, True]
    assert bareiss_echelon(m)[1] == [0, 2]
    assert len(echelon) == rank(m) == bareiss_rank(m) == 2


def _maps(n_cells, relations):
    """Signed cell maps from (cell, target, sign) triples; cells that no
    triple names map to themselves with sign +1."""
    target, sign = list(range(n_cells)), [1] * n_cells
    for a, b, s in relations:
        target[a], sign[a] = b, s
    return [(target, sign)]


def test_signed_relations_simple():
    # x0 == x1, x1 == -x2, x2 == -x0: one orbit (1, 1, -1)
    basis = signed_relation_basis(3, _maps(3, [(0, 1, 1), (1, 2, -1), (2, 0, -1)]))
    assert basis == [[1, 1, -1]]


def test_signed_relations_contradiction():
    # x0 == x1 and x1 == -x0
    basis = signed_relation_basis(2, _maps(2, [(0, 1, 1), (1, 0, -1)]))
    assert basis == []


def test_signed_relations_self_negative():
    basis = signed_relation_basis(2, _maps(2, [(0, 0, -1)]))
    assert basis == [[0, 1]]


def _random_maps(rng, n_cells, n_maps):
    """Random signed bijections; about a third of the cells of each are
    fixed points, a quarter of all signs -1."""
    maps = []
    for _ in range(n_maps):
        moved = [c for c in range(n_cells) if rng.random() < 0.67]
        shuffled = moved[:]
        rng.shuffle(shuffled)
        target = list(range(n_cells))
        for a, b in zip(moved, shuffled):
            target[a] = b
        sign = [rng.choice([1, 1, 1, -1]) for _ in range(n_cells)]
        maps.append((target, sign))
    return maps


def test_signed_relations_match_dense_kernel():
    # the orbit solver must agree with the dense kernel of the
    # equivalent constraint matrix
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 8)
        maps = _random_maps(rng, n, rng.randint(1, 3))
        rows = []
        for target, sign in maps:
            for c in range(n):
                row = [0] * n
                row[c] += 1
                row[target[c]] -= sign[c]
                rows.append(row)
        basis = signed_relation_basis(n, maps)
        assert len(basis) == kernel(Matrix(rows)).cols
        for vec in basis:
            assert (Matrix(rows) * Matrix.from_columns([vec])).is_zero()


class SignedUnionFind:
    """Union-find over cells with +-1 relative signs: the solver the
    orbit walk replaced, kept as its oracle.

    Supports relations cell_a == sign * cell_b; a contradictory cycle
    forces the whole component to zero.
    """

    def __init__(self, n):
        self.parent = list(range(n))
        self.sign = [1] * n
        self.dead = [False] * n

    def find(self, a):
        path = []
        node = a
        while self.parent[node] != node:
            path.append(node)
            node = self.parent[node]
        root = node
        cum = 1
        for node in reversed(path):
            cum = self.sign[node] * cum
            self.parent[node] = root
            self.sign[node] = cum
        return root, (cum if path else 1)

    def union(self, a, b, rel_sign):
        ra, sa = self.find(a)
        rb, sb = self.find(b)
        if ra == rb:
            if sa != rel_sign * sb:
                self.dead[ra] = True
            return
        self.parent[rb] = ra
        self.sign[rb] = sa * rel_sign * sb
        if self.dead[rb]:
            self.dead[ra] = True

    def kill(self, a):
        ra, _ = self.find(a)
        self.dead[ra] = True

    def components(self):
        """Map root -> list of (cell, sign) for surviving components."""
        out = {}
        for c in range(len(self.parent)):
            r, s = self.find(c)
            if self.dead[r]:
                continue
            out.setdefault(r, []).append((c, s))
        return out


def _union_find_basis(n_cells, relations):
    """The two-term relation solver the orbit walk replaced: relations
    are (a, b, sign) triples for x_a == sign * x_b."""
    uf = SignedUnionFind(n_cells)
    for a, b, s in relations:
        if a == b:
            if s == -1:
                uf.kill(a)
            continue
        uf.union(a, b, s)
    comps = uf.components()
    basis = []
    for cells in comps.values():
        cells.sort()
        first_cell, first_sign = cells[0]
        vec = [0] * n_cells
        for cell, s in cells:
            vec[cell] = s * first_sign  # normalize: first cell -> +1
        basis.append((first_cell, vec))
    basis.sort()
    return [vec for _, vec in basis]


def _monomial_relations(pairs, N, c=1):
    """The relation tuples the orbit walk replaced: L^T X = c X R on
    N x N matrices X, one block per pair (L, R) of signed permutations."""
    relations = []
    for left, right in pairs:
        (lp, ls), (rp, rs) = (left.perm, left.signs), (right.perm, right.signs)
        for r in range(N):
            for s in range(N):
                relations.append((lp[r] * N + s, r * N + rp[s], c * ls[r] * rs[s]))
    return relations


def _matrices(vectors, N):
    return [Matrix([v[r * N : (r + 1) * N] for r in range(N)]) for v in vectors]


def test_orbit_solver_matches_union_find_on_reps():
    for n in range(1, 8):
        for p in range(n + 1):
            rep = build_rep(Signature(p, n - p))
            gens, N = rep.generators, rep.N
            pairs = [(g.transpose(), g) for g in gens]
            want = _union_find_basis(N * N, _monomial_relations(pairs, N))
            assert commutant_vectors(gens, N) == want, (p, n - p)
            for sigma in (1, -1):
                for tau in (1, -1):
                    rels = _monomial_relations([(g, g) for g in gens], N, tau)
                    for r in range(N):
                        for s in range(r, N):
                            rels.append((r * N + s, s * N + r, sigma))
                    want = _matrices(_union_find_basis(N * N, rels), N)
                    got = [f.matrix.dense() for f in find_admissible(rep, sigma, tau)]
                    assert got == want, (p, n - p, sigma, tau)
            if p >= 1 and n >= 2:
                images = even_subalgebra_images(rep)
                pairs = [(g.transpose(), g) for g in images]
                want = _union_find_basis(N * N, _monomial_relations(pairs, N))
                assert commutant_vectors(images, N) == want, (p, n - p)


def test_orbit_solver_matches_union_find_on_random_maps():
    rng = random.Random(5)
    conflicts = negative_fixed = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        maps = _random_maps(rng, n, rng.randint(1, 3))
        rels = [
            (c, target[c], sign[c]) for target, sign in maps for c in range(n)
        ]
        want = _union_find_basis(n, rels)
        assert signed_relation_basis(n, maps) == want
        has_negative_fixed = any(a == b and s == -1 for a, b, s in rels)
        negative_fixed += has_negative_fixed
        orbits = _union_find_basis(n, [(a, b, 1) for a, b, _ in rels])
        conflicts += len(want) < len(orbits) and not has_negative_fixed
    # both ways an orbit dies occur among the seeded systems
    assert conflicts >= 20 and negative_fixed >= 20


# every differential search below draws this many examples
DIFFERENTIAL = settings(max_examples=150)


@st.composite
def signed_bijection_systems(draw):
    """1 to 12 cells and 1 to 3 signed bijections of them."""
    n = draw(st.integers(min_value=1, max_value=12))
    signs = st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)
    n_maps = draw(st.integers(min_value=1, max_value=3))
    return n, [(draw(st.permutations(range(n))), draw(signs)) for _ in range(n_maps)]


@given(signed_bijection_systems())
@DIFFERENTIAL
def test_orbit_solver_matches_union_find_on_drawn_maps(system):
    n, maps = system
    rels = [(c, target[c], sign[c]) for target, sign in maps for c in range(n)]
    assert signed_relation_basis(n, maps) == _union_find_basis(n, rels)


# SignedPerm against the dense product it replaced: every operation is
# compared with the same operation on dense() matrices.  Values must
# match always; entry types must match when the dense operand is all int.
# A gather keeps a Fraction(0) entry of its Matrix operand where the dense
# product writes int 0, and a column gather keeps Fraction(1) where the
# dense product writes int 1, so types are compared only for int input.


@st.composite
def signed_perms(draw, n=None):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()) and draw(st.booleans()):  # +-Id a quarter of the time
        return SignedPerm(tuple(range(n)), (draw(st.sampled_from((1, -1))),) * n)
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return SignedPerm(tuple(perm), tuple(signs))


@st.composite
def perm_pairs(draw):
    a = draw(signed_perms())
    return a, draw(signed_perms(len(a.perm)))


exact_entries = st.one_of(
    small_entries,
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


def _types(m):
    return [[type(x) for x in row] for row in m.data]


def _all_int(m):
    return all(type(x) is int for row in m.data for x in row)


@given(perm_pairs())
@DIFFERENTIAL
def test_signed_perm_compose_matches_dense(pair):
    a, b = pair
    got, want = (a * b).dense(), a.dense() * b.dense()
    assert got == want
    assert _types(got) == _types(want)
    assert (a == b) == (a.dense() == b.dense())


@given(signed_perms())
@DIFFERENTIAL
def test_signed_perm_transpose_and_negation_match_dense(a):
    assert a.transpose().dense() == a.dense().transpose()
    assert (-a).dense() == -a.dense()
    assert a * a.transpose() == SignedPerm.identity(len(a.perm))


@given(signed_perms(), signed_perms())
@DIFFERENTIAL
def test_signed_perm_kron_matches_dense(a, b):
    assert a.kron(b).dense() == kron(a.dense(), b.dense())


@given(signed_perms())
@DIFFERENTIAL
def test_signed_perm_scalar_check_matches_dense(a):
    for m in (a, a * a):
        assert m.is_scalar_multiple_of_identity() == m.dense().is_scalar_multiple_of_identity()


@given(signed_perms(), st.integers(min_value=1, max_value=4), st.booleans(), st.data())
@DIFFERENTIAL
def test_signed_perm_matrix_products_match_dense(a, k, int_only, data):
    n = len(a.perm)
    entries = small_entries if int_only else exact_entries
    left = Matrix([[data.draw(entries) for _ in range(k)] for _ in range(n)])
    right = Matrix([[data.draw(entries) for _ in range(n)] for _ in range(k)])
    for got, want, operand in ((a * left, a.dense() * left, left),
                               (right * a, right * a.dense(), right)):
        assert isinstance(got, Matrix)
        assert got == want
        if _all_int(operand):
            assert _types(got) == _types(want)


# rank and kernel against the Bareiss oracle.  The normalized kernel basis
# depends only on the row space, so values and entry types must match:
# Fraction(1) at the free variable, int 0 at the other free positions and
# Fraction at the pivots, whatever the order in which the rows are fed.

def _assert_kernel_matches_oracle(m):
    got, want = kernel(m), bareiss_kernel(m)
    assert got == want and (got.rows, got.cols) == (want.rows, want.cols)
    assert _types(got) == _types(want)
    assert rank(m) == bareiss_rank(m) == m.cols - want.cols


huge_entries = st.one_of(
    st.integers(-3, 3),
    st.integers(2**31, 2**64),
    st.integers(-(2**64), -(2**31)),
)


@st.composite
def planted_rank_matrices(draw, entries=huge_entries):
    """L R with inner dimension r < min(rows, cols) most of the time."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 7))
    r = draw(st.integers(0, min(rows, cols)))
    left = [[draw(entries) for _ in range(r)] for _ in range(rows)]
    right = [[draw(st.integers(-4, 4)) for _ in range(cols)] for _ in range(r)]
    return Matrix([[sum(a * b for a, b in zip(lrow, rcol)) for rcol in zip(*right)] if r else [0] * cols
                   for lrow in left])


@given(planted_rank_matrices())
@DIFFERENTIAL
def test_kernel_matches_fraction_back_substitution_on_large_ints(m):
    _assert_kernel_matches_oracle(m)


@given(planted_rank_matrices(), st.randoms(use_true_random=False))
@DIFFERENTIAL
def test_echelon_kernel_ignores_row_order(m, rng):
    shuffled = list(m.data)
    rng.shuffle(shuffled)
    got, want = Echelon(shuffled).kernel(m.cols), bareiss_kernel(m)
    assert got == want and (got.rows, got.cols) == (want.rows, want.cols)
    assert _types(got) == _types(want)


@given(planted_rank_matrices(), st.data())
@DIFFERENTIAL
def test_kernel_matches_fraction_back_substitution_on_fractions(m, data):
    # D1 M D2 with rational diagonals keeps the planted rank
    row_scale = [data.draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))) for _ in range(m.rows)]
    col_scale = [data.draw(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))) for _ in range(m.cols)]
    scaled = Matrix([[a * x * b for x, b in zip(row, col_scale)] for a, row in zip(row_scale, m.data)])
    _assert_kernel_matches_oracle(scaled)


def test_kernel_back_substitution_fixed_cases():
    big = 2**40 + 3
    cases = [
        Matrix([[big, 2 * big, 1], [3, 6, big]]),
        Matrix([[Fraction(1, 3), Fraction(2, 7), 0], [Fraction(2, 3), Fraction(4, 7), 0]]),
        zero_matrix(2, 3),
    ]
    for m in cases:
        _assert_kernel_matches_oracle(m)
        assert (m * kernel(m)).is_zero()


_rationals = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
)


@st.composite
def planted_sequences(draw):
    """Vectors of length 1 to 6, each drawn fresh (int or Fraction entries)
    or planted as a rational combination of earlier ones; zero vectors and
    repeats occur."""
    length = draw(st.integers(min_value=1, max_value=6))
    vectors = []
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        if vectors and draw(st.booleans()):
            coeffs = [draw(_rationals) for _ in vectors]
            vectors.append(
                [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(length)]
            )
        else:
            vectors.append(draw(st.lists(_rationals, min_size=length, max_size=length)))
    return vectors


@given(planted_sequences())
@DIFFERENTIAL
def test_echelon_accepts_exactly_where_the_bareiss_rank_grows(vectors):
    echelon = Echelon()
    ranks = [0] + [bareiss_rank(Matrix.from_columns(vectors[: k + 1])) for k in range(len(vectors))]
    for k, vector in enumerate(vectors):
        before = [(p, list(row)) for p, row in echelon.rows]
        accepted = echelon.add(vector)
        assert accepted == (ranks[k + 1] > ranks[k])
        if not accepted:
            assert echelon.rows == before  # a rejected vector changes nothing
        assert len(echelon) == ranks[k + 1]
