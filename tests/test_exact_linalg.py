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
    column_space_basis,
    kernel,
    rank,
    _echelonize,
    signed_relation_basis,
    solve,
)


def test_kernel_identity_empty():
    assert kernel(Matrix.identity(3)).cols == 0


def test_kernel_zero_map():
    k = kernel(Matrix.zero(2, 3))
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


def test_solve_identity():
    assert solve(Matrix.identity(2), [5, 7]) == [5, 7]


def test_solve_half():
    assert solve(Matrix([[2]]), [1]) == [Fraction(1, 2)]


def test_solve_inconsistent():
    assert solve(Matrix([[1], [1]]), [0, 1]) is None


def test_rank_basics():
    assert rank(Matrix.identity(5)) == 5
    assert rank(Matrix.zero(4, 6)) == 0
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


@given(small_matrices(max_dim=4), st.data())
@settings(max_examples=60)
def test_solve_roundtrip(m, data):
    x = [data.draw(small_entries) for _ in range(m.cols)]
    rhs = [sum(m[i, j] * x[j] for j in range(m.cols)) for i in range(m.rows)]
    sol = solve(m, rhs)
    assert sol is not None
    out = [sum(m[i, j] * sol[j] for j in range(m.cols)) for i in range(m.rows)]
    assert out == [Fraction(r) for r in rhs]


def test_fraction_entries():
    m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert rank(m) == 1
    k = kernel(m)
    assert (m * k).is_zero()


def test_integral_fraction_rows_eliminate_over_int():
    from spinorlab.exact_linalg import _echelonize

    ints = [[2, 4, 6, 1], [1, 3, 5, 0], [3, 7, 11, 1]]  # rank 2
    as_fractions = Matrix([[Fraction(x) for x in row] for row in ints])
    halves = Matrix([[Fraction(x, 2) for x in row] for row in ints])
    for m in (as_fractions, halves):
        rows, pivots = _echelonize(m)
        assert pivots == [0, 1]
        assert all(type(x) is int for row in rows for x in row)
    want = kernel(Matrix(ints))
    for m in (as_fractions, halves):
        k = kernel(m)
        assert k == want and k.cols == 2
        assert [[type(x) for x in row] for row in k.data] == [
            [type(x) for x in row] for row in want.data
        ]
    sol = solve(as_fractions, [Fraction(1), Fraction(1), Fraction(2)])
    assert sol == solve(Matrix(ints), [1, 1, 2])
    assert all(type(x) is Fraction for x in sol)


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
    for call in (rank, kernel, lambda m: solve(m, [1, 2])):
        with pytest.raises(TypeError, match=name):
            call(m)
    with pytest.raises(TypeError, match=name):
        solve(Matrix([[1, 2], [3, 4]]), [1, bad])


def test_kron_shapes():
    a = Matrix([[1, 2], [0, 1]])
    b = Matrix([[0, -1], [1, 0]])
    ab = kron(a, b)
    assert ab.rows == 4 and ab.cols == 4
    assert ab[0, 1] == -1 and ab[0, 3] == -2


def test_column_space_basis():
    m = Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    b = column_space_basis(m)
    assert b.cols == 2
    assert rank(b) == 2


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
            assert (Matrix(rows) * Matrix.column(vec)).is_zero()


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


# kernel and solve against the Fraction back-substitutions they replaced.
# The oracles run on the same echelon rows, so values and entry types must
# match: for kernel, Fraction(1) at the free variable, int 0 at the other
# free positions and Fraction at the pivots; for solve, Fraction(0) at the
# free positions.

def _div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def _fraction_back_substitution(matrix):
    ech, pivots = _echelonize(matrix)
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
    return basis


def _fraction_solve(matrix, rhs):
    ech, pivots = _echelonize(matrix.hstack(Matrix.column(list(rhs))))
    n = matrix.cols
    if n in pivots:
        return None
    sol = [Fraction(0)] * n
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        row = ech[r]
        s = row[n]
        for c in range(pc + 1, n):
            if row[c] and sol[c]:
                s = s - row[c] * sol[c]
        sol[pc] = _div(s, row[pc]) if s else Fraction(0)
    return sol


def _assert_kernel_matches_oracle(m):
    got = kernel(m).columns()
    want = _fraction_back_substitution(m)
    assert got == want
    assert [[type(x) for x in col] for col in got] == [[type(x) for x in col] for col in want]
    # a consistent right-hand side (a column of m) and an often inconsistent one
    for rhs in (m.col(m.cols - 1), [row[0] + i for i, row in enumerate(m.data)]):
        got, want = solve(m, rhs), _fraction_solve(m, rhs)
        assert got == want
        if want is not None:
            assert [type(x) for x in got] == [type(x) for x in want]


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
        Matrix.zero(2, 3),
    ]
    for m in cases:
        _assert_kernel_matches_oracle(m)
        assert (m * kernel(m)).is_zero()
