import random
from fractions import Fraction

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
    GaussianRational,
    I_UNIT,
    Matrix,
    SignedPerm,
    column_space_basis,
    kernel,
    kron,
    rank,
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
@settings(max_examples=60, deadline=None)
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.transpose())


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    k = kernel(m)
    assert rank(m) + k.cols == m.cols
    if k.cols:
        assert (m * k).is_zero()
        assert rank(k) == k.cols


@given(small_matrices(max_dim=4), st.data())
@settings(max_examples=60, deadline=None)
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


def test_gaussian_rational_arithmetic():
    z = GaussianRational(1, 2)
    w = GaussianRational(3, -1)
    assert z * w == GaussianRational(5, 5)
    assert (z / w) * w == z
    assert I_UNIT * I_UNIT == GaussianRational(-1, 0)
    assert z + 1 == GaussianRational(2, 2)


def test_complex_kernel():
    # x + i*y = 0 has kernel spanned by (i, 1) up to scale
    m = Matrix([[GaussianRational(1), I_UNIT]])
    k = kernel(m)
    assert k.cols == 1
    assert (m * k).is_zero()


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
                    got = [f.matrix for f in find_admissible(rep, sigma, tau)]
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


# SignedPerm against the dense product it replaced: every operation is
# compared with the same operation on dense() matrices.  Values must
# match always; entry types must match when the dense operand is all int.
# A gather keeps a Fraction(0) entry of its Matrix operand where the dense
# product writes int 0, and a column gather keeps Fraction(1) where the
# dense product writes int 1, so types are compared only for int input.

DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True, database=None)


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
