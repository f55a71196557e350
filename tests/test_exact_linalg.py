import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import admissible_forms, exact_linalg
from spinorlab.admissible_forms import find_admissible
from spinorlab.clifford_core import (
    Signature,
    build_rep,
    even_subalgebra_images,
)
from spinorlab.exact_linalg import (
    SignedPerm,
    Echelon,
    apply_terms,
    clear_denominators,
    full_rank_mod_p,
    signed_relation_basis,
    term_rows,
)
from dense_oracle import (
    Matrix,
    dense,
    dense_cells,
    dense_scalar,
    is_zero,
    kernel,
    kron,
    matrix_kernel,
    primitive,
    rank,
    terms_dense,
    zero_matrix,
)


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
    return Matrix.from_columns(basis, n_cols)


def test_kernel_identity_empty():
    assert kernel(Matrix.identity(3).data, 3) == []


def test_kernel_zero_map():
    k = kernel(zero_matrix(2, 3).data, 3)
    assert len(k) == 3
    assert rank(k) == 3


def test_kernel_rank_one():
    m = Matrix([[1, 1], [2, 2]])
    (v,) = kernel(m.data, 2)
    # proportional to (1, -1)
    assert v[0] == -v[1]
    assert is_zero(m * Matrix.from_columns([v]))


def test_rank_basics():
    assert rank(Matrix.identity(5).data) == 5
    assert rank(zero_matrix(4, 6).data) == 0
    outer = Matrix([[a * b for b in (1, -1, 3)] for a in (2, 5, -1, 0)])
    assert rank(outer.data) == 1
    assert rank(outer.columns()) == 1  # a list of columns has the same rank


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
    assert rank(m.data) == rank(m.transpose().data) == rank(m.columns())


@given(small_matrices())
@settings(max_examples=60)
def test_rank_nullity(m):
    k = matrix_kernel(m)
    assert rank(m.data) + k.cols == m.cols
    if k.cols:
        assert is_zero(m * k)
        assert rank(k.data) == k.cols


def test_fraction_entries():
    m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert rank(m.data) == 1
    k = matrix_kernel(m)
    assert is_zero(m * k)


def test_integral_fraction_rows_eliminate_over_int():
    ints = [[2, 4, 6, 1], [1, 3, 5, 0], [3, 7, 11, 1]]  # rank 2
    as_fractions = Matrix([[Fraction(x) for x in row] for row in ints])
    halves = Matrix([[Fraction(x, 2) for x in row] for row in ints])
    for m in (as_fractions, halves):
        echelon = Echelon()
        assert [echelon.add(row) for row in m.data] == [True, True, False]
        assert [p for p, _ in echelon.rows] == [0, 1]
        assert all(type(x) is int for _, row in echelon.rows for x in row)
    want = matrix_kernel(Matrix(ints))
    for m in (as_fractions, halves):
        k = matrix_kernel(m)
        assert k == want and k.cols == 2
        assert [[type(x) for x in row] for row in k.data] == [
            [type(x) for x in row] for row in want.data
        ]


@pytest.mark.parametrize("bad", [0.5, 1j, np.int64(3)], ids=["float", "complex", "int64"])
def test_elimination_rejects_non_rational_entries(bad):
    # elimination runs over Z after clearing int/Fraction denominators;
    # any other scalar is refused by name rather than computed with
    name = type(bad).__name__
    m = Matrix([[1, 2], [bad, 4]])
    for call in (lambda: rank(m.data), lambda: kernel(m.data, 2), lambda: rank(m.columns())):
        with pytest.raises(TypeError, match=name):
            call()
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
    assert len(echelon) == rank(m.data) == bareiss_rank(m) == 2


ID2 = SignedPerm.identity(2)


def _solve(N, pairs, c=1, sigma=None):
    """signed_relation_basis on the (k, N) left and right stacks of a
    list of (L, R) pairs of N x N signed permutations, k >= 0."""
    none = SignedPerm.identity(N)[None][:0]
    left = SignedPerm.concat([none, *(l for l, _ in pairs)])
    return signed_relation_basis(left, SignedPerm.concat([none, *(r for _, r in pairs)]), c, sigma)


def test_signed_relations_simple():
    # X = X R^T reads X[a, 0] == X[a, 1], X[a, 1] == -X[a, 2] and
    # X[a, 2] == -X[a, 0] on every row a: one orbit (1, 1, -1) per row
    chain = SignedPerm((1, 2, 0), (1, -1, -1))
    basis = signed_relation_basis(SignedPerm.identity(3)[None], chain[None])
    assert basis == [{0: (a, 1), 1: (a, 1), 2: (a, -1)} for a in range(3)]


def test_signed_relations_contradiction():
    # X[a, 0] == X[a, 1] and X[a, 1] == -X[a, 0]
    assert _solve(2, [(ID2, SignedPerm((1, 0), (1, -1)))]) == []


def test_signed_relations_self_negative():
    # X[a, 0] == -X[a, 0]; column 1 is free, one cell per row
    basis = _solve(2, [(ID2, SignedPerm((0, 1), (-1, 1)))])
    assert basis == [{1: (0, 1)}, {1: (1, 1)}]


def test_signed_relations_transposition_move():
    # X^T = -X: the diagonal dies, and X[1, 0] == -X[0, 1]
    assert _solve(2, [], sigma=-1) == [{1: (0, 1), 0: (1, -1)}]
    # with no relation at all, every cell is its own orbit, row-major
    assert _solve(2, []) == [{s: (a, 1)} for a in range(2) for s in range(2)]


def test_signed_relations_reject_two_rows_in_a_column():
    # X = L X with L the row swap: X[0, s] == X[1, s] survives with two rows
    swap = SignedPerm((1, 0), (1, 1))
    with pytest.raises(ArithmeticError, match="two rows in column 0"):
        _solve(2, [(swap, ID2)])
    # with a sign clash the orbit dies instead, and nothing is left to raise on
    assert _solve(2, [(SignedPerm((1, 0), (1, -1)), ID2)]) == []


def _random_signed_perm(rng, N):
    """About a third of the points fixed, a quarter of all signs -1; the
    fixed points give R's with more than one column orbit."""
    moved = [c for c in range(N) if rng.random() < 0.67]
    shuffled = moved[:]
    rng.shuffle(shuffled)
    perm = list(range(N))
    for a, b in zip(moved, shuffled):
        perm[a] = b
    return SignedPerm(tuple(perm), tuple(rng.choice([1, 1, 1, -1]) for _ in range(N)))


def _random_pair_system(rng):
    """(N, pairs, c, sigma): 1 to 3 pairs of 1 to 5 point signed
    permutations, R = L, R = L^T or an independent R, and the
    transposition move two thirds of the time."""
    N = rng.randint(1, 5)
    pairs = []
    for _ in range(rng.randint(1, 3)):
        left = _random_signed_perm(rng, N)
        right = rng.choice([left, left.transpose(), _random_signed_perm(rng, N)])
        pairs.append((left, right))
    return N, pairs, rng.choice([1, -1]), rng.choice([None, 1, -1])


def _relation_rows(N, pairs, c, sigma):
    """The equations X - c L X R^T = 0 and X - sigma X^T = 0 over the
    row-major cells of X, one row per cell (a, s), from dense matrices."""
    rows = []
    for left, right in pairs:
        lm, rm = dense(left), dense(right)
        for a in range(N):
            for s in range(N):
                row = [-c * lm[a, k] * rm[s, m] for k in range(N) for m in range(N)]
                row[a * N + s] += 1
                rows.append(row)
    if sigma is not None:
        for a in range(N):
            for s in range(N):
                row = [0] * (N * N)
                row[a * N + s] += 1
                row[s * N + a] -= sigma
                rows.append(row)
    return rows


def test_signed_relations_match_dense_kernel():
    # every basis element the orbit solver returns solves the dense
    # constraint matrix, and together they span its kernel
    rng = random.Random(11)
    solved = raised = 0
    for _ in range(60):
        N, pairs, c, sigma = _random_pair_system(rng)
        constraints = Matrix(_relation_rows(N, pairs, c, sigma))
        try:
            basis = _solve(N, pairs, c, sigma)
        except ArithmeticError:
            raised += 1
            continue
        solved += 1
        assert len(basis) == len(kernel(constraints.data, N * N))
        for element in basis:
            flat = [x for row in dense_cells(element, N).data for x in row]
            assert is_zero(constraints * Matrix.from_columns([flat]))
    assert solved >= 20 and raised >= 5


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
        lp, ls = left.perm.tolist(), left.signs.tolist()
        rp, rs = right.perm.tolist(), right.signs.tolist()
        for r in range(N):
            for s in range(N):
                relations.append((lp[r] * N + s, r * N + rp[s], c * ls[r] * rs[s]))
    return relations


def _pair_relations(N, pairs, c=1, sigma=None):
    """X = c L X R^T as L^T X = c X R^T, and X^T = sigma X, as relation
    triples over the N^2 row-major cells."""
    relations = _monomial_relations([(l, r.transpose()) for l, r in pairs], N, c)
    if sigma is not None:
        relations += [(a * N + s, s * N + a, sigma) for a in range(N) for s in range(N)]
    return relations


def _union_find_solution(N, pairs, c=1, sigma=None):
    """signed_relation_basis by union-find over the N^2 cells.  Each
    vector becomes {column: (row, sign)}; a vector with two rows in one
    column raises ArithmeticError, as the walk does."""
    basis = []
    for vec in _union_find_basis(N * N, _pair_relations(N, pairs, c, sigma)):
        element = {}
        for cell, x in enumerate(vec):
            if x:
                row, col = divmod(cell, N)
                if col in element:
                    raise ArithmeticError("two rows in one column")
                element[col] = (row, x)
        basis.append(element)
    return basis


def _outcome(solver, *system):
    try:
        return solver(*system)
    except ArithmeticError:
        return "raises"


def test_orbit_solver_matches_union_find_on_reps():
    for n in range(1, 8):
        for p in range(n + 1):
            rep = build_rep(Signature(p, n - p))
            gens, N = rep.generators, rep.N
            pairs = [(g, g) for g in gens]
            assert _solve(N, pairs) == _union_find_solution(N, pairs), (p, n - p)
            for sigma in (1, -1):
                for tau in (1, -1):
                    system = (N, [(g, g.transpose()) for g in gens], tau, sigma)
                    want = [dense_cells(e, N) for e in _union_find_solution(*system)]
                    got = [dense(f.matrix) for f in find_admissible(rep, sigma, tau)]
                    assert got == want, (p, n - p, sigma, tau)
                    assert admissible_forms.admissible_dimension(rep, sigma, tau) == len(want), (p, n - p, sigma, tau)
            if p >= 1 and n >= 2:
                pairs = [(g, g) for g in even_subalgebra_images(rep)]
                assert _solve(N, pairs) == _union_find_solution(N, pairs), (p, n - p)


def _column_orbits(N, pairs):
    return len(_union_find_basis(N, [(s, r.perm.tolist()[s], 1) for _, r in pairs for s in range(N)]))


def test_orbit_solver_matches_union_find_on_random_maps():
    rng = random.Random(5)
    seen = dict.fromkeys(
        ("solved", "raised", "clash", "negative_fixed", "split_columns", "transposed"), 0
    )
    for _ in range(300):
        system = _random_pair_system(rng)
        want = _outcome(_union_find_solution, *system)
        assert _outcome(_solve, *system) == want, system
        N, pairs, c, sigma = system
        seen["raised" if want == "raises" else "solved"] += 1
        rels = _pair_relations(*system)
        orbits = _union_find_basis(N * N, [(a, b, 1) for a, b, _ in rels])
        cycles = [(a, b, s) for a, b, s in rels if a != b]
        seen["negative_fixed"] += any(a == b and s == -1 for a, b, s in rels)
        seen["clash"] += len(_union_find_basis(N * N, cycles)) < len(orbits)
        seen["split_columns"] += _column_orbits(N, pairs) > 1
        seen["transposed"] += sigma is not None
    # each way a walk ends, and each kind of system, occurs among the seeded draws
    assert min(seen.values()) >= 20, seen


# every differential search below draws this many examples
DIFFERENTIAL = settings(max_examples=150)


@st.composite
def signed_pair_systems(draw):
    """1 to 5 points, 1 to 3 pairs (L, R) with R = L, R = L^T or an
    independent R, a sign c and maybe the transposition move."""
    N = draw(st.integers(min_value=1, max_value=5))
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        left = draw(signed_perms(N))
        right = draw(st.sampled_from([left, left.transpose(), draw(signed_perms(N))]))
        pairs.append((left, right))
    return N, pairs, draw(st.sampled_from([1, -1])), draw(st.sampled_from([None, 1, -1]))


@given(signed_pair_systems())
@DIFFERENTIAL
def test_orbit_solver_matches_union_find_on_drawn_maps(system):
    assert _outcome(_solve, *system) == _outcome(_union_find_solution, *system)


# SignedPerm against the dense product it replaced: every operation is
# compared with the same operation on dense() matrices.  Values must
# match always; entry types must match when the dense operand is all int.
# apply keeps a Fraction(0) entry of its vector where the dense product
# writes int 0, so types are compared only for int input.


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
    got, want = dense(a * b), dense(a) * dense(b)
    assert got == want
    assert _types(got) == _types(want)
    assert (a == b) == (dense(a) == dense(b))


@given(signed_perms())
@DIFFERENTIAL
def test_signed_perm_transpose_and_negation_match_dense(a):
    assert dense(a.transpose()) == dense(a).transpose()
    assert dense(-a) == -dense(a)
    assert a * a.transpose() == SignedPerm.identity(len(a.perm))


@given(signed_perms(), signed_perms())
@DIFFERENTIAL
def test_signed_perm_kron_matches_dense(a, b):
    assert dense(a.kron(b)) == kron(dense(a), dense(b))


@given(signed_perms())
@DIFFERENTIAL
def test_signed_perm_scalar_check_matches_dense(a):
    for m in (a, a * a):
        assert (m.scalar() or None) == dense_scalar(dense(m))


@st.composite
def element_lists(draw):
    """Two lists of 1 to 4 signed permutations of one size."""
    n = draw(st.integers(min_value=1, max_value=5))
    return tuple(draw(st.lists(signed_perms(n), min_size=1, max_size=4)) for _ in range(2))


@given(element_lists())
@DIFFERENTIAL
def test_signed_perm_stacks_act_element_by_element(lists):
    # a stack's operations broadcast over its leading axes, and each of
    # its elements is the one the single-element operation gives
    a, b = lists
    sa, sb = SignedPerm.concat(a), SignedPerm.concat(b)
    assert len(sa) == len(a) and list(sa) == a
    table = sa[:, None] * sb[None]
    assert table.perm.shape == (len(a), len(b), sa.N)
    assert [list(row) for row in table] == [[x * y for y in b] for x in a]
    assert list(sa * b[0]) == [x * b[0] for x in a]
    assert list(b[0] * sa) == [b[0] * x for x in a]
    assert list(sa.transpose()) == [x.transpose() for x in a]
    assert list(-sa) == [-x for x in a]
    kron_table = sa[:, None].kron(sb)
    assert [list(row) for row in kron_table] == [[x.kron(y) for y in b] for x in a]
    assert sa.trace().tolist() == [sum(dense(x)[i, i] for i in range(x.N)) for x in a]
    assert sa.equal(sa[::-1]).tolist() == [x == y for x, y in zip(a, a[::-1])]
    assert sa.scalar().tolist() == [dense_scalar(dense(x)) or 0 for x in a]
    product = SignedPerm.identity(sa.N)
    for x in a:
        product = product * x
    assert sa.product() == product and sa[:0].product() == SignedPerm.identity(sa.N)


def test_signed_perm_arrays_are_read_only_and_of_one_shape():
    a = SignedPerm([1, 0], [1, -1])
    with pytest.raises(ValueError):
        a.perm[0] = 0
    source = np.array([1, 0])
    b = SignedPerm(source, [1, -1])
    with pytest.raises(ValueError):
        source[0] = 0  # held as it is, and read-only now
    assert b == a and hash(b) == hash(a)
    assert a != a[None] and a[None][0] == a
    with pytest.raises(ValueError, match="one shape"):
        SignedPerm([1, 0], [1])
    with pytest.raises(ValueError, match="one shape"):
        list(a)  # one element has no elements to iterate


def _cells(a: SignedPerm):
    return dict(enumerate(zip(a.perm.tolist(), a.signs.tolist())))


@given(signed_perms())
@DIFFERENTIAL
def test_signed_perm_from_cells_round_trips(a):
    n = len(a.perm)
    assert SignedPerm.from_cells(_cells(a), n) == a
    assert SignedPerm.from_cells(_cells(a), n + 1) is None  # a column short


def test_signed_perm_from_cells_rejects_what_is_not_one():
    assert SignedPerm.from_cells({1: (0, 1), 0: (1, -1)}, 2) == SignedPerm((1, 0), (-1, 1))
    for cells in (
        {0: (0, 1)},  # a column short
        {0: (0, 1), 2: (1, 1)},  # column 2 out of range, column 1 missing
        {0: (1, 1), 1: (1, -1)},  # both in row 1
        {0: (0, 1), 1: (2, 1)},  # row 2 out of range
        {0: (0, 1), 1: (1, 2)},  # not a unit sign
    ):
        assert SignedPerm.from_cells(cells, 2) is None, cells


@given(signed_perms(), st.integers(min_value=1, max_value=4), st.booleans(), st.data())
@DIFFERENTIAL
def test_signed_perm_matrix_products_match_dense(a, k, int_only, data):
    # a X column by column, and Y a row by row as (a^T y)^T: both gathers
    n = len(a.perm)
    entries = small_entries if int_only else exact_entries
    left = Matrix([[data.draw(entries) for _ in range(k)] for _ in range(n)])
    right = Matrix([[data.draw(entries) for _ in range(n)] for _ in range(k)])
    at = a.transpose()
    for got, want, operand in (
        (Matrix.from_columns([a.apply(x) for x in left.columns()]), dense(a) * left, left),
        (Matrix([at.apply(y) for y in right.data]), right * dense(a), right),
    ):
        assert got == want
        if _all_int(operand):
            assert _types(got) == _types(want)


@st.composite
def term_lists(draw):
    """Up to four (c, SignedPerm) terms on one N, int or Fraction c, and a
    vector of that length."""
    n = draw(st.integers(min_value=1, max_value=6))
    terms = draw(st.lists(st.tuples(exact_entries, signed_perms(n)), max_size=4))
    return n, terms, draw(st.lists(exact_entries, min_size=n, max_size=n))


@given(term_lists())
@DIFFERENTIAL
def test_term_rows_and_apply_terms_match_the_dense_sum(case):
    n, terms, x = case
    want = terms_dense(terms, n)
    assert Matrix(term_rows(terms, n)) == want
    assert Matrix.from_columns([apply_terms(terms, x)]) == want * Matrix.from_columns([x])


# rank and kernel against the Bareiss oracle.  The kernel basis depends
# only on the row space, so values and entry types must match primitive's
# map of the normalized Fraction basis: int columns, primitive and positive
# at the free variable, whatever the order in which the rows are fed.

def primitive_kernel(m: Matrix) -> Matrix:
    """bareiss_kernel's columns mapped by primitive."""
    return Matrix.from_columns(primitive(bareiss_kernel(m).columns()), m.cols)


def _assert_kernel_matches_oracle(m):
    got, want = matrix_kernel(m), primitive_kernel(m)
    assert got == want and (got.rows, got.cols) == (want.rows, want.cols)
    assert _types(got) == _types(want)
    assert rank(m.data) == bareiss_rank(m) == m.cols - want.cols


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
    got = Matrix.from_columns(Echelon(shuffled).kernel(m.cols), m.cols)
    want = primitive_kernel(m)
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
        assert is_zero(m * matrix_kernel(m))


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


def test_full_rank_mod_p_agrees_with_bareiss_on_random_stacks():
    rng = random.Random(5)
    for rows, cols in ((1, 1), (3, 2), (4, 4), (8, 7), (10, 5)):
        for bound in (1, 3, 2**40):  # 2**40: residues, not raw entries, are multiplied
            stack = [
                [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
                for _ in range(40)
            ]
            got = full_rank_mod_p(np.array(stack)).tolist()
            want = [bareiss_rank(Matrix(m)) == cols for m in stack]
            assert got == want, (rows, cols, bound)
            if bound == 1 and rows == cols:
                assert 0 < sum(got) < len(got)  # both answers are exercised


def test_full_rank_mod_p_is_one_sided():
    p = exact_linalg.PRIME
    # full rank over Q, but every minor is divisible by the prime
    assert bareiss_rank(Matrix([[p, 0], [0, 1], [0, 2]])) == 2
    assert full_rank_mod_p(np.array([[[p, 0], [0, 1], [0, 2]]])).tolist() == [False]
    # the rows of a singular matrix stay dependent, however large
    dependent = [[3, 1 - p], [6, 2 - 2 * p], [-3, p - 1]]
    assert full_rank_mod_p(np.array([dependent, [[1, 0], [0, 1], [5, 7]]])).tolist() == [False, True]
    # a pivot found below the diagonal, and an empty stack
    assert full_rank_mod_p(np.array([[[0, 1], [0, 2], [1, 0]]])).tolist() == [True]
    assert full_rank_mod_p(np.zeros((0, 3, 2), dtype=np.int64)).tolist() == []


def test_full_rank_mod_p_refuses_wide_matrices():
    with pytest.raises(ValueError, match="at least as many rows"):
        full_rank_mod_p(np.zeros((2, 2, 3), dtype=np.int64))
