import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.exact_linalg import (
    GaussianRational,
    I_UNIT,
    Matrix,
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


def test_signed_relations_simple():
    # x0 == x1, x1 == -x2: one component (1, 1, -1)
    basis = signed_relation_basis(3, [(0, 1, 1), (1, 2, -1)])
    assert basis == [[1, 1, -1]]


def test_signed_relations_contradiction():
    basis = signed_relation_basis(2, [(0, 1, 1), (0, 1, -1)])
    assert basis == []


def test_signed_relations_self_negative():
    basis = signed_relation_basis(2, [(0, 0, -1)])
    assert basis == [[0, 1]]


def test_signed_relations_match_dense_kernel():
    # the component solver must agree with the dense kernel of the
    # equivalent constraint matrix
    rng = random.Random(11)
    n = 6
    rels = []
    rows = []
    for _ in range(7):
        a, b = rng.randrange(n), rng.randrange(n)
        s = rng.choice([1, -1])
        rels.append((a, b, s))
        row = [0] * n
        row[a] += 1
        row[b] -= s
        rows.append(row)
    dense_dim = kernel(Matrix(rows)).cols
    assert len(signed_relation_basis(n, rels)) == dense_dim
