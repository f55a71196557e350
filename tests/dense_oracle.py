"""The dense exact matrix: the slow oracle that every signed-permutation,
sparse-column and row-system fast path of spinorlab is checked against.

Entries are python ints and fractions.Fraction.  A product skips zero
entries and starts each sum from int 0, so an all-int product stays int.
"""

from spinorlab.exact_linalg import SignedPerm, dense_rows, kernel


class Matrix:
    """Dense exact matrix, immutable after construction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = tuple(tuple(row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns, n=None):
        """The matrix with these columns; n rows when there are none."""
        if not columns:
            return cls([[] for _ in range(n)])
        return cls([[col[i] for col in columns] for i in range(len(columns[0]))])

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix([[x + y for x, y in zip(a, b)] for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix([[-x for x in row] for row in self.data])

    def scale(self, c):
        return Matrix([[c * x for x in row] for row in self.data])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = [[0] * other.cols for _ in range(self.rows)]
        for row, acc in zip(self.data, out):
            for a, brow in zip(row, other.data):
                if not a:
                    continue
                for j, b in enumerate(brow):
                    if b:
                        acc[j] = acc[j] + (b if a == 1 else -b if a == -1 else a * b)
        return Matrix(out)

    def transpose(self):
        return Matrix(zip(*self.data)) if self.rows else Matrix([])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data == other.data

    def to_lists(self):
        return [list(row) for row in self.data]


def dense(p: SignedPerm) -> Matrix:
    """The dense matrix of a signed permutation: column j is signs[j] e_perm[j]."""
    pairs = list(zip(p.perm, p.signs))
    return Matrix([[s if i == r else 0 for i, s in pairs] for r in range(len(pairs))])


def sparse_dense(columns) -> Matrix:
    """The dense matrix of sparse {row: value} columns, such as
    gamma_vector's."""
    return Matrix(dense_rows(columns))


def gamma_dense(rep, v) -> Matrix:
    """gamma_v as the dense sum of scaled generators."""
    out = zero_matrix(rep.N, rep.N)
    for c, g in zip(v, rep.generators):
        if c:
            out = out + dense(g).scale(c)
    return out


def column(values) -> Matrix:
    return Matrix.from_columns([list(values)])


def zero_matrix(rows, cols):
    return Matrix([[0] * cols for _ in range(rows)])


def is_zero(m: Matrix):
    return all(not x for row in m.data for x in row)


def dense_scalar(m: Matrix):
    """c when the square Matrix m is c Id, else None: the dense oracle
    for SignedPerm.is_scalar_multiple_of_identity."""
    c = m.data[0][0]
    if m.rows == m.cols and m == Matrix.identity(m.rows).scale(c):
        return c
    return None


def dense_cells(element, N):
    """The N x N Matrix of a {column: (row, sign)} dict."""
    rows = [[0] * N for _ in range(N)]
    for col, (row, sign) in element.items():
        rows[row][col] = sign
    return Matrix(rows)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Dense Kronecker product, the oracle for SignedPerm.kron."""
    out = [[0] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
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


def matrix_kernel(m: Matrix) -> Matrix:
    """The library kernel of m's rows, as a Matrix of columns."""
    return Matrix.from_columns(kernel(m.data, m.cols), m.cols)
