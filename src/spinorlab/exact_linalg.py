"""Exact scalar and matrix substrate.

Scalars are python ints and fractions.Fraction; any other entry type
is a TypeError in elimination.  Elimination clears each row's
denominators and runs fraction-free (Bareiss) over Z with deterministic
first-nonzero pivoting, so kernels and ranks are reproducible bit for
bit.  Kernel and solve back-substitution stays in Z as well: it carries
d * x, d the last Bareiss pivot, which Cramer's rule makes integral, and
divides by d once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


def _denominator_lcm(x):
    """lcm of the denominators appearing in a scalar."""
    if isinstance(x, int):
        return 1
    if isinstance(x, Fraction):
        return x.denominator
    raise TypeError(f"unsupported scalar {type(x)}")


class Matrix:
    """Dense exact matrix; entries int or Fraction.

    Instances are treated as immutable after construction.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = tuple(tuple(row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def zero(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, values):
        return cls([[v] for v in values])

    @classmethod
    def from_columns(cls, columns):
        if not columns:
            raise ValueError("need at least one column")
        n = len(columns[0])
        return cls([[col[i] for col in columns] for i in range(n)])

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
        return Matrix(
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [self.data[i][j] - other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __neg__(self):
        return Matrix([[-x for x in row] for row in self.data])

    def scale(self, c):
        return Matrix([[c * x for x in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, SignedPerm):
            return NotImplemented  # SignedPerm.__rmul__ gathers the columns
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # row-sparse accumulation: skip zero entries, which dominates for
        # the signed-permutation matrices produced by the Clifford builder
        out = [[0] * other.cols for _ in range(self.rows)]
        odata = other.data
        for i in range(self.rows):
            row_i = self.data[i]
            acc = out[i]
            for k in range(self.cols):
                a = row_i[k]
                if not a:
                    continue
                brow = odata[k]
                if a == 1:
                    for j in range(other.cols):
                        b = brow[j]
                        if b:
                            acc[j] = acc[j] + b
                elif a == -1:
                    for j in range(other.cols):
                        b = brow[j]
                        if b:
                            acc[j] = acc[j] - b
                else:
                    for j in range(other.cols):
                        b = brow[j]
                        if b:
                            acc[j] = acc[j] + a * b
        return Matrix(out)

    __rmul__ = scale

    def transpose(self):
        return Matrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def is_scalar_multiple_of_identity(self):
        if self.rows != self.cols:
            return None
        c = self.data[0][0]
        for i in range(self.rows):
            for j in range(self.cols):
                want = c if i == j else 0
                if self.data[i][j] != want:
                    return None
        return c

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("shape mismatch")
        return Matrix(
            [list(self.data[i]) + list(other.data[i]) for i in range(self.rows)]
        )

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(list(self.data) + list(other.data))

    def select_columns(self, indices):
        return Matrix(
            [[self.data[i][j] for j in indices] for i in range(self.rows)]
        )

    def to_lists(self):
        return [list(row) for row in self.data]

    def __repr__(self):
        return f"Matrix({self.to_lists()!r})"


@dataclass(frozen=True)
class SignedPerm:
    """Signed permutation matrix: column j is signs[j] * e_perm[j].

    Products, transposes and Kronecker products stay signed permutations
    and cost O(N); a product with a dense Matrix is a row gather (on the
    left) or a column gather (on the right).
    """

    perm: tuple
    signs: tuple

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)), (1,) * n)

    def __mul__(self, other):
        if isinstance(other, SignedPerm):
            return SignedPerm(
                tuple(self.perm[k] for k in other.perm),
                tuple(s * self.signs[k] for k, s in zip(other.perm, other.signs)),
            )
        if not isinstance(other, Matrix):
            return NotImplemented
        # row perm[j] of the product is signs[j] * row j of other
        out = [None] * len(self.perm)
        for row, i, s in zip(other.data, self.perm, self.signs):
            out[i] = row if s == 1 else [-x for x in row]
        return Matrix(out)

    def __rmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        # column j of the product is signs[j] * column perm[j] of other
        pairs = list(zip(self.perm, self.signs))
        return Matrix([[s * row[i] for i, s in pairs] for row in other.data])

    def __neg__(self):
        return SignedPerm(self.perm, tuple(-s for s in self.signs))

    def transpose(self):
        inverse = sorted(range(len(self.perm)), key=self.perm.__getitem__)
        return SignedPerm(tuple(inverse), tuple(self.signs[j] for j in inverse))

    def kron(self, other):
        n = len(other.perm)
        return SignedPerm(
            tuple(i * n + k for i in self.perm for k in other.perm),
            tuple(s * t for s in self.signs for t in other.signs),
        )

    def is_scalar_multiple_of_identity(self):
        if self.perm == tuple(range(len(self.perm))) and len(set(self.signs)) == 1:
            return self.signs[0]
        return None

    def dense(self) -> Matrix:
        pairs = list(zip(self.perm, self.signs))
        return Matrix([[s if i == r else 0 for i, s in pairs] for r in range(len(pairs))])


def clear_denominators(row):
    """The row times the lcm of its denominators, as ints where rational."""
    if all(type(x) is int for x in row):
        return list(row)
    m = lcm(*map(_denominator_lcm, row))
    return [x.numerator * (m // x.denominator) if isinstance(x, Fraction) else x * m for x in row]


def _echelonize(matrix: Matrix):
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
        sel = None
        for r in range(piv_r, n_rows):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            continue
        if sel != piv_r:
            rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        p = rows[piv_r][col]
        for r in range(piv_r + 1, n_rows):
            x = rows[r][col]
            row_r = rows[r]
            row_p = rows[piv_r]
            for c in range(col, n_cols):
                num = p * row_r[c] - x * row_p[c] if x else p * row_r[c]
                if prev != 1:
                    num, rem = divmod(num, prev)
                    if rem:  # Bareiss division must be exact over Z
                        raise ArithmeticError("inexact fraction-free division")
                row_r[c] = num
        pivot_cols.append(col)
        prev = p
        piv_r += 1
        if piv_r == n_rows:
            break
    return rows[:piv_r], pivot_cols


def _pivot_solutions(ech, pivots, n_cols, free):
    """For each f in free, the pivot entries of the x with x[f] = 1, x = 0
    at the other free columns, and every echelon row annihilating x.

    The integer rows back-substitute y = d * x in Z, d the last Bareiss
    pivot: d is the determinant of the pivot minor, so y is integral by
    Cramer's rule and every division is exact; then x = Fraction(y, d).
    """
    d = ech[-1][pivots[-1]] if pivots else 1
    out = []
    for f in free:
        y = [0] * n_cols
        y[f] = d
        for r in range(len(pivots) - 1, -1, -1):  # bottom-up
            pc = pivots[r]
            row = ech[r]
            s = 0
            for c in range(pc + 1, n_cols):
                if row[c] and y[c]:
                    s = s + row[c] * y[c]
            if s:
                y[pc], rem = divmod(-s, row[pc])
                if rem:
                    raise ArithmeticError("inexact integer back-substitution")
        out.append([Fraction(y[pc], d) for pc in pivots])
    return out


def rank(matrix: Matrix) -> int:
    _, pivots = _echelonize(matrix)
    return len(pivots)


def kernel(matrix: Matrix) -> Matrix:
    """Basis of the right null space, one column per free variable.

    The returned columns satisfy matrix * col == 0 exactly; the free
    variable of each column is set to 1 and the rest back-substituted.
    An empty kernel is returned as an n x 0 matrix.
    """
    ech, pivots = _echelonize(matrix)
    n_cols = matrix.cols
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f, values in zip(free, _pivot_solutions(ech, pivots, n_cols, free)):
        sol = [0] * n_cols
        sol[f] = Fraction(1)
        for pc, x in zip(pivots, values):
            sol[pc] = x
        basis.append(sol)
    if not basis:
        return Matrix([[] for _ in range(n_cols)])
    return Matrix.from_columns(basis)


def solve(matrix: Matrix, rhs) -> list | None:
    """Solve matrix * x == rhs exactly; None when inconsistent.

    rhs is a flat sequence of length matrix.rows.
    """
    if len(rhs) != matrix.rows:
        raise ValueError("rhs length mismatch")
    aug = matrix.hstack(Matrix.column(list(rhs)))
    ech, pivots = _echelonize(aug)
    n = matrix.cols
    if n in pivots:
        return None  # pivot in the rhs column: inconsistent
    # the kernel vector of [matrix | rhs] with x[n] = 1 has matrix * x = -rhs
    sol = [Fraction(0)] * n
    (values,) = _pivot_solutions(ech, pivots, n + 1, [n])
    for pc, x in zip(pivots, values):
        sol[pc] = -x
    return sol


def column_space_basis(matrix: Matrix) -> Matrix:
    """Columns of `matrix` at the pivot positions of its echelon form."""
    _, pivots = _echelonize(matrix)
    if not pivots:
        return Matrix([[] for _ in range(matrix.rows)])
    return matrix.select_columns(pivots)


def signed_relation_basis(n_cells, maps):
    """Solution basis of x_c == sign[c] * x_target[c] for every cell c
    and every signed cell map (target, sign) in maps.

    Each map is a signed bijection of range(n_cells).  The cells are
    walked orbit by orbit (breadth first under all maps), each orbit
    rooted at its lowest-index unvisited cell with value +1; an orbit
    that reaches one of its cells with both signs admits only zero.
    Returns one vector (a list of ints in {-1, 0, 1}) per surviving
    orbit, in order of the orbit's lowest cell.
    """
    value = [0] * n_cells  # 0 marks an unvisited cell
    basis = []
    for root in range(n_cells):
        if value[root]:
            continue
        value[root] = 1
        orbit = [root]
        alive = True
        for cell in orbit:  # grows while walked
            v = value[cell]
            for target, sign in maps:
                t = target[cell]
                w = v * sign[cell]
                seen = value[t]
                if not seen:
                    value[t] = w
                    orbit.append(t)
                elif seen != w:
                    alive = False
        if alive:
            vec = [0] * n_cells
            for cell in orbit:
                vec[cell] = value[cell]
            basis.append(vec)
    return basis
