"""Exact scalar and vector substrate.

Scalars are python ints and fractions.Fraction; any other entry type
is a TypeError in elimination.  A vector is a list of scalars, a
subspace basis a sequence of column vectors, and a row system a list of
rows; the only matrices are SignedPerms.  The exact elimination is
Echelon: it clears each vector's denominators and reduces it over Z
against the rows accepted so far, so rank certificates, span tests and
kernels are reproducible bit for bit.  Echelon.kernel's
back-substitution stays in Z, carrying d * x for d the determinant of
the pivot minor, which Cramer's rule makes integral, and divides by d
once.  The only other elimination is full_rank_mod_p, a
one-sided certificate on a stack of integer matrices at once: full rank
mod PRIME implies full rank over Q, and a failed certificate proves
nothing.  signed_relation_basis solves the monomial relations
X = c L X R^T of SignedPerm pairs by orbit walks, without elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

import numpy as np

# The prime of full_rank_mod_p: below 2**31, so the product of two
# residues fits in an int64.
PRIME = 2**31 - 1


def _denominator_lcm(x):
    """lcm of the denominators appearing in a scalar."""
    if isinstance(x, int):
        return 1
    if isinstance(x, Fraction):
        return x.denominator
    raise TypeError(f"unsupported scalar {type(x)}")


@dataclass(frozen=True)
class SignedPerm:
    """Signed permutation matrix: column j is signs[j] * e_perm[j].

    Products, transposes and Kronecker products stay signed permutations
    and cost O(N), as does apply on a vector.
    """

    perm: tuple
    signs: tuple

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)), (1,) * n)

    @classmethod
    def from_cells(cls, cells, n):
        """The n x n signed permutation of a {column: (row, sign)} dict,
        such as one element of signed_relation_basis; None unless the
        cells fill all n columns and n distinct rows with signs +-1."""
        if cells.keys() != set(range(n)):
            return None
        perm = tuple(cells[j][0] for j in range(n))
        signs = tuple(cells[j][1] for j in range(n))
        if {*perm} != set(range(n)) or not {*signs} <= {1, -1}:
            return None
        return cls(perm, signs)

    def __mul__(self, other):
        if not isinstance(other, SignedPerm):
            return NotImplemented
        return SignedPerm(
            tuple(self.perm[k] for k in other.perm),
            tuple(s * self.signs[k] for k, s in zip(other.perm, other.signs)),
        )

    def apply(self, x):
        """self times the vector x, as a list: a signed gather, O(N)."""
        out = [0] * len(x)
        for xj, i, s in zip(x, self.perm, self.signs):
            out[i] = xj if s == 1 else -xj
        return out

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


def clear_denominators(row):
    """The row times the lcm of its denominators, as ints where rational."""
    if all(type(x) is int for x in row):
        return list(row)
    m = lcm(*map(_denominator_lcm, row))
    return [x.numerator * (m // x.denominator) if isinstance(x, Fraction) else x * m for x in row]


class Echelon:
    """Incremental exact row echelon over Z, one vector at a time.

    Echelon(vectors) adds each vector in turn.  add(v) clears v's
    denominators, reduces it by the accepted rows in acceptance order
    and accepts it when a nonzero remainder is left, stored divided by
    its gcd with its first nonzero entry as pivot.
    Reduction by a row zeroes that row's pivot and keeps every earlier
    pivot zero, so a remainder is zero exactly when v lies in the span
    of the accepted vectors; a rejected vector leaves the state
    unchanged.  len() is the rank certified so far.  The pivots are
    distinct leading positions of the row space, so they are its
    reduced-echelon pivot columns, whatever the order of the vectors.
    """

    __slots__ = ("rows",)

    def __init__(self, vectors=()):
        self.rows = []  # (pivot, integer row), in acceptance order
        for vector in vectors:
            self.add(vector)

    def __len__(self):
        return len(self.rows)

    def add(self, vector) -> bool:
        r = clear_denominators(vector)
        for p, v in self.rows:
            if r[p]:
                r = [v[p] * x - r[p] * y for x, y in zip(r, v)]
        pivot = next((m for m, x in enumerate(r) if x), None)
        if pivot is None:
            return False
        g = gcd(*r)
        self.rows.append((pivot, [x // g for x in r]))
        return True

    def kernel(self, n_cols) -> list:
        """Basis of the vectors every accepted row annihilates, one column
        list per free (non-pivot) column f: x[f] = 1, x = 0 at the other free
        columns, Fraction entries at the pivots.  It depends only on the
        row space.  Row k is zero at every pivot accepted before it, so
        the pivot minor is triangular in acceptance order, d = the product
        of the pivot entries is its determinant, and y = d * x is solved
        in Z in reverse acceptance order, each division exact.  An empty
        kernel is [].
        """
        pivots = {p for p, _ in self.rows}
        d = prod(row[p] for p, row in self.rows)
        basis = []
        for f in range(n_cols):
            if f in pivots:
                continue
            y = [0] * n_cols
            y[f] = d
            for p, row in reversed(self.rows):
                s = sum(map(mul, row, y))
                if s:
                    y[p], rem = divmod(-s, row[p])
                    if rem:
                        raise ArithmeticError("inexact integer back-substitution")
            x = [0] * n_cols
            x[f] = Fraction(1)
            for p, _ in self.rows:
                x[p] = Fraction(y[p], d)
            basis.append(x)
        return basis


def full_rank_mod_p(stack) -> np.ndarray:
    """Per matrix of an integer array of shape (T, r, c), r >= c, whether
    its columns are independent mod PRIME, by one fraction-free Gaussian
    elimination over the whole stack.

    A nonzero c x c minor mod PRIME is a nonzero integer minor, so True
    certifies rank c over Q; False may be an unlucky prime and certifies
    nothing.  Row j below the pivot row k becomes
    a_kk * row_j - a_jk * row_k mod PRIME, invertible as a_kk != 0.
    """
    a = np.asarray(stack, dtype=np.int64) % PRIME
    count, rows, cols = a.shape
    if rows < cols:
        raise ValueError("full_rank_mod_p needs at least as many rows as columns")
    ok = np.ones(count, dtype=bool)
    every = np.arange(count)
    for k in range(cols):
        pivot = k + (a[:, k:, k] != 0).argmax(axis=1)  # k when column k is zero
        top = a[every, pivot]  # a copy: advanced indexing
        a[every, pivot] = a[:, k]
        a[:, k] = top
        ok &= top[:, k] != 0
        a[:, k + 1:, k + 1:] = (
            top[:, None, None, k] * a[:, k + 1:, k + 1:]
            - a[:, k + 1:, k, None] * top[:, None, k + 1:]
        ) % PRIME
    return ok


def dense_rows(columns) -> list:
    """The rows of the square matrix with these sparse {row: value}
    columns, such as clifford_core.gamma_vector's."""
    rows = [[0] * len(columns) for _ in columns]
    for j, column in enumerate(columns):
        for i, x in column.items():
            rows[i][j] = x
    return rows


def signed_relation_basis(N, pairs, c=1, sigma=None):
    """Solution basis of X = c L X R^T on N x N matrices X for every
    SignedPerm pair (L, R) in pairs, and of X^T = sigma X unless sigma
    is None: one dict {column: (row, sign)} per surviving cell orbit,
    +1 at its lowest row-major cell, in order of that cell.

    Every cell orbit meets the lowest column of some column orbit of the
    R's, so walks start at each row of those columns.  A surviving orbit
    with two rows in one column raises ArithmeticError.
    """
    moves = [(l.perm, l.signs, r.perm, r.signs) for l, r in pairs]
    roots, columns = [], set()
    for s0 in range(N):
        if s0 in columns:
            continue
        roots += range(s0, N * N, N)  # every row of column s0
        stack = [s0]
        while stack:
            s = stack.pop()
            if s not in columns:
                columns.add(s)
                stack += [rp[s] for _, _, rp, _ in moves]
    value = [0] * (N * N)  # 0 unvisited, else +-1, or 2 on a dead orbit
    found = []
    for root in roots:
        if value[root]:
            continue
        orbit = _walk(value, root, N, moves, c, sigma)
        if orbit:
            low = min(orbit)
            element = {}
            for cell in orbit:
                row, col = divmod(cell, N)
                if col in element:
                    raise ArithmeticError(f"an orbit holds two rows in column {col}")
                element[col] = (row, value[low] * value[cell])
            found.append((low, element))
    return [element for _, element in sorted(found, key=lambda item: item[0])]


def _walk(value, root, N, moves, c, sigma):
    """Walk root's orbit breadth first from value +1: cell (a, s) moves
    to (L.perm[a], R.perm[s]) with sign c * L.signs[a] * R.signs[s], and
    to (s, a) with sign sigma.  Its cells, or None at the first sign
    clash, after marking them dead: the orbit admits only zero."""
    value[root], orbit = 1, [root]
    for cell in orbit:  # grows while walked
        a, s = divmod(cell, N)
        v = value[cell]
        steps = [(lp[a] * N + rp[s], c * v * ls[a] * rs[s]) for lp, ls, rp, rs in moves]
        if sigma is not None:
            steps.append((s * N + a, sigma * v))
        for t, w in steps:
            if not value[t]:
                value[t] = w
                orbit.append(t)
            elif value[t] != w:  # a dead cell clashes with every value
                for dead in orbit:
                    value[dead] = 2
                return None
    return orbit
