"""Exact scalar and vector substrate.

Scalars are python ints; an Echelon also takes non-integral exact
rationals (numbers.Rational, such as serialize parses from a witness
file) and clears their denominators, and any other entry type is a
TypeError in elimination.
A vector is a list of scalars, a subspace basis a sequence of column
vectors, and a row system a list of rows.  The only matrices are
SignedPerms, read-only (..., N) stacks of signed permutations whose
entries are indices and signs and never grow; a sum of them, such as
gamma_v, is a list of (coefficient, SignedPerm) terms, which term_rows
writes out as dense rows and apply_terms applies to a vector.  The
exact elimination is Echelon: it clears each vector's denominators and
reduces it over Z against the rows accepted so far, so rank
certificates, span tests and kernels are reproducible bit for bit.
Echelon.kernel's back-substitution stays in Z, carrying d * x for d the
determinant of the pivot minor, which Cramer's rule makes integral, and
returns each basis vector as its primitive integer multiple.  The only
other elimination is full_rank_mod_p, a one-sided certificate on a
stack of integer matrices at once: full rank mod PRIME implies full
rank over Q, and a failed certificate proves nothing.
signed_relation_basis solves the monomial relations X = c L X R^T of
SignedPerm stacks by orbit walks, without elimination.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from numbers import Integral, Rational
from operator import mul

import numpy as np

# The prime of full_rank_mod_p: below 2**31, so the product of two
# residues fits in an int64.
PRIME = 2**31 - 1


def _denominator(x):
    """The denominator of an int or of a non-integral exact rational."""
    if isinstance(x, int):
        return 1
    if isinstance(x, Rational) and not isinstance(x, Integral):
        return x.denominator
    raise TypeError(f"unsupported scalar {type(x)}")


class SignedPerm:
    """Signed permutation matrices as read-only integer arrays of shape
    (..., N): one (N,) element has signs[j] at row perm[j] of column j,
    and a stack, such as a rep's (n, N) generators, holds many; len,
    indexing and iteration run over its first axis.  Products,
    transposes, negation and Kronecker products are index gathers that
    broadcast over the leading axes, so a[:, None] * a[None] is the
    (n, n, N) table of all products.  == compares whole stacks, equal
    element by element.  Arrays of the right dtype are held as they are
    and made read-only."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs):
        perm, signs = np.asarray(perm, dtype=np.intp), np.asarray(signs, dtype=np.int64)
        if perm.ndim == 0 or perm.shape != signs.shape:
            raise ValueError("perm and signs must share one shape (..., N)")
        perm.setflags(write=False)
        signs.setflags(write=False)
        self.perm, self.signs = perm, signs

    @property
    def N(self) -> int:
        return self.perm.shape[-1]

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n), np.ones(n))

    @classmethod
    def concat(cls, parts):
        """The (k, N) stack of the elements of parts, each one element or
        a stack of them, in order."""
        N = parts[0].N
        return cls(
            np.concatenate([x.perm.reshape(-1, N) for x in parts]),
            np.concatenate([x.signs.reshape(-1, N) for x in parts]),
        )

    @classmethod
    def from_cells(cls, cells, n):
        """The n x n signed permutation of a {column: (row, sign)} dict,
        such as one element of signed_relation_basis; None unless the
        cells fill all n columns and n distinct rows with signs +-1."""
        if cells.keys() != set(range(n)):
            return None
        perm, signs = zip(*(cells[j] for j in range(n)))
        if {*perm} != set(range(n)) or not {*signs} <= {1, -1}:
            return None
        return cls(perm, signs)

    def __len__(self):
        return len(self.perm)

    def __getitem__(self, index):
        return SignedPerm(self.perm[index], self.signs[index])

    def __mul__(self, other):
        if not isinstance(other, SignedPerm):
            return NotImplemented
        at = _positions(self.perm.shape, other.perm)
        return SignedPerm(self.perm.take(at), self.signs.take(at) * other.signs)

    def __neg__(self):
        return SignedPerm(self.perm, -self.signs)

    def _key(self):
        return self.perm.shape, self.perm.tobytes(), self.signs.tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, SignedPerm) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def equal(self, other):
        """Per element of the broadcast stacks, whether self and other are
        the same matrix, as a bool array of the leading shape."""
        return ((self.perm == other.perm) & (self.signs == other.signs)).all(axis=-1)

    def apply(self, x):
        """This one element times the vector x of length N, as a list: a
        signed gather, O(N).  It reads the arrays as lists, so the
        entries of x keep their python types."""
        if len(x) != self.N:
            raise ValueError(f"a vector of length {len(x)} for an N = {self.N} signed permutation")
        out = [0] * len(x)
        for xj, i, s in zip(x, self.perm.tolist(), self.signs.tolist()):
            out[i] = xj if s == 1 else -xj
        return out

    def transpose(self):
        inverse = np.argsort(self.perm, axis=-1)
        return SignedPerm(inverse, self.signs.take(_positions(self.perm.shape, inverse)))

    def kron(self, other):
        perm = self.perm[..., :, None] * other.N + other.perm[..., None, :]
        signs = self.signs[..., :, None] * other.signs[..., None, :]
        shape = perm.shape[:-2] + (self.N * other.N,)
        return SignedPerm(perm.reshape(shape), signs.reshape(shape))

    def product(self):
        """The ordered product of the elements of a (k, N) stack, one
        element: the identity when k = 0."""
        perm, signs = np.arange(self.N), np.ones(self.N, dtype=np.int64)
        for p, s in zip(self.perm, self.signs):
            perm, signs = perm[p], signs[p] * s
        return SignedPerm(perm, signs)

    def trace(self):
        """The trace of each element: its signs summed over the diagonal."""
        return np.where(self.perm == np.arange(self.N), self.signs, 0).sum(axis=-1)

    def scalar(self):
        """Per element, c where it is c Id, else 0, as an int array of the
        leading shape."""
        diagonal = (self.perm == np.arange(self.N)).all(axis=-1)
        constant = (self.signs == self.signs[..., :1]).all(axis=-1)
        return np.where(diagonal & constant, self.signs[..., 0], 0)


def _positions(shape, index):
    """The flat positions, in an array of this (..., N) shape, of x[..., index]
    element by element: each element of x read at the matching element of
    index, over the broadcast leading axes.  x.take of them gathers."""
    *lead, N = shape
    return np.arange(0, prod(lead) * N, N).reshape(*lead, 1) + index if lead else index


def clear_denominators(row):
    """The row times the lcm of its denominators, as ints where rational."""
    if all(type(x) is int for x in row):
        return list(row)
    m = lcm(*map(_denominator, row))
    return [x.numerator * (m // x.denominator) for x in row]


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
        """Basis of the vectors every accepted row annihilates, one
        integer column list per free (non-pivot) column f: the primitive
        integer vector that is 0 at the other free columns and positive
        at f.  It depends only on the row space.  Row k is zero at every
        pivot accepted before it, so the pivot minor is triangular in
        acceptance order, d = the product of the pivot entries is its
        determinant, and y = d * x for the x with x[f] = 1 is solved in
        Z in reverse acceptance order, each division exact by Cramer's
        rule; y divided by its gcd, signed as d, is the column.  An empty
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
            g = gcd(*y) if d > 0 else -gcd(*y)
            basis.append([x // g for x in y])
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


def term_rows(terms, N) -> list:
    """The N rows of the N x N matrix sum_k c_k g_k of the (c_k, g_k)
    terms, each g_k one SignedPerm element: column j of g_k adds
    c_k signs[j] at row perm[j]."""
    rows = [[0] * N for _ in range(N)]
    for c, g in terms:
        for j, (i, s) in enumerate(zip(g.perm.tolist(), g.signs.tolist())):
            rows[i][j] += c * s
    return rows


def apply_terms(terms, x) -> list:
    """sum_k c_k g_k x for the (c_k, g_k) terms: one signed gather per
    term, each raising ValueError unless x has length N."""
    out = [0] * len(x)
    for c, g in terms:
        out = [a + c * y for a, y in zip(out, g.apply(x))]
    return out


def signed_relation_basis(left, right, c=1, sigma=None):
    """Solution basis of X = c L_k X R_k^T on N x N matrices X for every
    element pair (L_k, R_k) of the (k, N) SignedPerm stacks left and
    right, and of X^T = sigma X unless sigma is None: one dict
    {column: (row, sign)} per surviving cell orbit, +1 at its lowest
    row-major cell, in order of that cell.

    Every cell orbit meets the lowest column of some column orbit of the
    R's, so walks start at each row of those columns.  A surviving orbit
    with two rows in one column raises ArithmeticError.
    """
    N = left.N
    moves = list(zip(left.perm.tolist(), left.signs.tolist(), right.perm.tolist(), right.signs.tolist()))
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
