"""The dense exact matrix: the slow oracle that every signed-permutation,
term-list and row-system fast path of spinorlab is checked against;
the normalized Fraction kernel basis mapped to Echelon.kernel's
primitive integer columns; gamma_v as the {row: value} columns that
gamma_vector's term lists replaced;
the orbit-solve commutant dimension that the trace count replaced;
the joint kernel of stacked operators, eliminated, that c10's trace
count replaced;
the orbit walk signed_relation_basis, its from_cells reading of a
walked element and the walk-based split involution find_involution,
which clifford_core's twisted_commutant basis replaced;
the planted-defect copies of signed permutations that the failure tests
feed in, each checked to differ from its original where it says;
the per-vector and pairwise loops that the array certificates of
spinorlab replaced; the dense (B, N, N) gamma_v stack and its checks,
which the signed-permutation sums of brackets replaced and which scale
to N >= 128; the entry-by-entry coefficient rows of those sums and
their dtype rule, which brackets now builds as arrays; the per-point
frame loops that the batched Gram-Schmidt of model_space replaced; the
single-point geometry call, which model_space answers only as a batch
of one; and the per-point, per-direction residual sweeps (Killing,
Dirac, bracket, homogeneity and curvature) that the array passes of
model_space replaced.

Entries are python ints and fractions.Fraction.  A product skips zero
entries and starts each sum from int 0, so an all-int product stays int.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

import numpy as np

from spinorlab.clifford_core import first_square_root, metric_value
from spinorlab.exact_linalg import Echelon, SignedPerm, term_rows
from spinorlab.model_space import (
    BracketFieldReport,
    KillingReport,
    _worst,
    _worst_rows,
)


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
    pairs = list(zip(p.perm.tolist(), p.signs.tolist()))
    return Matrix([[s if i == r else 0 for i, s in pairs] for r in range(len(pairs))])


def planted(original: SignedPerm, cells, perm=None, signs=None) -> SignedPerm:
    """A broken copy of original, with perm and signs in place of its
    arrays where given, asserted to differ from original at exactly the
    cells, a set of (..., column) index tuples: a planted defect that is
    neither silently absent nor spread beyond what its test names."""
    copy = SignedPerm(
        original.perm if perm is None else perm, original.signs if signs is None else signs
    )
    differ = (copy.perm != original.perm) | (copy.signs != original.signs)
    assert cells and {tuple(map(int, index)) for index in np.argwhere(differ)} == set(cells)
    return copy


def flip_sign(original: SignedPerm, index) -> SignedPerm:
    """original with the sign at index, a (..., column) tuple, negated."""
    signs = original.signs.copy()
    signs[index] = -signs[index]
    return planted(original, {index}, signs=signs)


def swap_entries(original: SignedPerm, index, other) -> SignedPerm:
    """original with the perm entries at two (..., column) tuples of one
    element swapped."""
    perm = original.perm.copy()
    perm[index], perm[other] = perm[other], perm[index]
    return planted(original, {index, other}, perm=perm)


def terms_dense(terms, N) -> Matrix:
    """The dense sum of (c, SignedPerm) terms, the oracle for term_rows
    and apply_terms; N x N zero for no terms."""
    out = zero_matrix(N, N)
    for c, g in terms:
        out = out + dense(g).scale(c)
    return out


def gamma_dense(rep, v) -> Matrix:
    """gamma_v as the dense sum of scaled generators."""
    return terms_dense([(c, g) for c, g in zip(v, rep.generators) if c], rep.N)


def gamma_columns(rep, v) -> list:
    """gamma_v's N columns as {row: coefficient} dicts with at most n
    entries each, some of which may cancel to 0: column j is
    sum_i v_i signs_i[j] e_{perm_i[j]}."""
    cols = [{} for _ in range(rep.N)]
    for c, perm, signs in zip(v, rep.generators.perm.tolist(), rep.generators.signs.tolist()):
        if c:
            for col, i, s in zip(cols, perm, signs):
                col[i] = col.get(i, 0) + (c if s == 1 else -c)
    return cols


def primitive(columns) -> list:
    """Each column of a normalized Fraction kernel basis, 1 at its free
    column, times the least positive integer that makes it integral: the
    primitive integer column, positive at its free column, that
    Echelon.kernel returns.  Every entry comes out an int."""
    out = []
    for col in columns:
        m = lcm(*(Fraction(x).denominator for x in col))
        ints = [int(x * m) for x in col]
        assert gcd(*ints) == 1
        out.append(ints)
    return out


def column(values) -> Matrix:
    return Matrix.from_columns([list(values)])


def zero_matrix(rows, cols):
    return Matrix([[0] * cols for _ in range(rows)])


def is_zero(m: Matrix):
    return all(not x for row in m.data for x in row)


def dense_scalar(m: Matrix):
    """c when the square Matrix m is c Id, else None: the dense oracle
    for SignedPerm.scalar."""
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


def rank(rows) -> int:
    """Rank of a row system, or of a list of columns, by one Echelon."""
    return len(Echelon(rows))


def kernel(rows, n_cols) -> list:
    """Echelon.kernel of a row system over n_cols unknowns."""
    return Echelon(rows).kernel(n_cols)


def matrix_kernel(m: Matrix) -> Matrix:
    """The library kernel of m's rows, as a Matrix of columns."""
    return Matrix.from_columns(kernel(m.data, m.cols), m.cols)


def clifford_relation_failures_oracle(generators, eta):
    """The pairwise SignedPerm loop for clifford_relation_failures: (i, j),
    i <= j in row-major order, where G_i^2 != -eta_i Id or, for i < j,
    G_i G_j != -G_j G_i."""
    failures = []
    for i, gi in enumerate(generators):
        if (gi * gi).scalar() != -eta[i]:
            failures.append((i, i))
        for j in range(i + 1, len(generators)):
            gj = generators[j]
            if gi * gj != -(gj * gi):
                failures.append((i, j))
    return failures


def from_cells(cells, n):
    """The n x n signed permutation of a {column: (row, sign)} dict,
    such as one element of signed_relation_basis; None unless the
    cells fill all n columns and n distinct rows with signs +-1."""
    if cells.keys() != set(range(n)):
        return None
    perm, signs = zip(*(cells[j] for j in range(n)))
    if {*perm} != set(range(n)) or not {*signs} <= {1, -1}:
        return None
    return SignedPerm(perm, signs)


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


def walked_forms(rep, sigma, tau):
    """The walk's admissible-form basis: signed_relation_basis of the
    generators and their transposes (G^T H = tau H G is H = tau G H G),
    each element read by from_cells."""
    gens = rep.generators
    return [from_cells(x, rep.N) for x in signed_relation_basis(gens, gens.transpose(), tau, sigma)]


def find_involution(candidates, N):
    """The first non-scalar involution among the {column: (row, sign)}
    candidates that are signed permutations, then among the differences
    x - y of two of them, each in order; None if there is none.

    A difference is tried only when x and y have disjoint columns: on a
    shared column x - y has two entries or a non-unit one, so it is not
    a signed permutation; on disjoint columns it is one exactly when the
    rows are disjoint too."""
    perms = [from_cells(x, N) for x in candidates]
    differences = (  # made only when no candidate is an involution
        from_cells({**x, **{col: (row, -sign) for col, (row, sign) in y.items()}}, N)
        for i, x in enumerate(candidates) for y in candidates[i + 1 :] if x.keys().isdisjoint(y)
    )
    for group in (perms, differences):
        group = [x for x in group if x is not None]
        if group and (z := first_square_root(SignedPerm.concat(group), 1)) is not None:
            return z
    return None


def walked_split_involution(rep_cone, images):
    """The split involution the walk found: the base volume image omega
    when central in the even action, then omega_cone C for C in Id and
    the cone's commutant basis, then find_involution's over the walked
    even commutant basis; None if there is none."""
    omega = images.product()
    candidates = [omega[None]] if images * omega == omega * images else []
    volume = rep_cone.generators.product()
    candidates += [volume[None], volume * rep_cone.commutant_basis]
    z = first_square_root(SignedPerm.concat(candidates), 1)
    return z if z is not None else find_involution(signed_relation_basis(images, images), rep_cone.N)


def commutant_dimension_by_solve(generators) -> int:
    """The orbit-solve commutant dimension that character_dimension's
    trace count replaced: the size of the signed_relation_basis of
    X = G X G^T over every generator G of the stack."""
    return len(signed_relation_basis(generators, generators))


def invariant_spinors(rep, operators) -> int:
    """Dimension of the joint kernel of the listed N x N operators, each
    a list of (coefficient, SignedPerm) terms; N for an empty list.
    Every term_rows row of every operator goes to one Echelon."""
    echelon = Echelon(row for terms in operators for row in term_rows(terms, rep.N))
    return rep.N - len(echelon)


def squares_to_scalar_oracle(cols, c) -> bool:
    """Whether the N x N matrix with these sparse columns squares to
    c Id, column by column: n^2 products per gamma_columns column."""
    N = len(cols)
    for j, col in enumerate(cols):
        square = [0] * N
        square[j] = -c
        for r, x in col.items():
            for i, y in cols[r].items():
                square[i] += x * y
        if any(square):
            return False
    return True


def beta_form_oracle(rep, form, v) -> int:
    """brackets.beta_form's rank for one vector, from the identities of
    the null-kernel lemma checked on gamma_columns' sparse columns rather
    than from the rep and form certificates: rank beta, or ArithmeticError
    naming the first identity that fails, in the order gamma_v^2, beta's
    symmetry, then the anticommutator with G_k."""
    cols = gamma_columns(rep, v)
    q = metric_value(rep.eta, v, v)
    if not squares_to_scalar_oracle(cols, -q):
        if q == 0:
            raise ArithmeticError("gamma_v squared must vanish on a null vector")
        raise ArithmeticError("gamma_v squared is not -g(v,v) Id")
    # column j of beta gathers column j of gamma_v through H
    h_perm, h_signs = form.matrix.perm.tolist(), form.matrix.signs.tolist()
    beta = [{h_perm[r]: x * h_signs[r] for r, x in col.items()} for col in cols]
    st = form.sigma * form.tau
    if any(beta[r].get(j, 0) != st * x for j, col in enumerate(beta) for r, x in col.items()):
        raise ArithmeticError("beta does not have symmetry sigma*tau")
    if q != 0:
        return rep.N
    k = next((k for k, x in enumerate(v) if x), None)
    if k is None:
        return 0
    c = -2 * rep.eta[k] * v[k]
    g_perm, g_signs = rep.generators.perm[k].tolist(), rep.generators.signs[k].tolist()
    for j, col in enumerate(cols):
        anti = [0] * rep.N
        anti[j] = -c
        # gamma_v gamma_k e_j = signs[j] gamma_v e_perm[j] (a column gather)
        for r, x in cols[g_perm[j]].items():
            anti[r] += x * g_signs[j]
        # gamma_k gamma_v e_j (a row gather)
        for r, x in col.items():
            anti[g_perm[r]] += x * g_signs[r]
        if any(anti):
            raise ArithmeticError("gamma_v gamma_k + gamma_k gamma_v is not -2 eta_k v_k Id")
    return rep.N // 2


def gamma_stack(rep, vectors) -> np.ndarray:
    """gamma_v for each of the vectors, as an exact (B, N, N) stack from
    n signed scatters: generator i adds v_i sign[i, c] at row perm[i, c]
    of column c.  int64 only when every entry is an int and
    N M^2 < 2^62 for M the largest sum_k |v_k|, so that no check below
    overflows; dtype object otherwise."""
    perm, sign = rep.generators.perm, rep.generators.signs
    M = max((sum(map(abs, v)) for v in vectors), default=0)
    small = rep.N * M * M < 2**62 and all(type(x) is int for v in vectors for x in v)
    coeffs = np.array(vectors, dtype=np.int64 if small else object).reshape(-1, rep.n)
    out = np.zeros((len(coeffs), rep.N, rep.N), dtype=coeffs.dtype)
    cols = np.arange(rep.N)
    for i in range(rep.n):
        out[:, perm[i], cols] += coeffs[:, i, None] * sign[i]
    return out


def _stack_vanishes(stack) -> list:
    """For each matrix of a (B, N, N) stack, whether it is zero."""
    return (~(stack != 0).any(axis=(1, 2))).tolist()


def squares_to_scalar_stack(rep, vectors, gammas) -> list:
    """Whether gamma_v^2 = -g(v,v) Id for each v and its gamma_v in the
    gamma_stack: n signed column gathers of the stack, O(B n N^2)."""
    perm, sign = rep.generators.perm, rep.generators.signs
    coeffs = np.array(vectors, dtype=gammas.dtype).reshape(-1, rep.n)
    square = np.zeros_like(gammas)
    diag = np.arange(rep.N)
    square[:, diag, diag] = np.array(
        [metric_value(rep.eta, v, v) for v in vectors], dtype=gammas.dtype
    )[:, None]
    for i in range(rep.n):
        # column c of gamma_v G_i is sign[i, c] times column perm[i, c] of gamma_v
        square += gammas[:, :, perm[i]] * sign[i] * coeffs[:, i, None, None]
    return _stack_vanishes(square)


def _anticommutator_stack(rep, vectors, gammas) -> list:
    """For each nonzero v, with k its first index where v_k != 0, whether
    gamma_v gamma_k + gamma_k gamma_v = -2 eta_k v_k Id: a column gather
    and a row scatter of the stack."""
    ks = [next(k for k, x in enumerate(v) if x) for v in vectors]
    perm, sign = rep.generators.perm[ks], rep.generators.signs[ks]
    # gamma_v gamma_k: column j is sign_k[j] times column perm_k[j] of gamma_v
    total = np.take_along_axis(gammas, perm[:, None, :], axis=2) * sign[:, None, :]
    # gamma_k gamma_v: row r of gamma_v, times sign_k[r], lands in row perm_k[r]
    total[np.arange(len(ks))[:, None], perm] += sign[:, :, None] * gammas
    diag = np.arange(rep.N)
    total[:, diag, diag] += np.array(
        [2 * rep.eta[k] * v[k] for k, v in zip(ks, vectors)], dtype=gammas.dtype
    )[:, None]
    return _stack_vanishes(total)


def beta_form_stack(rep, form, vectors) -> list:
    """beta_form_oracle on one gamma_stack of the batch: its results,
    each error as its message.  The square is squares_to_scalar_stack,
    beta one row scatter of the stack, and the anticommutator
    _anticommutator_stack."""
    gammas = gamma_stack(rep, vectors)
    squares = squares_to_scalar_stack(rep, vectors, gammas)
    # row perm[r] of beta is signs[r] times row r of gamma_v
    h = form.matrix
    beta = np.zeros_like(gammas)
    beta[:, h.perm, :] = gammas * h.signs[:, None]
    symmetric = _stack_vanishes(beta.swapaxes(1, 2) - form.sigma * form.tau * beta)
    norms = [metric_value(rep.eta, v, v) for v in vectors]
    null = [b for b, (v, q) in enumerate(zip(vectors, norms)) if q == 0 and any(v)]
    checks = _anticommutator_stack(rep, [vectors[b] for b in null], gammas[null])
    anticommutes = dict(zip(null, checks))
    results = []
    for b, q in enumerate(norms):
        if not squares[b]:
            if q == 0:
                results.append("gamma_v squared must vanish on a null vector")
            else:
                results.append("gamma_v squared is not -g(v,v) Id")
        elif not symmetric[b]:
            results.append("beta does not have symmetry sigma*tau")
        elif q != 0:
            results.append(rep.N)
        elif b not in anticommutes:
            results.append(0)
        elif not anticommutes[b]:
            results.append("gamma_v gamma_k + gamma_k gamma_v is not -2 eta_k v_k Id")
        else:
            results.append(rep.N // 2)
    return results


def gram_schmidt_oracle(model, y, drop):
    """Per-point modified Gram-Schmidt on the tangent projector columns at
    y other than column drop, by scalar np.dot inner products: the
    orthonormal vectors, their signs and the smallest pivot, or None at
    the first pivot below 1e-12."""

    def g(a, b):
        return float(np.dot(a * model.eta_hat, b))

    proj = np.eye(model.dim) - np.outer(y, y * model.eta_hat)
    vecs, signs, min_pivot = [], [], np.inf
    for k in range(model.dim):
        if k == drop:
            continue
        u = proj[:, k].copy()
        for e, s in zip(vecs, signs):
            u -= s * g(u, e) * e
        norm = g(u, u)
        if abs(norm) < 1e-12:
            return None
        min_pivot = min(min_pivot, abs(norm))
        signs.append(1.0 if norm > 0 else -1.0)
        vecs.append(u / np.sqrt(abs(norm)))
    return vecs, signs, min_pivot


def select_patch_oracle(model, x):
    """The per-drop loop: the first drop with the largest smallest pivot,
    refused below 1e-8, and the sign-sorting order of its frame."""
    best = None
    for drop in range(model.dim):
        result = gram_schmidt_oracle(model, x, drop)
        if result is None:
            continue
        if best is None or result[2] > best[1][2]:
            best = (drop, result)
    if best is None or best[1][2] < 1e-8:
        raise ArithmeticError("no usable frame patch at this sample point")
    drop, (_, signs, _) = best
    return (drop, tuple(sorted(range(model.n), key=lambda i: (-signs[i], i))))


def tangent_frame_oracle(model, y, patch):
    """The frame of one point in its patch, with the same two refusals as
    HyperquadricModel.tangent_frame."""
    drop, order = patch
    result = gram_schmidt_oracle(model, y, drop)
    if result is None:
        raise ArithmeticError("frame degenerated inside its patch")
    vecs, signs, _ = result
    eta = [signs[i] for i in order]
    p = model.base_signature.p
    if not all(e > 0 for e in eta[:p]) or not all(e < 0 for e in eta[p:]):
        raise ArithmeticError("frame sign pattern does not match the base")
    return np.column_stack([vecs[i] for i in order])


def at_one_point(call, *args):
    """A stacks-only geometry call of model_space for one point: each
    array argument gains a leading axis, a patch tuple becomes a list of
    one, anything else (the model) passes as it is; returns row 0."""
    batch = [
        arg[None] if isinstance(arg, np.ndarray) else [arg] if isinstance(arg, tuple) else arg
        for arg in args
    ]
    return call(*batch)[0]


# -- the per-point residual sweeps ---------------------------------------------


def values_at(model, fields, y, patch):
    """The fields at y as the columns of one N x k array."""
    return np.column_stack([field.eval(model, y, patch) for field in fields])


def nablas_at(model, fields, point, here):
    """nabla_(e_i) S at a sample point for every frame direction e_i, S the
    fields' N x k value array (here at the point), with Omega read from
    the sample table."""
    h = model.step
    ends = zip(model.curve(point.x, point.frame.T, h), model.curve(point.x, point.frame.T, -h))
    return [
        (values_at(model, fields, plus, point.patch) - values_at(model, fields, minus, point.patch))
        / (2.0 * h)
        + omega @ here
        for (plus, minus), omega in zip(ends, point.omegas)
    ]


def dirac_at(model, point, nablas):
    """Frame Dirac sum sum_i eta_i gamma^M_(e_i) nabla_(e_i) at a sample point."""
    dirac = np.zeros_like(nablas[0])
    for eta, gamma, nabla in zip(model.base_signature.eta(), point.gammas, nablas):
        dirac += eta * gamma @ nabla
    return dirac


def killing_residual_oracle(model, fields, killing_number=None) -> list:
    """killing_residual as one loop per sample point, frame direction and
    candidate lambda."""
    if not fields:
        return []
    candidates = [killing_number] if killing_number is not None else [0.5, -0.5]
    killing = [[] for _ in candidates]  # column maxima per point and direction
    dirac = [[] for _ in candidates]  # column maxima per point
    for point in model.sample_points():
        here = values_at(model, fields, point.x, point.patch)
        nablas = nablas_at(model, fields, point, here)
        d_here = dirac_at(model, point, nablas)
        for lam, k_rows, d_rows in zip(candidates, killing, dirac):
            k_rows.extend(
                np.max(np.abs(nabla - lam * gamma @ here), axis=0)
                for nabla, gamma in zip(nablas, point.gammas)
            )
            d_rows.append(np.max(np.abs(d_here + model.n * lam * here), axis=0))
    width = len(fields)
    killing = [_worst_rows(rows, width) for rows in killing]
    dirac = [_worst_rows(rows, width)[0] for rows in dirac]
    reports = []
    for col in range(width):
        best = int(np.argmin([worst[col] for worst, _ in killing]))
        worst, at = killing[best]
        sample, direction = (None, None) if at[col] is None else divmod(at[col], model.n)
        reports.append(
            KillingReport(candidates[best], worst[col], dirac[best][col], sample, direction)
        )
    return reports


def bracket_vector(model, frame, gammas, s_val, t_val):
    """X = [s,t]_1 = sum_i eta_i h(gamma^M_(e_i) s, t) e_i as an ambient
    vector, from a point's frame and the frame's gamma^M."""
    out = np.zeros(model.dim)
    for eta, gamma, e in zip(model.base_signature.eta(), gammas, frame.T):
        c = float((gamma @ s_val) @ model.form_matrix @ t_val) / eta
        if c:
            out = out + c * e
    return out


def brackets_at(model, s_field, t_field, ys, patch):
    """[s,t]_1 at each of the points ys, all in one patch."""
    frames = model.tangent_frame(ys, [patch] * len(ys))
    directions = np.swapaxes(frames, 1, 2)
    gammas = model.gamma_intrinsic(ys[:, None, :], directions)
    return [
        bracket_vector(
            model, frame, gamma, s_field.eval(model, y, patch), t_field.eval(model, y, patch)
        )
        for y, frame, gamma in zip(ys, frames, gammas)
    ]


def tangential_difference(model, x, plus, minus):
    """Tangential projection at x of the central difference of two ambient
    vectors taken one model step either side of x, column by column."""
    diff = (plus - minus) / (2.0 * model.step)
    proj = model.tangent_projector(x)
    out = np.zeros(model.dim)
    for d, column in zip(diff, proj.T):
        if d:
            out = out + d * column
    return out


def geodesic_probe(model, x, direction):
    """The points and velocities at t = +h and t = -h of the geodesic
    with initial data (x, direction), as two (2, dim) arrays."""
    gxx = model.g_hat(direction, direction)
    tt = np.array([[model.step], [-model.step]])
    if abs(gxx - 1.0) < 1e-9:
        return x * np.cos(tt) + direction * np.sin(tt), -x * np.sin(tt) + direction * np.cos(tt)
    if abs(gxx + 1.0) < 1e-9:
        return x * np.cosh(tt) + direction * np.sinh(tt), x * np.sinh(tt) + direction * np.cosh(tt)
    if abs(gxx) < 1e-9:
        return x + tt * direction, np.tile(direction, (2, 1))
    raise ValueError("geodesic initial velocity must be unit or null")


def bracket_field_checks_oracle(model, s_field, t_field) -> BracketFieldReport:
    """bracket_field_checks as one batched frame call per sample point and
    one bracket vector per end point."""
    h, n = model.step, model.n
    conformal, killing_vec, geodesic = [], [], []
    for point in model.sample_points(12):
        x, patch, frame = point.x, point.patch, point.frame
        probes = [geodesic_probe(model, x, e) for e in frame.T[:2]]
        ends = [model.curve(x, frame.T, h), model.curve(x, frame.T, -h)]
        ends += [points for points, _ in probes]
        brackets = brackets_at(model, s_field, t_field, np.concatenate(ends), patch)
        nablas = []
        for i, e in enumerate(frame.T):
            nablas.append(tangential_difference(model, x, brackets[i], brackets[n + i]))
            conformal.append(abs(model.g_hat(e, nablas[-1])))
        for i, j in combinations_with_replacement(range(n), 2):
            sym = model.g_hat(nablas[i], frame[:, j]) + model.g_hat(nablas[j], frame[:, i])
            killing_vec.append(abs(sym))
        for k, (_, (v_plus, v_minus)) in enumerate(probes):
            plus, minus = brackets[2 * n + 2 * k : 2 * n + 2 * k + 2]
            contraction = model.g_hat(v_plus, plus) - model.g_hat(v_minus, minus)
            geodesic.append(abs(contraction / (2.0 * h)))
    return BracketFieldReport(
        conformal_residual=_worst(conformal),
        killing_vector_residual=_worst(killing_vec),
        geodesic_residual=_worst(geodesic),
    )


def homogeneity_span_oracle(model, fields):
    """homogeneity_span with one bracket vector per pair of fields."""
    dims = []
    for point in model.sample_points(8):
        values = [s.eval(model, point.x, point.patch) for s in fields]
        mat = np.array(
            [
                bracket_vector(model, point.frame, point.gammas, s_val, t_val)
                for s_val in values
                for t_val in values
            ]
        )
        svals = np.linalg.svd(mat, compute_uv=False)
        scale = svals[0] if svals.size and svals[0] > 0 else 1.0
        dims.append(int(np.sum(svals > 1e-6 * scale)))
    return dims


def scalar_curvature_residual_oracle(model, killing_number) -> float:
    """scalar_curvature_residual with one frame call per sample point and
    scal summed pair by pair."""
    residuals = []
    target = 4.0 * model.n * (model.n - 1) * killing_number**2
    h = model.step
    eta_base = np.array(model.base_signature.eta(), float)
    for point in model.sample_points(8):
        x, patch, frame = point.x, point.patch, point.frame
        ends = np.concatenate([model.curve(x, frame.T, h), model.curve(x, frame.T, -h)])
        frames = model.tangent_frame(ends, [patch] * len(ends))
        de = (frames[: model.n] - frames[model.n :]) / (2.0 * h)
        alpha = model.g_hat(np.swapaxes(de, 1, 2), x)
        scal = 0.0
        for i in range(model.n):
            for j in range(model.n):
                if i != j:
                    scal += eta_base[i] * eta_base[j] * (
                        alpha[i, i] * alpha[j, j] - alpha[i, j] ** 2
                    )
        residuals.append(abs(scal - target))
    return _worst(residuals)
