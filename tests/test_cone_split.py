import dataclasses
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from spinorlab.clifford_core import (
    Signature,
    build_rep,
    clifford_relation_failures,
    even_subalgebra_images,
    gamma_blade,
    null_direction,
)
from spinorlab import cone_split
from spinorlab.cone_split import (
    invariant_spinors,
    null_plane_rotations,
    semispinor_projectors,
)
from spinorlab.exact_linalg import SignedPerm, signed_relation_basis
from dense_oracle import Matrix, dense, dense_cells, dense_scalar, is_zero, rank, zero_matrix
from test_clifford_core import gamma_alternating
from test_exact_linalg import bareiss_rank

THIS = sys.modules[__name__]

# Tensor factorization of the complex Clifford algebra, checked on Pauli
# chains.  A complex phase monomial i^e P, P a real signed permutation, is
# kept as the pair (P, K) with K = J^e in {+-Id_2, +-J}, and acts on
# C^d = R^2d as its realification P.kron(K).  Realification is an
# injective ring map, so products, relations and scalar checks carry over
# exactly.
_ID2 = SignedPerm.identity(2)
_J = SignedPerm((1, 0), (1, -1))  # [[0, -1], [1, 0]]: i acting on C = R^2
_SX = (SignedPerm((1, 0), (1, 1)), _ID2)
_SY = (_J, _J)  # [[0, -i], [i, 0]] = i [[0, -1], [1, 0]]
_SZ = (SignedPerm((0, 1), (1, -1)), _ID2)


def _identity(d):
    return SignedPerm.identity(d), _ID2


def _mul(a, b):
    return a[0] * b[0], a[1] * b[1]


def _kron(a, b):
    return a[0].kron(b[0]), a[1] * b[1]


def _times_i(a):
    return a[0], a[1] * _J


def _realify(a) -> SignedPerm:
    return a[0].kron(a[1])


def _product(factors, d):
    out = _identity(d)
    for f in factors:
        out = _mul(out, f)
    return out


def _squares_to(a):
    return _realify(_mul(a, a)).is_scalar_multiple_of_identity()


def _pauli_chain(total, position, op):
    out = _identity(1)
    for slot in range(total):
        out = _kron(out, _SZ if slot < position else op if slot == position else _identity(2))
    return out


def complex_clifford_rep(m: int):
    """Generators of the complex Clifford algebra on m generators squaring
    to -Id, plus the grading involution; dimension 2^ceil(m/2).

    Each generator is i times a Pauli chain and the grading a chain of
    sigma_z, all as (P, K) pairs (see _realify)."""
    qubits = (m + 1) // 2
    gens = [_times_i(_pauli_chain(qubits, k // 2, _SY if k % 2 else _SX)) for k in range(m)]
    # the grading is the sigma_z string over every qubit
    return gens, _pauli_chain(qubits, qubits, None)


def _check_complex_clifford(images):
    failures = clifford_relation_failures([_realify(x) for x in images], (1,) * len(images))
    return "relation({},{})".format(*failures[0]) if failures else None


@dataclass(frozen=True)
class GradedTensorReport:
    n1: int
    n2: int
    case: str  # "ungraded" or "graded"
    relations_ok: bool
    xi_squares_to_minus_id: bool | None
    eigenspace_dims: tuple | None
    dims: dict
    failures: tuple

    @property
    def ok(self):
        return self.relations_ok and not self.failures


def graded_tensor_check(n1: int, n2: int) -> GradedTensorReport:
    """Verify the tensor factorization of the complex Clifford algebra on
    an orthogonal splitting into pieces of sizes n1, n2.

    When a piece is even-dimensional the plain tensor product is checked
    on generators; when both are odd the graded tensor product is built
    with the Koszul rule and the central even element xi is analyzed:
    xi^2 = -Id with +-i eigenspaces of equal dimension.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("need n1, n2 >= 1")
    gens1, grading1 = complex_clifford_rep(n1)
    gens2, grading2 = complex_clifford_rep(n2)
    d1 = len(grading1[0].perm)
    d2 = len(grading2[0].perm)
    failures = []
    if n1 % 2 == 0 or n2 % 2 == 0:
        if n1 % 2 == 1:  # make the even factor first
            swapped = graded_tensor_check(n2, n1)
            return dataclasses.replace(swapped, n1=n1, n2=n2)
        vol1 = _product(gens1, d1)
        if _squares_to(vol1) == -1:
            vol1 = _times_i(vol1)
        images = [_kron(g, _identity(d2)) for g in gens1]
        images += [_kron(vol1, k) for k in gens2]
        err = _check_complex_clifford(images)
        if err:
            failures.append(err)
        dims = {
            "module": d1 * d2,
            "factor_1": d1,
            "factor_2": d2,
            "direct": len(complex_clifford_rep(n1 + n2)[1][0].perm),
        }
        return GradedTensorReport(
            n1=n1,
            n2=n2,
            case="ungraded",
            relations_ok=not failures,
            xi_squares_to_minus_id=None,
            eigenspace_dims=None,
            dims=dims,
            failures=tuple(failures),
        )
    # both odd: graded tensor product via the grading twist
    images = [_kron(g, _identity(d2)) for g in gens1]
    images += [_kron(grading1, k) for k in gens2]
    dim = d1 * d2
    # the relation check covers the Koszul rule: a cross pair (a (x) 1,
    # grading (x) b) must anticommute, the sign of moving odd b past odd a
    err = _check_complex_clifford(images)
    if err:
        failures.append(err)
    xi = _product(images, dim)
    if _squares_to(xi) == 1:
        xi = _times_i(xi)
    xi_ok = _squares_to(xi) == -1
    # centrality in the even part: xi commutes with generator pairs
    x = _realify(xi)
    real = [_realify(g) for g in images]
    if any(x * a * b != a * b * x for a in real for b in real):
        failures.append("xi_not_central_in_even_part")
    # restrict xi to the even part, the +1 eigenspace of the total grading;
    # the +-i eigenspaces of xi there are the kernels of x -+ i Id, each of
    # twice the complex dimension after realification
    total_grading = _realify(_kron(grading1, grading2))
    even = [r for r, s in enumerate(total_grading.signs) if s == 1]

    def even_block(m: SignedPerm) -> Matrix:
        cells = dense(m).data
        return Matrix([[cells[r][c] for c in even] for r in even])

    x_even = even_block(x)
    i_even = even_block(_realify(_times_i(_identity(dim))))
    eigendims = tuple((len(even) - rank((x_even - i_even.scale(sign)).data)) // 2 for sign in (1, -1))
    if eigendims[0] != eigendims[1]:
        failures.append("unequal_semi_spinor_dimensions")
    # spinor module of the even part doubles the plain product of the
    # ungraded odd-factor modules
    ungraded1 = 2 ** ((n1 - 1) // 2)
    ungraded2 = 2 ** ((n2 - 1) // 2)
    dims = {
        "module": dim,
        "even_part": len(even) // 2,
        "ungraded_product_doubled": 2 * ungraded1 * ungraded2,
    }
    if dims["even_part"] != dims["ungraded_product_doubled"]:
        failures.append("dimension_bookkeeping")
    return GradedTensorReport(
        n1=n1,
        n2=n2,
        case="graded",
        relations_ok=err is None,
        xi_squares_to_minus_id=xi_ok,
        eigenspace_dims=eigendims,
        dims=dims,
        failures=tuple(failures),
    )


def test_complex_clifford_relations():
    for m in range(1, 7):
        gens, grading = complex_clifford_rep(m)
        gens = [dense(_realify(g)) for g in gens]
        grading = dense(_realify(grading))
        dim = gens[0].rows
        assert dim == 2 * 2 ** ((m + 1) // 2)  # realified: twice the complex dimension
        ident = Matrix.identity(dim)
        for i, gi in enumerate(gens):
            for j in range(i, m):
                gj = gens[j]
                want = ident.scale(-2) if i == j else zero_matrix(dim, dim)
                assert gi * gj + gj * gi == want
            assert grading * gi == -(gi * grading)


def _numpy_pauli_rep(m):
    """i times the Pauli chains Z..Z (X or Y) 1..1, and the Z string, in complex128."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1, -1]).astype(complex)
    qubits = (m + 1) // 2

    def chain(position, op):
        out = np.eye(1, dtype=complex)
        for slot in range(qubits):
            out = np.kron(out, z if slot < position else op if slot == position else np.eye(2))
        return out

    return [1j * chain(k // 2, y if k % 2 else x) for k in range(m)], chain(qubits, None)


def _numpy_realify(c):
    """Each entry a + ib becomes the 2 x 2 block [[a, -b], [b, a]]."""
    out = np.zeros((2 * c.shape[0], 2 * c.shape[1]))
    out[0::2, 0::2] = c.real
    out[0::2, 1::2] = -c.imag
    out[1::2, 0::2] = c.imag
    out[1::2, 1::2] = c.real
    return out


def test_realified_pauli_chains_match_numpy_complex():
    # entries are 0, +-1 and +-i, so the float comparison is exact
    for m in range(0, 7):
        gens, grading = complex_clifford_rep(m)
        want_gens, want_grading = _numpy_pauli_rep(m)
        assert len(gens) == len(want_gens) == m
        for got, want in zip(gens + [grading], want_gens + [want_grading]):
            as_float = np.array(dense(_realify(got)).to_lists(), dtype=float)
            assert np.array_equal(as_float, _numpy_realify(want))


def _flip_one_sign(monkeypatch, m_target, gen_index):
    original = complex_clifford_rep

    def patched(m):
        gens, grading = original(m)
        if m == m_target:
            p, k = gens[gen_index]
            gens[gen_index] = (SignedPerm(p.perm, (-p.signs[0],) + p.signs[1:]), k)
        return gens, grading

    monkeypatch.setattr(THIS, "complex_clifford_rep", patched)


@pytest.mark.parametrize("n1, n2, want", [(3, 3, "relation(0,1)"), (2, 1, "relation(0,1)")])
def test_graded_tensor_reports_a_broken_generator(monkeypatch, n1, n2, want):
    _flip_one_sign(monkeypatch, n1, 1)
    report = graded_tensor_check(n1, n2)
    assert not report.relations_ok and not report.ok
    assert report.failures[0] == want


def test_graded_tensor_reports_a_grading_that_commutes(monkeypatch):
    original = complex_clifford_rep

    def ungraded(m):
        gens, grading = original(m)
        return gens, (SignedPerm.identity(len(grading[0].perm)), grading[1])

    monkeypatch.setattr(THIS, "complex_clifford_rep", ungraded)
    report = graded_tensor_check(3, 3)
    assert report.case == "graded"
    # the cross pair (a (x) 1, 1 (x) b) of the first odd generators commutes
    assert report.relations_ok is False
    assert report.failures[0] == "relation(0,3)"
    assert not report.ok


def test_graded_tensor_odd_odd():
    report = graded_tensor_check(1, 1)
    assert report.case == "graded"
    assert report.ok
    assert report.xi_squares_to_minus_id
    assert report.eigenspace_dims == (1, 1)


def test_graded_tensor_ungraded_case():
    report = graded_tensor_check(2, 1)
    assert report.case == "ungraded"
    assert report.ok
    report2 = graded_tensor_check(1, 2)  # even factor moved first internally
    assert report2.ok
    assert (report2.n1, report2.n2) == (1, 2)


def test_graded_tensor_dimension_doubling():
    report = graded_tensor_check(3, 3)
    assert report.ok
    assert report.dims["even_part"] == report.dims["ungraded_product_doubled"]
    assert report.eigenspace_dims[0] == report.eigenspace_dims[1]


def test_graded_tensor_more_cases():
    for n1, n2 in [(1, 3), (3, 1), (2, 2), (2, 4), (1, 5), (3, 2)]:
        assert graded_tensor_check(n1, n2).ok, (n1, n2)


def test_graded_tensor_xi_on_odd_pairs():
    # the product of all generators squares to +Id when n1 + n2 = 0 mod 4,
    # so there xi is i times it
    for n1 in (1, 3, 5):
        for n2 in (1, 3, 5):
            report = graded_tensor_check(n1, n2)
            half = report.dims["even_part"] // 2
            assert report.xi_squares_to_minus_id is True, (n1, n2)
            assert report.eigenspace_dims == (half, half), (n1, n2)


def test_invariant_spinors_empty_list():
    rep = build_rep(Signature(2, 1))
    assert invariant_spinors(rep, []) == rep.N


def _operator_dense(terms, N):
    """The dense sum of a list of (coefficient, SignedPerm) terms."""
    out = zero_matrix(N, N)
    for c, g in terms:
        out = out + dense(g).scale(c)
    return out


def _joint_kernel_dim(rep, operators):
    """N minus the Bareiss rank of the stacked dense operators."""
    rows = [row for op in operators for row in _operator_dense(op, rep.N).data]
    return rep.N - (bareiss_rank(Matrix(rows)) if rows else 0)


def test_invariant_spinors_full_rotation_algebra():
    rep = build_rep(Signature(3, 0))
    rotations = [[(1, gamma_blade(rep, (i, j)))] for i in range(3) for j in range(i + 1, 3)]
    assert invariant_spinors(rep, rotations) == _joint_kernel_dim(rep, rotations) == 0


def test_null_plane_invariants_lorentzian_cones():
    # one positive plus one negative direction in the null plane; the rest
    # definite: every Lorentzian-type cone signature with p+q <= 9
    for n in range(3, 10):
        for (p, q) in [(1, n - 1), (n - 1, 1)]:
            rep = build_rep(Signature(p, q))
            rotations = null_plane_rotations(rep)
            # each is the action of p ^ e_j, j outside the hyperbolic plane
            p_vec = null_direction(rep.signature)
            directions = [j for j in range(n) if j not in (0, p)]
            for j, rotation in zip(directions, rotations, strict=True):
                e = [int(a == j) for a in range(n)]
                assert _operator_dense(rotation, rep.N) == gamma_alternating(rep, [p_vec, e]), (p, q, j)
            dim = invariant_spinors(rep, rotations)
            assert 2 * dim == rep.N, f"({p},{q})"
            if n <= 6:
                assert dim == _joint_kernel_dim(rep, rotations), f"({p},{q})"


def test_null_plane_scale_invariance():
    rep = build_rep(Signature(1, 4))
    rotations = null_plane_rotations(rep)
    scaled = [[(2 * c, g) for c, g in r] for r in rotations]
    assert invariant_spinors(rep, rotations) == invariant_spinors(rep, scaled)


def _dense_involution(candidates, N):
    """Oracle: the first non-scalar involution among the dense candidates,
    then among the differences x - y of two of them, in order, squared
    as dense products; None if there is none."""
    ident = Matrix.identity(N)
    seen = []
    for x in candidates:
        if dense_scalar(x) is not None:
            continue
        if (x * x) == ident:
            return x
        seen.append(x)
    for i, x in enumerate(seen):
        for y in seen[i + 1 :]:
            z = x - y
            if dense_scalar(z) is None and z * z == ident:
                return z
    return None


def _dense_candidates(cone):
    """The even commutant basis as dense matrices, led by the base volume
    element when it is central in the even action."""
    N = cone.N
    images = even_subalgebra_images(cone)
    candidates = [dense_cells(x, N) for x in signed_relation_basis(N, [(e, e) for e in images])]
    omega = gamma_blade(cone, ())
    for e in images:
        omega = omega * e
    if all(e * omega == omega * e for e in images):
        candidates.insert(0, dense(omega))
    return candidates


def test_find_involution_tries_only_monomial_differences():
    cases = [
        # x - y has rows 1 and 2 in the shared column 1, and is no dense
        # involution; a merge overwriting that column would read diag(1, -1, -1)
        ([{0: (0, 1), 1: (2, 1)}, {1: (1, 1), 2: (2, 1)}], 3, None),
        ([{0: (1, 1)}, {1: (0, -1)}], 2, SignedPerm((1, 0), (1, 1))),  # the swap
        ([{0: (0, 1)}, {1: (0, 1)}], 2, None),  # disjoint columns, one row
    ]
    for candidates, N, want in cases:
        assert cone_split._find_involution(candidates, N) == want
        found = _dense_involution([dense_cells(x, N) for x in candidates], N)
        assert found == (None if want is None else dense(want))


def test_semispinor_residue_rule_all_bases(monkeypatch):
    # the involution z behind each split gives the projectors (Id +- z)/2
    found = []
    find = cone_split._find_involution

    def recording(candidates, N):
        found.append(find(candidates, N))
        return found[-1]

    monkeypatch.setattr(cone_split, "_find_involution", recording)
    for n in range(1, 10):  # every cone with n <= 10
        for p in range(n + 1):
            base = Signature(p, n - p)
            cone = build_rep(Signature(p + 1, n - p))
            report = semispinor_projectors(cone)
            assert report.split == (base.s_mod8 in (0, 1, 3, 7)), str(base)
            # the quoted residue lists disagree exactly on the s = 0 bases
            assert report.quoted_list_agrees == (base.s_mod8 != 0), str(base)
            assert report.split == (found[-1] is not None), str(base)
            # the dense search picks the same z, so the same split
            want = _dense_involution(_dense_candidates(cone), cone.N)
            assert (want is None) == (found[-1] is None), str(base)
            if report.split:
                z = dense(found[-1])
                assert z == want, str(base)
                ident = Matrix.identity(cone.N)
                p_plus, p_minus = (ident + z, ident - z)  # twice the projectors
                assert (p_plus + p_minus) == ident.scale(2)
                assert is_zero(p_plus * p_minus)
                for proj in (p_plus, p_minus):
                    assert proj * proj == proj.scale(2)
                    assert 2 * rank(proj.data) == cone.N
                    # the library reads the rank off the trace of z
                    assert rank(proj.data) == sum(proj[i, i] for i in range(cone.N)) // 2


def test_semispinor_specific_cases():
    # base s = 2 mod 8: irreducible restriction
    assert not semispinor_projectors(build_rep(Signature(3, 0))).split
    # base s = 3 mod 8: splits into inequivalent halves
    assert semispinor_projectors(build_rep(Signature(4, 0))).split
    # base s = 1 mod 8 (equivalent halves): splits
    assert semispinor_projectors(build_rep(Signature(2, 0))).split
    # base s = 0 mod 8: the module dimension doubles, so the restriction
    # splits even though the quoted list places it with the irreducible
    # cases; the projectors certify the split
    r = semispinor_projectors(build_rep(Signature(2, 1)))
    assert r.split and not r.quoted_list_agrees
    assert build_rep(Signature(2, 1)).N == 2 * build_rep(Signature(1, 1)).N


def _mixed_sign_diagonal(N):
    return SignedPerm(tuple(range(N)), (1,) * (N // 2) + (-1,) * (N // 2))


@pytest.mark.parametrize(
    "bad_z, message",
    [
        # swaps columns 2k, 2k + 1 with signs +1, -1: z^2 = -Id
        (lambda N: SignedPerm(tuple(j ^ 1 for j in range(N)), (1, -1) * (N // 2)), "not idempotent"),
        (lambda N: SignedPerm.identity(N), "rank is not N/2"),  # z^2 = Id, trivial split
        (_mixed_sign_diagonal, "does not commute with the even action"),  # z^2 = Id
    ],
)
def test_semispinor_projector_checks_reject_a_bad_involution(bad_z, message, monkeypatch):
    # (4,0) splits by the residue rule, so a planted z reaches the
    # projector checks instead of the split/residue comparison
    cone = build_rep(Signature(4, 0))
    monkeypatch.setattr("spinorlab.cone_split._find_involution", lambda cands, N: bad_z(N))
    with pytest.raises(ArithmeticError, match=message):
        semispinor_projectors(cone)


def test_volume_flip_parity():
    # the volume element commutes with every generator for n odd and
    # anticommutes for n even: the sign behind the Killing-number flip
    for sig, sign in ((Signature(2, 0), -1), (Signature(2, 1), 1)):
        rep = build_rep(sig)
        nu = gamma_blade(rep, range(rep.n))
        assert all(nu * g == g * nu for g in rep.generators) == (sign == 1)
        assert all(nu * g == -(g * nu) for g in rep.generators) == (sign == -1)
