from fractions import Fraction

import numpy as np
import pytest

from spinorlab.clifford_core import (
    Signature,
    build_rep,
    wedge_vectors,
)
from spinorlab import cone_split
from spinorlab.cone_split import (
    _realify,
    complex_clifford_rep,
    graded_tensor_check,
    invariant_spinors,
    null_plane_rotations,
    semispinor_projectors,
    volume_flip_degree,
)
from spinorlab.exact_linalg import Matrix, SignedPerm


def test_complex_clifford_relations():
    for m in range(1, 7):
        gens, grading = complex_clifford_rep(m)
        gens = [_realify(g).dense() for g in gens]
        grading = _realify(grading).dense()
        dim = gens[0].rows
        assert dim == 2 * 2 ** ((m + 1) // 2)  # realified: twice the complex dimension
        ident = Matrix.identity(dim)
        for i, gi in enumerate(gens):
            for j in range(i, m):
                gj = gens[j]
                want = ident.scale(-2) if i == j else Matrix.zero(dim, dim)
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
            dense = np.array(_realify(got).dense().to_lists(), dtype=float)
            assert np.array_equal(dense, _numpy_realify(want))


def _flip_one_sign(monkeypatch, m_target, gen_index):
    original = cone_split.complex_clifford_rep

    def patched(m):
        gens, grading = original(m)
        if m == m_target:
            p, k = gens[gen_index]
            gens[gen_index] = (SignedPerm(p.perm, (-p.signs[0],) + p.signs[1:]), k)
        return gens, grading

    monkeypatch.setattr(cone_split, "complex_clifford_rep", patched)


@pytest.mark.parametrize("n1, n2, want", [(3, 3, "relation(0,1)"), (2, 1, "relation(0,1)")])
def test_graded_tensor_reports_a_broken_generator(monkeypatch, n1, n2, want):
    _flip_one_sign(monkeypatch, n1, 1)
    report = graded_tensor_check(n1, n2)
    assert not report.relations_ok and not report.ok
    assert report.failures[0] == want


def test_graded_tensor_reports_a_grading_that_commutes(monkeypatch):
    original = cone_split.complex_clifford_rep

    def ungraded(m):
        gens, grading = original(m)
        return gens, (SignedPerm.identity(len(grading[0].perm)), grading[1])

    monkeypatch.setattr(cone_split, "complex_clifford_rep", ungraded)
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
    dim, basis = invariant_spinors(rep, [])
    assert dim == rep.N


def test_invariant_spinors_full_rotation_algebra():
    rep = build_rep(Signature(3, 0))
    bivs = []
    for i in range(3):
        for j in range(i + 1, 3):
            ei = [1 if a == i else 0 for a in range(3)]
            ej = [1 if a == j else 0 for a in range(3)]
            bivs.append(wedge_vectors([ei, ej]))
    dim, _ = invariant_spinors(rep, bivs)
    assert dim == 0


def test_null_plane_invariants_lorentzian_cones():
    # one positive plus one negative direction in the null plane; the rest
    # definite: every Lorentzian-type cone signature with p+q <= 9
    for n in range(3, 10):
        for (p, q) in [(1, n - 1), (n - 1, 1)]:
            rep = build_rep(Signature(p, q))
            bivs = null_plane_rotations(rep)
            assert len(bivs) == n - 2
            dim, _ = invariant_spinors(rep, bivs)
            assert 2 * dim == rep.N, f"({p},{q})"


def test_null_plane_scale_invariance():
    rep = build_rep(Signature(1, 4))
    bivs = null_plane_rotations(rep)
    dim, _ = invariant_spinors(rep, bivs)
    scaled = [b.scale(2) for b in bivs]
    dim2, _ = invariant_spinors(rep, scaled)
    assert dim == dim2


def test_semispinor_residue_rule_all_bases():
    for n in range(1, 9):
        for p in range(n + 1):
            base = Signature(p, n - p)
            cone = build_rep(Signature(p + 1, n - p))
            report = semispinor_projectors(cone)
            assert report.split == (base.s_mod8 in (0, 1, 3, 7)), str(base)
            # the quoted residue lists disagree exactly on the s = 0 bases
            assert report.quoted_list_agrees == (base.s_mod8 != 0), str(base)
            if report.split:
                p_plus, p_minus = report.projectors
                assert (p_plus + p_minus) == Matrix.identity(cone.N)
                assert (p_plus * p_minus).is_zero()
                for proj in report.projectors:
                    assert proj * proj == proj
                    assert all(type(x) is Fraction for row in proj.data for x in row)


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
    return Matrix.diagonal([1] * (N // 2) + [-1] * (N // 2))


@pytest.mark.parametrize(
    "bad_z, message",
    [
        (lambda N: Matrix.zero(N, N), "not idempotent"),  # z^2 = 0
        (lambda N: Matrix.identity(N).scale(2), "not idempotent"),  # z^2 = 4 Id
        (lambda N: Matrix.identity(N), "rank is not N/2"),  # z^2 = Id, trivial split
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
    even = volume_flip_degree(build_rep(Signature(2, 0)))
    assert even.anticommutes and not even.commutes
    odd = volume_flip_degree(build_rep(Signature(2, 1)))
    assert odd.commutes and not odd.anticommutes
