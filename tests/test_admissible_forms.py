import dataclasses

import pytest

from spinorlab import admissible_forms
from spinorlab.admissible_forms import (
    find_admissible,
    first_nondegenerate,
    nondegenerate_tau_exists,
)
from spinorlab.clifford_core import Signature, blade_index_list, build_rep, gamma_blade
from spinorlab.exact_linalg import SignedPerm, signed_relation_basis
from dense_oracle import Matrix, dense, is_zero, matrix_kernel, rank


def all_signatures(max_n):
    for n in range(1, max_n + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def all_admissible(rep):
    """All four (sigma, tau) solution spaces in a fixed scan order."""
    out = {}
    for sigma in (1, -1):
        for tau in (-1, 1):
            out[(sigma, tau)] = find_admissible(rep, sigma, tau)
    return out


def polyvector_type_rule_check(rep, form, k):
    """gamma_xi^T H == tau^k (-1)^(k(k-1)/2) H gamma_xi on all basis
    k-blades, as dense products."""
    sign = (form.tau ** k) * ((-1) ** (k * (k - 1) // 2))
    h = dense(form.matrix)
    for indices in blade_index_list(rep.n, k):
        g = dense(gamma_blade(rep, indices))
        if g.transpose() * h != (h * g).scale(sign):
            return False
    return True


def test_one_generator_full_table():
    rep = build_rep(Signature(1, 0))
    dims = {
        (sigma, tau): len(find_admissible(rep, sigma, tau))
        for sigma in (1, -1)
        for tau in (1, -1)
    }
    assert dims == {(1, -1): 1, (-1, -1): 1, (1, 1): 2, (-1, 1): 0}


def test_forms_satisfy_constraints():
    for sig in all_signatures(6):
        rep = build_rep(sig)
        for (sigma, tau), forms in all_admissible(rep).items():
            for form in forms:
                assert (form.sigma, form.tau) == (sigma, tau)
                h = dense(form.matrix)
                assert h.transpose() == h.scale(sigma)
                for g in rep.generators:
                    g = dense(g)
                    assert g.transpose() * h == (h * g).scale(tau)


def admissible_space_dense(rep, sigma: int, tau: int) -> int:
    """Dimension of the same solution space from a stacked dense kernel.

    Independent brute-force oracle; quadratic memory in N^2, so meant
    for small modules.
    """
    N = rep.N
    rows = []
    for g in rep.generators:
        g = dense(g)
        gt = g.transpose()
        for r in range(N):
            for s in range(N):
                row = [0] * (N * N)
                for k in range(N):
                    if gt.data[r][k]:
                        row[k * N + s] += gt.data[r][k]
                    if g.data[k][s]:
                        row[r * N + k] -= tau * g.data[k][s]
                rows.append(row)
    for r in range(N):
        for s in range(N):
            row = [0] * (N * N)
            row[r * N + s] += 1
            row[s * N + r] -= sigma
            rows.append(row)
    return matrix_kernel(Matrix(rows)).cols


def test_solution_dims_match_dense_oracle():
    # brute-force constraint stack cross-check on the small modules
    for sig in all_signatures(5):
        rep = build_rep(sig)
        for sigma in (1, -1):
            for tau in (1, -1):
                fast = len(find_admissible(rep, sigma, tau))
                dense = admissible_space_dense(rep, sigma, tau)
                assert fast == dense, (str(sig), sigma, tau)


def test_admissible_dimension_counts_the_walks_basis():
    # the character count against the orbit walk's basis length, for
    # every (sigma, tau) on every rep with n <= 10
    for sig in all_signatures(10):
        rep = build_rep(sig)
        gens = rep.generators
        for sigma in (1, -1):
            for tau in (1, -1):
                walked = signed_relation_basis(gens, gens.transpose(), tau, sigma)
                assert admissible_forms.admissible_dimension(rep, sigma, tau) == len(walked), (str(sig), sigma, tau)


def test_admissible_dimension_raises_on_a_non_integral_count():
    # one generator, a 3-cycle: N^2 / 2 = 9/2 forms, which no space has
    rep = dataclasses.replace(build_rep(Signature(1, 0)), generators=SignedPerm([[1, 2, 0]], [[1, 1, 1]]))
    for sigma in (1, -1):
        for tau in (1, -1):
            with pytest.raises(ArithmeticError, match="not an integer"):
                admissible_forms.admissible_dimension(rep, sigma, tau)
    with pytest.raises(ValueError, match="sigma and tau"):
        admissible_forms.admissible_dimension(build_rep(Signature(1, 0)), 0, 1)


def test_existence_of_nondegenerate_form():
    for sig in all_signatures(8):
        rep = build_rep(sig)
        form = first_nondegenerate(rep)
        assert rank(dense(form.matrix).data) == rep.N


def test_tau_minus_exclusion_rule():
    for sig in all_signatures(8):
        rep = build_rep(sig)
        exists = nondegenerate_tau_exists(rep, -1)
        excluded = sig.n % 4 == 1 and sig.s % 4 == 3
        assert exists == (not excluded), str(sig)


def test_definite_tau_minus_has_definite_representative():
    for sig in [Signature(2, 0), Signature(3, 0), Signature(4, 0)]:
        rep = build_rep(sig)
        found = None
        for sigma in (1, -1):
            for form in find_admissible(rep, sigma, -1):
                if form.sigma == 1:
                    found = form
        assert found is not None
        assert _is_definite(dense(found.matrix))


def _is_definite(h):
    n = h.rows
    for sign in (1, -1):
        m = [[sign * x for x in row] for row in h.data]
        ok = True
        for k in range(n):
            if m[k][k] <= 0:
                ok = False
                break
            piv = m[k][k]
            for i in range(k + 1, n):
                f = m[i][k]
                if f:
                    for j in range(k, n):
                        m[i][j] = m[i][j] - m[k][j] * f / piv
        if ok:
            return True
    return False


def test_spin23_tau_minus_absent():
    rep = build_rep(Signature(2, 3))
    assert find_admissible(rep, 1, -1) == ()
    assert find_admissible(rep, -1, -1) == ()


def test_polyvector_type_rule():
    rep = build_rep(Signature(2, 3))
    form = first_nondegenerate(rep, tau=1)
    assert polyvector_type_rule_check(rep, form, 0)
    assert polyvector_type_rule_check(rep, form, 1)
    assert polyvector_type_rule_check(rep, form, 2)
    assert polyvector_type_rule_check(rep, form, 3)


def j_invariant_form(rep, js):
    """The (unique up to scale) type +1 form with
    h(J_a s, t) + h(s, J_a t) = 0 for the quaternion triple js = (J_1, J_2, J_3).

    Skewness with respect to each J_a is equivalent to invariance
    H = J_a^T H J_a given J_a^2 = -Id.  The skewness conditions on the
    type +1 basis forms are solved by a dense coefficient kernel, which
    must be one-dimensional and select exactly one basis form; that form
    is returned after its identities are checked exactly.
    """
    candidates = []
    for sigma in (1, -1):
        candidates.extend(find_admissible(rep, sigma, 1))
    if not candidates:
        raise ValueError("no type +1 admissible forms")
    constraint_mats = []
    for h in candidates:
        flat = []
        for j in js:
            c = dense(j.transpose() * h.matrix) + dense(h.matrix * j)
            flat.extend(x for row in c.data for x in row)
        constraint_mats.append(flat)
    coeff_kernel = matrix_kernel(Matrix(constraint_mats).transpose())
    if coeff_kernel.cols != 1:
        raise ArithmeticError(
            f"J-invariant solution space has dimension {coeff_kernel.cols}, expected 1"
        )
    selected = [form for c, form in zip(coeff_kernel.col(0), candidates) if c]
    if len(selected) != 1:
        raise ArithmeticError(
            f"J-invariant form combines {len(selected)} basis forms, expected 1"
        )
    form = selected[0]
    h = form.matrix
    # verify the five identities exactly
    for j in js:
        if j.transpose() * h != -(h * j):
            raise ArithmeticError("skew identity failed")
        if j.transpose() * h * j != h:
            raise ArithmeticError("invariance identity failed")
    for g in rep.generators:
        if g.transpose() * h != h * g:
            raise ArithmeticError("type identity failed")
    return form


def test_j_invariant_form():
    # n = 1 mod 4 and s = 3 mod 8: quaternionic commutant signature
    sig = Signature(4, 1)
    rep = build_rep(sig)
    assert sig.n % 4 == 1 and sig.s % 8 == 3
    assert rep.commutant_type == "H"
    form = j_invariant_form(rep, rep.commutant_basis)
    assert form.tau == 1
    h = dense(form.matrix)
    assert rank(h.data) == rep.N
    for j in rep.commutant_basis:
        j = dense(j)
        assert j.transpose() * h * j == h
        assert is_zero(j.transpose() * h + h * j)


def test_every_basis_form_has_full_rank():
    # elimination agrees that every signed-permutation form is invertible
    for sig in all_signatures(7):
        rep = build_rep(sig)
        for sigma in (1, -1):
            for tau in (1, -1):
                for form in find_admissible(rep, sigma, tau):
                    assert rank(dense(form.matrix).data) == rep.N, str(sig)


def test_planted_orbit_bases_must_be_signed_permutations(monkeypatch):
    # (1,0), N = 2, has two forms with (sigma, tau) = (1, 1): a planted
    # walk must return two signed permutations
    rep = build_rep(Signature(1, 0))
    monomial = [
        {1: (0, 1), 0: (1, 1)},
        {0: (0, 1), 1: (1, -1)},
    ]
    not_monomial = [
        {0: (0, 1), 1: (0, 1)},  # both in row 0
        {0: (0, 1)},  # too few columns
        {0: (0, 2), 1: (1, 1)},  # not a unit sign
    ]
    target = "spinorlab.admissible_forms.signed_relation_basis"
    with monkeypatch.context() as patch:
        find_admissible.cache_clear()  # solve afresh with each planted walker
        patch.setattr(target, lambda left, right, c, sigma: monomial)
        forms = find_admissible(rep, 1, 1)
        assert [dense(f.matrix).to_lists() for f in forms] == [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]
        for element in not_monomial:
            find_admissible.cache_clear()
            patch.setattr(target, lambda left, right, c, sigma: [element, monomial[1]])
            with pytest.raises(ArithmeticError, match=r"\(1,0\) with \(sigma, tau\) = \(1, 1\) is not"):
                find_admissible(rep, 1, 1)
        # signed permutations, one fewer than the count
        find_admissible.cache_clear()
        patch.setattr(target, lambda left, right, c, sigma: monomial[:1])
        with pytest.raises(ArithmeticError, match=r"1 admissible forms of \(1,0\) .* where the count is 2"):
            find_admissible(rep, 1, 1)
    find_admissible.cache_clear()  # drop the planted forms
    # two rows in one column: the walk itself refuses the orbit, here
    # {(0, 2), (1, 2), (2, 0), (2, 1)} of a generator that fixes column 2
    swap = SignedPerm([[1, 0, 2]], [[1, 1, 1]])
    planted = dataclasses.replace(rep, generators=swap)
    with pytest.raises(ArithmeticError, match="two rows in column 2"):
        find_admissible(planted, 1, 1)


def test_find_admissible_is_solved_once_per_rep_and_form_type(monkeypatch):
    rep = build_rep(Signature(2, 3))
    find_admissible.cache_clear()
    solves = []
    original = admissible_forms.signed_relation_basis
    monkeypatch.setattr(
        admissible_forms, "signed_relation_basis", lambda *args: solves.append(args) or original(*args)
    )
    first = find_admissible(rep, -1, 1)
    assert isinstance(first, tuple) and first
    assert find_admissible(rep, -1, 1) is first
    assert len(solves) == 1
    assert find_admissible(rep, 1, 1) == ()  # another (sigma, tau), another solve
    assert len(solves) == 2
    assert first_nondegenerate(rep, tau=1) is first[0]  # both are cached now
    assert len(solves) == 2
    # a rep built by hand with the same signature is not served rep's forms
    one_generator = dataclasses.replace(rep, generators=rep.generators[:1])
    assert len(find_admissible(one_generator, -1, 1)) == 2
    assert len(solves) == 3
    find_admissible.cache_clear()  # drop the hand-built rep
