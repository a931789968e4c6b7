import warnings

import numpy as np
import pytest

from quasi_collocation import defect_weights
from sympulse.tableau import (
    MAX_STAGES,
    PerturbationSpec,
    QuadratureRule,
    affine_parts,
    butcher,
    gauss_core,
    gauss_quadrature,
    legendre_basis,
    subdiagonal_coupling,
)

# classical closed-form Gauss tableaux, independent of the package's
# Legendre-basis construction path
GAUSS_A = {
    1: np.array([[0.5]]),
    2: np.array(
        [
            [1 / 4, 1 / 4 - np.sqrt(3) / 6],
            [1 / 4 + np.sqrt(3) / 6, 1 / 4],
        ]
    ),
    3: np.array(
        [
            [5 / 36, 2 / 9 - np.sqrt(15) / 15, 5 / 36 - np.sqrt(15) / 30],
            [5 / 36 + np.sqrt(15) / 24, 2 / 9, 5 / 36 - np.sqrt(15) / 24],
            [5 / 36 + np.sqrt(15) / 30, 2 / 9 + np.sqrt(15) / 15, 5 / 36],
        ]
    ),
}
GAUSS_C = {
    1: np.array([0.5]),
    2: np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6]),
    3: np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10]),
}
GAUSS_B = {
    1: np.array([1.0]),
    2: np.array([0.5, 0.5]),
    3: np.array([5 / 18, 4 / 9, 5 / 18]),
}


def collocation_integral_matrix(c):
    """Oracle: a_ij = integral of the j-th Lagrange cardinal polynomial on
    [0, c_i], evaluated through explicit polynomial coefficients."""
    s = len(c)
    A = np.zeros((s, s))
    for j in range(s):
        coeffs = np.array([1.0])
        denom = 1.0
        for k in range(s):
            if k == j:
                continue
            coeffs = np.polymul(coeffs, np.array([1.0, -c[k]]))
            denom *= c[j] - c[k]
        integral = np.polyint(coeffs / denom)
        for i in range(s):
            A[i, j] = np.polyval(integral, c[i])
    return A


class TestGaussQuadrature:
    def test_one_point_is_midpoint(self):
        q = gauss_quadrature(1)
        assert q.c == pytest.approx([0.5], abs=0)
        assert q.b == pytest.approx([1.0], abs=0)

    @pytest.mark.parametrize("s", [2, 3])
    def test_closed_forms(self, s):
        q = gauss_quadrature(s)
        np.testing.assert_allclose(q.c, GAUSS_C[s], rtol=0, atol=1e-15)
        np.testing.assert_allclose(q.b, GAUSS_B[s], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("s", range(1, MAX_STAGES + 1))
    def test_invariants(self, s):
        q = gauss_quadrature(s)
        assert np.all(np.diff(q.c) > 0)
        assert np.all((q.c > 0) & (q.c < 1))
        assert np.all(q.b > 0)
        assert abs(q.b.sum() - 1.0) <= 1e-14
        np.testing.assert_allclose(q.c + q.c[::-1], 1.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(q.b, q.b[::-1], rtol=0, atol=1e-14)
        # exactness up to degree 2s-1
        for degree in range(2 * s):
            moment = np.sum(q.b * q.c**degree)
            assert abs(moment - 1.0 / (degree + 1)) <= 1e-13

    @pytest.mark.parametrize("s", range(1, MAX_STAGES + 1))
    def test_against_numpy_leggauss(self, s):
        x, w = np.polynomial.legendre.leggauss(s)
        q = gauss_quadrature(s)
        np.testing.assert_allclose(q.c, (x + 1) / 2, rtol=0, atol=5e-15)
        np.testing.assert_allclose(q.b, w / 2, rtol=0, atol=5e-15)

    @pytest.mark.parametrize("s", [0, -1, MAX_STAGES + 1, 2.5, "3"])
    def test_rejects_bad_stage_counts(self, s):
        with pytest.raises(ValueError):
            gauss_quadrature(s)


class TestLegendreBasis:
    def test_one_stage(self):
        basis = legendre_basis(gauss_quadrature(1))
        np.testing.assert_allclose(basis.P, [[1.0]], atol=1e-15)

    def test_two_stages(self):
        basis = legendre_basis(gauss_quadrature(2))
        np.testing.assert_allclose(basis.P, [[1.0, -1.0], [1.0, 1.0]], atol=1e-14)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_discrete_orthonormality(self, s):
        q = gauss_quadrature(s)
        basis = legendre_basis(q)
        gram = basis.P.T @ np.diag(q.b) @ basis.P
        assert np.max(np.abs(gram - np.eye(s))) <= 1e-13
        assert np.max(np.abs(basis.P @ basis.Pinv - np.eye(s))) <= 1e-13
        np.testing.assert_allclose(basis.P[:, 0], 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("s", range(2, 9))
    def test_inverse_is_weighted_transpose(self, s):
        q = gauss_quadrature(s)
        basis = legendre_basis(q)
        np.testing.assert_allclose(basis.Pinv, basis.P.T @ np.diag(q.b), atol=1e-15)


class TestGaussCore:
    def test_first_coupling_value(self):
        assert subdiagonal_coupling(1) == pytest.approx(0.2886751345948129, abs=1e-16)

    def test_numpy_integers_give_the_int_results(self):
        assert subdiagonal_coupling(np.int64(3)) == subdiagonal_coupling(3)
        assert gauss_core(np.int32(4)).tobytes() == gauss_core(4).tobytes()
        assert gauss_core(MAX_STAGES).shape == (MAX_STAGES, MAX_STAGES)

    @pytest.mark.parametrize("s", [0, -1, MAX_STAGES + 1])
    def test_core_rejects_out_of_range_stage_counts(self, s):
        with pytest.raises(ValueError, match="stage count .* outside 1.."):
            gauss_core(s)

    @pytest.mark.parametrize("s", [True, 2.0, "3", None])
    def test_core_rejects_a_stage_count_that_is_not_an_integer(self, s):
        with pytest.raises(ValueError, match="stage count must be an integer"):
            gauss_core(s)

    @pytest.mark.parametrize("j", [0, -1, MAX_STAGES])
    def test_coupling_rejects_an_index_outside_the_cores(self, j):
        # j = 0 used to return NaN with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coupling index .* outside 1.."):
                subdiagonal_coupling(j)

    @pytest.mark.parametrize("j", [1.5, 1.0, True, "1"])
    def test_coupling_rejects_an_index_that_is_not_an_integer(self, j):
        with pytest.raises(ValueError, match="coupling index must be an integer"):
            subdiagonal_coupling(j)

    def test_one_stage(self):
        np.testing.assert_allclose(gauss_core(1), [[0.5]], atol=0)

    def test_two_stages(self):
        xi = 1.0 / (2.0 * np.sqrt(3.0))
        np.testing.assert_allclose(gauss_core(2), [[0.5, -xi], [xi, 0.0]], atol=1e-16)

    def test_sparsity_pattern(self):
        X = gauss_core(5)
        assert X[0, 0] == 0.5
        for j in range(1, 5):
            assert X[j, j - 1] == -X[j - 1, j]
            assert X[j, j - 1] == pytest.approx(subdiagonal_coupling(j))
        mask = np.ones((5, 5), dtype=bool)
        mask[0, 0] = False
        idx = np.arange(4)
        mask[idx + 1, idx] = False
        mask[idx, idx + 1] = False
        assert np.all(X[mask] == 0.0)


# the three ways to build a spec, each from its stage count alone
SPEC_BUILDERS = [
    lambda s: PerturbationSpec(s, 1, 0.1),
    PerturbationSpec.none,
    lambda s: PerturbationSpec.single(s, 1, 0.1),
]


class TestPerturbationSpec:
    def test_matrix_is_skew(self):
        for index, value in ((1, 0.3), (3, -0.7)):
            W = PerturbationSpec(4, index, value).matrix
            assert np.max(np.abs(W + W.T)) == 0.0
            assert W[index - 1, index] == value

    def test_empty_is_zero(self):
        spec = PerturbationSpec.none(3)
        assert np.all(spec.matrix == 0.0)

    @pytest.mark.parametrize("index", [0, 3, -1])
    def test_rejects_out_of_range_indices(self, index):
        # a zero value does not excuse the index: only none(s) has no coupling
        for value in (0.1, 0.0):
            with pytest.raises(ValueError):
                PerturbationSpec.single(3, index, value)

    @pytest.mark.parametrize("index", [1.7, 1.0, 0.0, True, False])
    def test_rejects_an_index_that_is_not_an_integer(self, index):
        # the rule gauss_quadrature applies to s: an index is never truncated
        for value in (0.1, 0.0):
            with pytest.raises(ValueError, match="perturbation index must be an integer"):
                PerturbationSpec(3, index, value)
            with pytest.raises(ValueError, match="perturbation index must be an integer"):
                PerturbationSpec.single(3, index, value)

    def test_numpy_integer_index_is_stored_as_int(self):
        spec = PerturbationSpec(3, np.int64(2), 0.1)
        assert type(spec.index) is int and spec == PerturbationSpec(3, 2, 0.1)

    @pytest.mark.parametrize("build", SPEC_BUILDERS, ids=["init", "none", "single"])
    @pytest.mark.parametrize("s", [2.5, True, "3", 0, -3, MAX_STAGES + 1])
    def test_rejects_a_bad_stage_count(self, build, s):
        with pytest.raises(ValueError, match="stage count"):
            build(s)

    @pytest.mark.parametrize("build", SPEC_BUILDERS, ids=["init", "none", "single"])
    def test_numpy_integer_stage_count_is_stored_as_int(self, build):
        spec = build(np.int32(3))
        assert type(spec.s) is int and spec == build(3)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_a_value_that_is_not_finite(self, value):
        with pytest.raises(ValueError, match="perturbation value must be finite"):
            PerturbationSpec(3, 1, value)
        # the spec, not the tableau, is where it is caught
        with pytest.raises(ValueError, match="perturbation value must be finite"):
            butcher(gauss_quadrature(2), PerturbationSpec.single(2, 1, value))


class TestButcher:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_unperturbed_matches_closed_form(self, s):
        tab = butcher(gauss_quadrature(s), PerturbationSpec.none(s))
        np.testing.assert_allclose(tab.A, GAUSS_A[s], rtol=0, atol=1e-14)
        assert tab.order == 2 * s

    @pytest.mark.parametrize("s", range(1, 7))
    def test_unperturbed_matches_collocation_integrals(self, s):
        q = gauss_quadrature(s)
        tab = butcher(q, PerturbationSpec.none(s))
        oracle = collocation_integral_matrix(q.c)
        # the power-basis oracle itself loses digits as the degree grows
        tol = 1e-14 if s <= 4 else 1e-12
        assert np.max(np.abs(tab.A - oracle)) <= tol

    @pytest.mark.parametrize("s", range(1, 9))
    def test_unperturbed_row_sums_are_nodes(self, s):
        q = gauss_quadrature(s)
        tab = butcher(q, PerturbationSpec.none(s))
        np.testing.assert_allclose(tab.A.sum(axis=1), q.c, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_symplecticity_identity_random_alpha(self, s):
        q = gauss_quadrature(s)
        omega = np.diag(q.b)
        rng = np.random.default_rng(1234 + s)
        worst = 0.0
        for alpha in rng.uniform(-1.0, 1.0, 100):
            if s == 1:
                pert = PerturbationSpec.none(1)
            else:
                pert = PerturbationSpec.single(s, s - 1, alpha)
            tab = butcher(q, pert)
            identity = omega @ tab.A + tab.A.T @ omega - np.outer(q.b, q.b)
            worst = max(worst, np.max(np.abs(identity)))
        assert worst <= 1e-13

    def test_trace_is_half_for_any_perturbation(self):
        q = gauss_quadrature(4)
        for alpha in (0.0, 0.4, -3.0):
            tab = butcher(q, PerturbationSpec.single(4, 2, alpha))
            assert np.trace(tab.A) == pytest.approx(0.5, abs=1e-13)

    def test_perturbation_is_linear_in_alpha(self):
        q = gauss_quadrature(3)
        base = butcher(q, PerturbationSpec.none(3)).A
        direction = butcher(q, PerturbationSpec.single(3, 2, 1.0)).A - base
        for alpha in (1e-3, -0.2, 0.7):
            tab = butcher(q, PerturbationSpec.single(3, 2, alpha))
            np.testing.assert_allclose(tab.A, base + alpha * direction, atol=1e-13)

    @pytest.mark.parametrize("s", range(2, 9))
    def test_affine_assembly_matches_transformed_core(self, s):
        # reference: the tableau transformed back from the perturbed core,
        # A = P (core + W) P^{-1}, built afresh for every value
        q = gauss_quadrature(s)
        basis = legendre_basis(q)
        rng = np.random.default_rng(99 + s)
        for index in range(1, s):
            for alpha in rng.uniform(-0.5, 0.5, 10):
                pert = PerturbationSpec.single(s, index, alpha)
                reference = basis.P @ (gauss_core(s) + pert.matrix) @ basis.Pinv
                assert np.max(np.abs(butcher(q, pert).A - reference)) <= 1e-15

    def test_order_bookkeeping(self):
        q = gauss_quadrature(3)
        assert butcher(q, PerturbationSpec.none(3)).order == 6
        assert butcher(q, PerturbationSpec.single(3, 2, 0.1)).order == 4
        assert butcher(q, PerturbationSpec.single(3, 1, 0.1)).order == 2
        # a zero value leaves the method the plain Gauss one
        assert butcher(q, PerturbationSpec.single(3, 2, 0.0)).order == 6

    def test_stage_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            butcher(gauss_quadrature(3), PerturbationSpec.none(2))

    @pytest.mark.parametrize(
        "c, b",
        [
            (gauss_quadrature(3).c.copy(), gauss_quadrature(3).b.copy()),
            (np.array([0.25, 0.5, 0.75]), np.full(3, 1.0 / 3.0)),
        ],
        ids=["gauss-copy", "equispaced"],
    )
    def test_hand_built_rule_rejected(self, c, b):
        # P^{-1} = P^T diag(b) needs Gauss orthogonality, so only the rules
        # gauss_quadrature builds are accepted, even a copy of one
        rule = QuadratureRule(s=3, c=c, b=b)
        with pytest.raises(ValueError, match="gauss_quadrature"):
            butcher(rule, PerturbationSpec.none(3))
        with pytest.raises(ValueError, match="gauss_quadrature"):
            affine_parts(rule, 1)
        with pytest.raises(ValueError, match="gauss_quadrature"):
            legendre_basis(rule)


class TestAffineParts:
    @pytest.mark.parametrize("s", range(2, 7))
    def test_line_through_the_parts_is_the_single_tableau(self, s):
        # bit for bit: the root search builds its tableaux from the parts
        q = gauss_quadrature(s)
        for index in range(1, s):
            A0, D = affine_parts(q, index)
            assert A0.shape == D.shape == (s, s)
            assert A0 is butcher(q, PerturbationSpec.none(s)).A
            for value in (1e-3, -2e-3, -0.2, 0.7, 3.0):
                single = butcher(q, PerturbationSpec.single(s, index, value))
                assert (A0 + value * D).tobytes() == single.A.tobytes()

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_stack_members_are_the_single_tableaux(self, s):
        q = gauss_quadrature(s)
        values = (0.0, 1e-3, -0.2)
        for index in range(1, s):
            A0, D = affine_parts(q, index)
            stack = A0 + np.multiply.outer(values, D)
            assert stack.shape == (len(values), s, s)
            for A, value in zip(stack, values):
                single = butcher(q, PerturbationSpec.single(s, index, value))
                assert A.tobytes() == single.A.tobytes()

    def test_arrays_are_read_only(self):
        A0, D = affine_parts(gauss_quadrature(3), 2)
        for a in (A0, D):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_numpy_integer_index_gives_the_int_parts(self):
        q = gauss_quadrature(3)
        assert all(a is b for a, b in zip(affine_parts(q, np.int64(2)), affine_parts(q, 2)))

    @pytest.mark.parametrize("index", [0, 3, -1])
    def test_rejects_out_of_range_indices(self, index):
        with pytest.raises(ValueError, match="outside 1..2"):
            affine_parts(gauss_quadrature(3), index)

    @pytest.mark.parametrize("index", [1.0, 1.5, True, "1", None])
    def test_rejects_an_index_that_is_not_an_integer(self, index):
        with pytest.raises(ValueError, match="perturbation index must be an integer"):
            affine_parts(gauss_quadrature(3), index)

    def test_one_stage_has_no_coupling(self):
        with pytest.raises(ValueError):
            affine_parts(gauss_quadrature(1), 1)


class TestDefectWeights:
    @pytest.mark.parametrize("s", range(2, 7))
    def test_defining_equation(self, s):
        q = gauss_quadrature(s)
        basis = legendre_basis(q)
        A = butcher(q, PerturbationSpec.none(s)).A
        for index in (1, s - 1):
            G = defect_weights(q, index)
            W = PerturbationSpec.single(s, index, 1.0).matrix
            rhs = basis.P @ W @ basis.Pinv
            assert np.max(np.abs(A @ G - rhs)) <= 1e-12

    def test_two_stage_closed_form(self):
        q = gauss_quadrature(2)
        basis = legendre_basis(q)
        W = PerturbationSpec.single(2, 1, 1.0).matrix
        expected = basis.P @ np.linalg.inv(gauss_core(2)) @ W @ basis.Pinv
        np.testing.assert_allclose(defect_weights(q), expected, atol=1e-13)

    def test_single_stage_rejected(self):
        with pytest.raises(ValueError):
            defect_weights(gauss_quadrature(1))
