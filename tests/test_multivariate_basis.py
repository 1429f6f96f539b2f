"""Unit tests for the multivariate orthonormal basis and design matrices."""

import math
from collections.abc import Sequence

import numpy as np
import pytest

from repro.backends.oracle import oracle_design_matrix
from repro.basis import OrthonormalBasis


class TestConstruction:
    def test_linear_size(self):
        assert OrthonormalBasis.linear(20).size == 21

    def test_linear_without_constant(self):
        assert OrthonormalBasis.linear(20, include_constant=False).size == 20

    def test_total_degree_size(self):
        assert OrthonormalBasis.total_degree(4, 2).size == 15  # C(6,2)

    def test_len_matches_size(self):
        basis = OrthonormalBasis.linear(7)
        assert len(basis) == basis.size

    def test_is_linear(self):
        assert OrthonormalBasis.linear(5).is_linear()
        assert not OrthonormalBasis.total_degree(3, 2).is_linear()

    @pytest.mark.parametrize(
        "basis, linear",
        [(OrthonormalBasis.linear(50), True), (OrthonormalBasis.total_degree(3, 2), False)],
    )
    def test_is_linear_reads_no_index_after_construction(self, basis, linear):
        """Linearity is decided at construction, not per call."""

        class CountingIndices(Sequence):
            def __init__(self, items):
                self.items = list(items)
                self.reads = 0

            def __len__(self):
                return len(self.items)

            def __getitem__(self, position):
                self.reads += 1
                return self.items[position]

        counting = CountingIndices(basis.indices)
        basis.indices = counting
        assert basis.is_linear() is linear
        assert counting.reads == 0

    def test_max_degree(self):
        assert OrthonormalBasis.linear(5).max_degree == 1
        assert OrthonormalBasis.total_degree(3, 4).max_degree == 4

    def test_total_degrees(self):
        basis = OrthonormalBasis.total_degree(2, 2)
        degrees = basis.total_degrees()
        assert degrees[0] == 0
        assert set(degrees[1:3]) == {1}
        assert set(degrees[3:]) == {2}

    def test_equality(self):
        assert OrthonormalBasis.linear(4) == OrthonormalBasis.linear(4)
        assert OrthonormalBasis.linear(4) != OrthonormalBasis.linear(5)

    def test_invalid_indices_rejected(self):
        with pytest.raises(ValueError):
            OrthonormalBasis(2, [((3, 1),)])


class TestDesignMatrix:
    def test_linear_design_structure(self, rng):
        basis = OrthonormalBasis.linear(4)
        x = rng.standard_normal((10, 4))
        design = basis.design_matrix(x)
        assert design.shape == (10, 5)
        assert np.allclose(design[:, 0], 1.0)
        assert np.allclose(design[:, 1:], x)

    def test_single_sample_promoted(self):
        basis = OrthonormalBasis.linear(3)
        design = basis.design_matrix(np.zeros(3))
        assert design.shape == (1, 4)

    def test_wrong_width_rejected(self, rng):
        basis = OrthonormalBasis.linear(3)
        with pytest.raises(ValueError, match=r"\(K, 3\)"):
            basis.design_matrix(rng.standard_normal((5, 4)))

    def test_column_subset(self, rng):
        basis = OrthonormalBasis.linear(5)
        x = rng.standard_normal((7, 5))
        full = basis.design_matrix(x)
        subset = basis.design_matrix(x, columns=[0, 3, 5])
        assert np.allclose(subset, full[:, [0, 3, 5]])

    def test_quadratic_columns_match_hermite_products(self, rng):
        basis = OrthonormalBasis.total_degree(2, 2)
        x = rng.standard_normal((20, 2))
        design = basis.design_matrix(x)
        # Find the (x1^2 - 1)/sqrt(2) column.
        col = basis.index_of(((0, 2),))
        assert np.allclose(design[:, col], (x[:, 0] ** 2 - 1) / math.sqrt(2))
        # And the cross term x1 * x2.
        col = basis.index_of(((0, 1), (1, 1)))
        assert np.allclose(design[:, col], x[:, 0] * x[:, 1])

    def test_generic_path_matches_linear_fast_path(self, rng):
        """A linear basis expressed with an extra degree-2 term falls back
        to the generic path; its linear columns must agree with the fast
        path of a purely linear basis."""
        x = rng.standard_normal((15, 3))
        linear = OrthonormalBasis.linear(3)
        mixed = OrthonormalBasis(
            3, list(linear.indices) + [((0, 2),)]
        )
        fast = linear.design_matrix(x)
        generic = mixed.design_matrix(x)
        assert np.allclose(generic[:, : linear.size], fast)

    def test_generator_columns_materialized_once(self, rng):
        """A generator argument must not be exhausted before assembly."""
        basis = OrthonormalBasis.total_degree(3, 2)
        x = rng.standard_normal((12, 3))
        full = basis.design_matrix(x)
        subset = basis.design_matrix(x, columns=(c for c in [1, 4, 7]))
        assert subset.shape == (12, 3)
        assert np.allclose(subset, full[:, [1, 4, 7]])

    def test_negative_columns_normalized(self, rng):
        basis = OrthonormalBasis.total_degree(2, 2)
        x = rng.standard_normal((9, 2))
        full = basis.design_matrix(x)
        assert np.allclose(
            basis.design_matrix(x, columns=[-1, 0]),
            full[:, [basis.size - 1, 0]],
        )

    def test_out_of_range_column_rejected(self, rng):
        basis = OrthonormalBasis.total_degree(2, 2)
        x = rng.standard_normal((4, 2))
        with pytest.raises(IndexError, match="out of range"):
            basis.design_matrix(x, columns=[basis.size])
        with pytest.raises(IndexError, match="out of range"):
            basis.design_matrix(x, columns=[-basis.size - 1])

    def test_float_columns_rejected_not_truncated(self, rng):
        """A float column index raises as numpy indexing does, instead of
        being truncated to a neighbouring column."""
        basis = OrthonormalBasis.linear(3)
        x = rng.standard_normal((4, 3))
        with pytest.raises(TypeError):
            basis.design_matrix(x, columns=[1.7, 2.2])
        with pytest.raises(TypeError):
            basis.design_matrix(x, columns=np.array([0.0, 3.9]))
        full = basis.design_matrix(x)
        assert np.array_equal(
            basis.design_matrix(x, columns=np.array([3, -4], dtype=np.int32)),
            full[:, [3, 0]],
        )

    def test_hermite_tables_sized_to_selected_columns(self, rng, monkeypatch):
        """Requesting only low-degree columns must not build full tables."""
        import repro.basis.multivariate as multivariate

        seen = []
        original = multivariate.hermite_orthonormal_all

        def recording(max_degree, x):
            seen.append(max_degree)
            return original(max_degree, x)

        monkeypatch.setattr(multivariate, "hermite_orthonormal_all", recording)
        basis = OrthonormalBasis.total_degree(3, 5)
        x = rng.standard_normal((10, 3))
        linear_columns = [
            m for m, idx in enumerate(basis.indices)
            if sum(d for _, d in idx) <= 1
        ]
        basis.design_matrix(x, columns=linear_columns)
        assert seen == [1]

    def test_vectorized_matches_loop_reference(self, rng):
        """The grouped assembly, and the linear fast path at degree 1, must
        reproduce the oracle's per-column loop bit for bit."""
        for num_vars, degree in [(4, 3), (2, 5), (5, 1), (3, 2)]:
            basis = OrthonormalBasis.total_degree(num_vars, degree)
            x = rng.standard_normal((17, num_vars))
            assert np.array_equal(
                basis.design_matrix(x), oracle_design_matrix(basis, x)
            ), (num_vars, degree)

    def test_vectorized_matches_loop_on_subsets(self, rng):
        basis = OrthonormalBasis.total_degree(4, 3)
        columns = list(rng.choice(basis.size, size=11, replace=False))
        x = rng.standard_normal((13, 4))
        assert np.allclose(
            basis.design_matrix(x, columns=columns),
            oracle_design_matrix(basis, x)[:, columns],
        )

    def test_vectorized_matches_loop_on_sparse_basis(self, rng):
        """Irregular custom index sets exercise the gather fallback."""
        basis = OrthonormalBasis(
            5,
            [
                (),
                ((0, 2),),
                ((1, 1), (3, 2)),
                ((0, 1), (2, 1), (4, 1)),
                ((4, 3),),
            ],
        )
        x = rng.standard_normal((21, 5))
        assert np.allclose(basis.design_matrix(x), oracle_design_matrix(basis, x))

    def test_single_row_samples(self, rng):
        basis = OrthonormalBasis.total_degree(3, 3)
        x = rng.standard_normal((1, 3))
        assert np.allclose(basis.design_matrix(x), oracle_design_matrix(basis, x))

    def test_empty_column_selection(self, rng):
        basis = OrthonormalBasis.total_degree(2, 2)
        design = basis.design_matrix(rng.standard_normal((6, 2)), columns=[])
        assert design.shape == (6, 0)

    def test_gram_is_identity_under_gaussian(self, rng):
        """Monte Carlo orthonormality: G^T G / K -> I (eq. 3)."""
        basis = OrthonormalBasis.total_degree(3, 2)
        x = rng.standard_normal((200_000, 3))
        design = basis.design_matrix(x)
        gram = design.T @ design / x.shape[0]
        assert np.allclose(gram, np.eye(basis.size), atol=0.05)


class TestLinearAssembly:
    """Linear bases are written by one slice copy of ``x`` when their
    variable columns are contiguous and gathered otherwise; both must
    equal the oracle's per-column loop bit for bit."""

    R = 6

    @pytest.mark.parametrize("num_samples", [0, 1, 7, 300])
    def test_linear_basis_matches_oracle(self, rng, num_samples):
        basis = OrthonormalBasis.linear(self.R)
        x = rng.standard_normal((num_samples, self.R))
        design = basis.design_matrix(x)
        assert design.shape == (num_samples, self.R + 1)
        assert np.array_equal(design, oracle_design_matrix(basis, x))

    def test_without_constant_matches_oracle(self, rng):
        basis = OrthonormalBasis.linear(self.R, include_constant=False)
        x = rng.standard_normal((9, self.R))
        assert np.array_equal(basis.design_matrix(x), oracle_design_matrix(basis, x))
        assert np.array_equal(basis.design_matrix(x), x)

    def test_strided_samples_match_oracle(self, rng):
        basis = OrthonormalBasis.linear(self.R)
        wide = rng.standard_normal((11, 2 * self.R))
        for x in (np.asfortranarray(wide[:, : self.R]), wide[:, ::2]):
            assert np.array_equal(
                basis.design_matrix(x), oracle_design_matrix(basis, x)
            )

    def test_permuted_variables_match_oracle(self, rng):
        order = [3, 0, 5, 1, 4, 2]
        basis = OrthonormalBasis(self.R, [((v, 1),) for v in order] + [()])
        x = rng.standard_normal((8, self.R))
        design = basis.design_matrix(x)
        assert np.array_equal(design, oracle_design_matrix(basis, x))
        assert np.array_equal(design[:, :-1], x[:, order])

    @pytest.mark.parametrize(
        "columns", [[0, 3, 4, 5], [2, 3, 4], [0, 2, 5], [1, 3, 6]],
        ids=["const-then-run", "run-off-zero", "gaps", "gaps-no-const"],
    )
    def test_restricted_bases_match_oracle(self, rng, columns):
        restricted = OrthonormalBasis.linear(self.R).restricted_to(columns)
        x = rng.standard_normal((10, self.R))
        assert np.array_equal(
            restricted.design_matrix(x), oracle_design_matrix(restricted, x)
        )

    @pytest.mark.parametrize(
        "columns",
        [[2, 2, 3], [0, 0, 1, 2], [-1, -2, 0], [6, 5, 4, 3, 2, 1, 0], [1, 0, 2]],
        ids=["duplicates", "duplicate-constant", "negative", "reversed",
             "constant-between"],
    )
    def test_column_selections_match_oracle(self, rng, columns):
        basis = OrthonormalBasis.linear(self.R)
        x = rng.standard_normal((12, self.R))
        wanted = [c % basis.size for c in columns]
        assert np.array_equal(
            basis.design_matrix(x, columns=columns),
            oracle_design_matrix(basis, x)[:, wanted],
        )

    def test_fusion_problem_basis_matches_oracle(self, rng, tiny_ro):
        from repro.circuits.modeling import FusionProblem

        basis = FusionProblem(tiny_ro, "power").late_basis
        x = rng.standard_normal((40, basis.num_vars))
        assert np.array_equal(basis.design_matrix(x), oracle_design_matrix(basis, x))

    def test_fused_predict_on_one_row_matches_oracle(self, rng):
        basis = OrthonormalBasis.linear(self.R)
        x = rng.standard_normal((1, self.R))
        coefficients = rng.standard_normal(basis.size)
        assert np.array_equal(
            basis.fused_predict(x, coefficients),
            oracle_design_matrix(basis, x) @ coefficients,
        )


class TestEvaluate:
    def test_linear_combination(self, rng):
        basis = OrthonormalBasis.linear(4)
        coeffs = rng.standard_normal(5)
        x = rng.standard_normal((9, 4))
        expected = coeffs[0] + x @ coeffs[1:]
        assert np.allclose(basis.evaluate(coeffs, x), expected)

    def test_single_sample_returns_scalar(self):
        basis = OrthonormalBasis.linear(2)
        value = basis.evaluate(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0]))
        assert np.isscalar(value) or value.ndim == 0
        assert float(value) == pytest.approx(6.0)

    def test_wrong_coefficient_count_rejected(self):
        basis = OrthonormalBasis.linear(3)
        with pytest.raises(ValueError, match="4 coefficients"):
            basis.evaluate(np.zeros(7), np.zeros(3))


class TestStructureHelpers:
    def test_index_of_found(self):
        basis = OrthonormalBasis.linear(3)
        assert basis.index_of(((1, 1),)) == 2

    def test_index_of_missing(self):
        basis = OrthonormalBasis.linear(3)
        with pytest.raises(KeyError):
            basis.index_of(((0, 2),))

    def test_restricted_to(self, rng):
        basis = OrthonormalBasis.linear(5)
        restricted = basis.restricted_to([0, 2, 4])
        assert restricted.size == 3
        x = rng.standard_normal((6, 5))
        assert np.allclose(
            restricted.design_matrix(x), basis.design_matrix(x)[:, [0, 2, 4]]
        )
