"""Property-based tests (hypothesis) for the core mathematical invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.basis import OrthonormalBasis, hermite_he
from repro.bmf import (
    FingerMap,
    map_estimate,
    map_prior_coefficients,
    nonzero_mean_prior,
    zero_mean_prior,
)
from repro.linalg import solve_diag_plus_gram, solve_diag_plus_gram_direct
from repro.regression import relative_error
from repro.regression.elastic_net import _soft_threshold


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestHermiteProperties:
    @given(st.integers(min_value=0, max_value=12), finite_floats)
    def test_recurrence_holds_pointwise(self, degree, value):
        """He_{n+1}(x) = x He_n(x) - n He_{n-1}(x) at arbitrary points."""
        x = np.array([value])
        left = hermite_he(degree + 1, x)[0]
        right = value * hermite_he(degree, x)[0]
        if degree >= 1:
            right -= degree * hermite_he(degree - 1, x)[0]
        assert left == pytest.approx(right, rel=1e-9, abs=1e-6)

    @given(st.integers(min_value=0, max_value=10))
    def test_parity(self, degree):
        """He_n is even/odd as n is even/odd."""
        x = np.linspace(0.1, 3.0, 7)
        plus = hermite_he(degree, x)
        minus = hermite_he(degree, -x)
        sign = 1.0 if degree % 2 == 0 else -1.0
        assert np.allclose(minus, sign * plus)


class TestWoodburyProperty:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_fast_equals_direct(self, num_samples, num_terms, seed, scale):
        """The solve is exact for arbitrary well-posed systems.  K < M checks
        the Woodbury dual against the direct Cholesky oracle; at K >= M the
        fast path factors that same system, so a dense LU solve checks it."""
        rng = np.random.default_rng(seed)
        design = rng.standard_normal((num_samples, num_terms))
        diag = rng.uniform(0.1, 10.0, num_terms)
        rhs = rng.standard_normal(num_terms)
        fast = solve_diag_plus_gram(diag, design, rhs, scale)
        if num_samples < num_terms:
            expected = solve_diag_plus_gram_direct(diag, design, rhs, scale)
        else:
            expected = np.linalg.solve(np.diag(diag) + scale * design.T @ design, rhs)
        reference = max(float(np.max(np.abs(expected))), 1e-12)
        assert np.max(np.abs(fast - expected)) < 1e-7 * reference


class TestMapEstimateProperties:
    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_posterior_between_prior_and_data(self, num_samples, num_terms, seed):
        """Huge eta returns the prior mean; the MAP estimate never blows up
        beyond what either the prior or the data support."""
        rng = np.random.default_rng(seed)
        design = rng.standard_normal((num_samples, num_terms))
        early = rng.standard_normal(num_terms) + 0.1
        target = design @ early + 0.01 * rng.standard_normal(num_samples)
        prior = nonzero_mean_prior(early)
        strong = map_estimate(design, target, prior, 1e12)
        assert np.allclose(strong, early, atol=1e-3 * (1 + np.abs(early)).max())

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_zero_mean_shrinks_toward_zero_with_eta(self, seed):
        """For the zero-mean prior, larger eta gives smaller coefficients."""
        rng = np.random.default_rng(seed)
        design = rng.standard_normal((8, 20))
        target = rng.standard_normal(8)
        prior = zero_mean_prior(rng.uniform(0.5, 2.0, 20))
        weak = map_estimate(design, target, prior, 1e-3)
        strong = map_estimate(design, target, prior, 1e3)
        assert np.linalg.norm(strong) <= np.linalg.norm(weak) + 1e-9


class TestPriorMappingProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_linear_energy_preserved(self, finger_counts, seed):
        """Eq. (46): alpha^2 = sum_t beta_t^2 for every mapped group."""
        rng = np.random.default_rng(seed)
        num_vars = len(finger_counts)
        basis = OrthonormalBasis.linear(num_vars)
        alpha = rng.standard_normal(basis.size)
        mapping = map_prior_coefficients(basis, alpha, FingerMap(tuple(finger_counts)))
        for m, group in enumerate(mapping.groups):
            energy = sum(mapping.beta[i] ** 2 for i in group)
            assert energy == pytest.approx(alpha[m] ** 2, rel=1e-9, abs=1e-12)

    @given(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_linear_prediction_equivalence(self, finger_counts, seed):
        """Mapped model on finger samples == early model on projected ones."""
        rng = np.random.default_rng(seed)
        num_vars = len(finger_counts)
        basis = OrthonormalBasis.linear(num_vars)
        alpha = rng.standard_normal(basis.size)
        fmap = FingerMap(tuple(finger_counts))
        mapping = map_prior_coefficients(basis, alpha, fmap)
        late = rng.standard_normal((20, fmap.num_late_vars))
        early_values = basis.evaluate(alpha, fmap.project_samples(late))
        mapped_values = mapping.late_basis.evaluate(mapping.beta, late)
        assert np.allclose(early_values, mapped_values, atol=1e-9)


class TestMetricProperties:
    @given(
        npst.arrays(
            np.float64,
            st.integers(min_value=1, max_value=30),
            elements=st.floats(min_value=-100, max_value=100),
        ),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_relative_error_scale_invariant(self, actual, factor):
        # Below ~1e-150 the squared elements inside the norm fall into the
        # subnormal range, where sqrt carries only a handful of significant
        # bits and exact scale invariance genuinely breaks down.
        if np.linalg.norm(actual) < 1e-100:
            return
        predicted = actual * 1.1 + 0.5
        original = relative_error(predicted, actual)
        scaled = relative_error(factor * predicted, factor * actual)
        assert scaled == pytest.approx(original, rel=1e-9)

    @given(finite_floats, st.floats(min_value=0, max_value=1e6))
    def test_soft_threshold_properties(self, value, threshold):
        result = _soft_threshold(value, threshold)
        # Shrinks magnitude by at most the threshold, never flips sign.
        assert abs(result) <= max(abs(value) - threshold, 0.0) + 1e-12
        assert result * value >= 0.0


class TestBasisProperties:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_design_matrix_row_independence(self, num_vars, degree, seed):
        """Each design-matrix row depends only on its own sample."""
        rng = np.random.default_rng(seed)
        basis = OrthonormalBasis.total_degree(num_vars, degree)
        x = rng.standard_normal((5, num_vars))
        full = basis.design_matrix(x)
        for k in range(5):
            row = basis.design_matrix(x[k : k + 1])
            assert np.allclose(full[k], row[0])
