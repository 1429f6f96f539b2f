"""Differential tests: SequentialBmf must not depend on sample batching.

The same stream of late-stage samples is fed one at a time, in uneven
chunks, and all at once; with ``deterministic=True`` the recorded
``cv_error_history`` and the final coefficients must be **bitwise**
identical at matching sample counts, and in the default (BLAS) mode they
must agree to tight tolerances.  Also pins down the incremental-vs-full
refit equivalence, the conditioning fallback, and the frozen-config
regression (constructor arrays snapshotted, not captured by reference).
"""

import numpy as np
import pytest

from repro.basis import OrthonormalBasis
from repro.bmf import GaussianCoefficientPrior, SequentialBmf
from repro.runtime.metrics import metrics as runtime_metrics

BATCHINGS = [
    [4] + [1] * 20,          # one sample at a time
    [4, 7, 3, 10],           # uneven chunks
    [24],                    # all at once
]


@pytest.fixture(scope="module")
def stream():
    """A fixed synthetic late-stage sample stream with an early-stage prior."""
    rng = np.random.default_rng(20130603)
    basis = OrthonormalBasis.total_degree(4, 2)
    x = rng.normal(size=(24, 4))
    truth = rng.normal(size=basis.size)
    f = basis.design_matrix(x) @ truth + 0.02 * rng.normal(size=24)
    alpha_early = truth + 0.05 * rng.normal(size=basis.size)
    return basis, x, f, alpha_early


def drive(stream, batches, **kwargs):
    basis, x, f, alpha_early = stream
    sequential = SequentialBmf(basis, alpha_early, **kwargs)
    offset = 0
    for batch in batches:
        sequential.add_samples(x[offset : offset + batch], f[offset : offset + batch])
        offset += batch
    return sequential


def history_by_count(sequential):
    return dict(zip(sequential.sample_count_history, sequential.cv_error_history))


class TestBitwiseDeterministic:
    @pytest.mark.parametrize("mode", ["cv", "fixed-eta"])
    def test_batching_invariance_is_bitwise(self, stream, mode):
        if mode == "cv":
            kwargs = dict(deterministic=True)
        else:
            kwargs = dict(deterministic=True, prior_kind="nonzero-mean", eta=0.5)
        runs = [drive(stream, batches, **kwargs) for batches in BATCHINGS]
        reference = runs[0]
        reference_history = history_by_count(reference)
        for other in runs[1:]:
            # Coefficients: bitwise, not just close.
            assert np.array_equal(
                reference.model.coefficients_, other.model.coefficients_
            )
            assert reference.model.chosen_eta_ == other.model.chosen_eta_
            assert reference.model.chosen_prior_.name == other.model.chosen_prior_.name
            # CV history: bitwise equal wherever the sample counts line up.
            other_history = history_by_count(other)
            common = set(reference_history) & set(other_history)
            assert common  # the final count always lines up
            for count in common:
                assert reference_history[count] == other_history[count]

    def test_deterministic_matches_default_mode_closely(self, stream):
        det = drive(stream, BATCHINGS[1], deterministic=True)
        blas = drive(stream, BATCHINGS[1], deterministic=False)
        assert np.allclose(
            det.model.coefficients_, blas.model.coefficients_, rtol=1e-9, atol=1e-12
        )

    def test_default_mode_batchings_agree_within_tolerance(self, stream):
        runs = [drive(stream, batches) for batches in BATCHINGS]
        for other in runs[1:]:
            assert np.allclose(
                runs[0].model.coefficients_,
                other.model.coefficients_,
                rtol=1e-8,
                atol=1e-11,
            )


class TestIncrementalEquivalence:
    def test_incremental_matches_full_refits(self, stream):
        incremental = drive(stream, BATCHINGS[1], incremental=True)
        full = drive(stream, BATCHINGS[1], incremental=False)
        assert incremental.last_refit_mode == "incremental"
        assert full.last_refit_mode == "full"
        assert np.allclose(
            incremental.model.coefficients_,
            full.model.coefficients_,
            rtol=1e-9,
            atol=1e-12,
        )
        assert np.allclose(
            incremental.cv_error_history, full.cv_error_history, rtol=1e-9
        )

    def test_incremental_refit_metric_increments(self, stream):
        before = runtime_metrics.snapshot().get("woodbury.incremental_refits", 0)
        sequential = drive(stream, BATCHINGS[1], incremental=True)
        after = runtime_metrics.snapshot().get("woodbury.incremental_refits", 0)
        # First batch builds from scratch; the three that follow extend.
        assert after - before >= len(BATCHINGS[1]) - 1
        assert sequential.sample_count_history == [4, 11, 14, 24]

    def test_evidence_selection_disables_incremental_path(self, stream):
        sequential = drive(
            stream, [8, 8], prior_kind="nonzero-mean", selection="evidence"
        )
        assert sequential.last_refit_mode == "full"


class TestConditioningFallback:
    def test_degenerate_new_row_falls_back_to_full_refit(self):
        rng = np.random.default_rng(99)
        basis = OrthonormalBasis.total_degree(2, 1)  # terms: 1, x1, x2
        prior = GaussianCoefficientPrior(
            np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]), name="pinned"
        )
        sequential = SequentialBmf(basis, priors=[prior])
        x = rng.normal(size=(8, 2))
        f = 1.0 + x @ np.array([0.5, -0.3]) + 0.01 * rng.normal(size=8)
        sequential.add_samples(x, f)
        assert sequential.last_refit_mode == "full"
        before = runtime_metrics.snapshot().get("woodbury.fallbacks", 0)
        # The constant term is pinned (zero prior scale), so a sample at the
        # origin has an exactly zero scaled-kernel diagonal entry: the
        # conditioning guard must reject the border update.
        sequential.add_samples(np.zeros((1, 2)), np.array([1.0]))
        after = runtime_metrics.snapshot().get("woodbury.fallbacks", 0)
        assert sequential.last_refit_mode == "fallback"
        assert after - before >= 1
        # The fallback still produced a usable model.
        assert np.isfinite(sequential.cv_error_history[-1])
        healthy = rng.normal(size=(1, 2))
        sequential.add_samples(healthy, 1.0 + healthy @ np.array([0.5, -0.3]))
        assert sequential.last_refit_mode == "incremental"

    def test_empty_batch_checks_no_earlier_row(self):
        # The guard scans only the appended diagonal entries: an empty batch
        # appends none, so the origin row accepted earlier cannot trigger a
        # rebuild of every kernel.
        rng = np.random.default_rng(99)
        basis = OrthonormalBasis.total_degree(2, 1)
        prior = GaussianCoefficientPrior(
            np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]), name="pinned"
        )
        sequential = SequentialBmf(basis, priors=[prior])
        x = rng.normal(size=(8, 2))
        sequential.add_samples(
            x, 1.0 + x @ np.array([0.5, -0.3]) + 0.01 * rng.normal(size=8)
        )
        sequential.add_samples(np.zeros((1, 2)), np.array([1.0]))
        healthy = rng.normal(size=(1, 2))
        sequential.add_samples(healthy, 1.0 + healthy @ np.array([0.5, -0.3]))
        assert sequential.last_refit_mode == "incremental"
        before = runtime_metrics.counters("woodbury.")
        sequential.add_samples(np.zeros((0, 2)), np.zeros(0))
        after = runtime_metrics.counters("woodbury.")
        assert sequential.last_refit_mode == "incremental"
        assert after.get("woodbury.fallbacks", 0) == before.get(
            "woodbury.fallbacks", 0
        )
        assert sequential.num_samples == 10


class TestFrozenConfig:
    def test_constructor_arrays_are_snapshotted(self, stream):
        basis, x, f, alpha_early = stream
        mutable_alpha = alpha_early.copy()
        mutable_missing = [1, 2]
        clean = SequentialBmf(basis, alpha_early.copy(), missing_indices=[1, 2])
        dirty = SequentialBmf(basis, mutable_alpha, missing_indices=mutable_missing)
        # Mutate the caller-owned inputs *after* construction; the old
        # lambda-closure factory would have seen these on every refit.
        mutable_alpha[:] = 1e6
        mutable_missing.append(3)
        for sequential in (clean, dirty):
            sequential.add_samples(x[:10], f[:10])
        assert np.array_equal(
            clean.model.coefficients_, dirty.model.coefficients_
        )

    def test_config_is_immutable(self, stream):
        basis, x, f, alpha_early = stream
        sequential = SequentialBmf(basis, alpha_early, missing_indices=[0])
        config = sequential.config
        assert not config.alpha_early.flags.writeable
        assert config.missing_indices == (0,)
        with pytest.raises(Exception):
            config.n_folds = 2  # frozen dataclass
        with pytest.raises((TypeError, ValueError)):
            config.alpha_early[0] = 5.0  # read-only array
        with pytest.raises(TypeError):
            config.regressor_kwargs["eta"] = 1.0  # mapping proxy
