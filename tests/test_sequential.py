"""Unit tests for the sequential (adaptive-budget) BMF extension."""

import numpy as np
import pytest

from repro.basis import OrthonormalBasis
from repro.bmf import SequentialBmf
from repro.circuits.base import Stage
from repro.circuits.modeling import FusionProblem
from repro.montecarlo import simulate_dataset
from repro.regression import relative_error


@pytest.fixture
def stream(rng):
    num_vars = 80
    basis = OrthonormalBasis.linear(num_vars)
    truth = np.zeros(basis.size)
    truth[0] = 5.0
    hot = rng.choice(np.arange(1, basis.size), 20, replace=False)
    truth[hot] = rng.normal(0, 0.4, 20)
    early = truth * (1 + 0.1 * rng.standard_normal(basis.size))

    def batch(size):
        x = rng.standard_normal((size, num_vars))
        f = basis.evaluate(truth, x) + 0.01 * rng.standard_normal(size)
        return x, f

    return basis, truth, early, batch


class TestSequentialBmf:
    def test_accumulates_samples(self, stream):
        basis, _truth, early, batch = stream
        seq = SequentialBmf(basis, early)
        assert seq.num_samples == 0
        seq.add_samples(*batch(10))
        seq.add_samples(*batch(15))
        assert seq.num_samples == 25
        assert seq.sample_count_history == [10, 25]

    def test_history_recorded_per_batch(self, stream):
        basis, _truth, early, batch = stream
        seq = SequentialBmf(basis, early)
        for _ in range(3):
            seq.add_samples(*batch(10))
        assert len(seq.cv_error_history) == 3
        assert all(e > 0 for e in seq.cv_error_history)

    def test_prediction_improves_with_data(self, stream, rng):
        basis, truth, early, batch = stream
        x_test = rng.standard_normal((400, basis.num_vars))
        f_test = basis.evaluate(truth, x_test)
        seq = SequentialBmf(basis, early)
        seq.add_samples(*batch(8))
        early_error = relative_error(seq.predict(x_test), f_test)
        for _ in range(5):
            seq.add_samples(*batch(20))
        late_error = relative_error(seq.predict(x_test), f_test)
        assert late_error < early_error

    def test_convergence_detection(self, stream):
        basis, _truth, early, batch = stream
        seq = SequentialBmf(basis, early)
        seq.add_samples(*batch(10))
        assert not seq.has_converged()  # too little history
        # Pump in lots of data; the CV error curve must flatten eventually.
        for _ in range(6):
            seq.add_samples(*batch(40))
        assert seq.has_converged(relative_improvement=0.25, window=2)

    def test_model_before_data_rejected(self, stream):
        basis, _truth, early, _batch = stream
        seq = SequentialBmf(basis, early)
        with pytest.raises(RuntimeError, match="no samples"):
            seq.predict(np.zeros((1, basis.num_vars)))

    def test_shape_validation(self, stream):
        basis, _truth, early, batch = stream
        seq = SequentialBmf(basis, early)
        with pytest.raises(ValueError, match="2-D"):
            seq.add_samples(np.zeros(basis.num_vars), np.zeros(1))
        seq.add_samples(*batch(5))
        with pytest.raises(ValueError, match="variables"):
            seq.add_samples(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            x, _f = batch(4)
            seq.add_samples(x, np.zeros(5))

    def test_invalid_window_rejected(self, stream):
        basis, _truth, early, batch = stream
        seq = SequentialBmf(basis, early)
        seq.add_samples(*batch(10))
        with pytest.raises(ValueError, match="window"):
            seq.has_converged(window=0)

    def test_evidence_selection_mode(self, stream):
        """Sequential refits work with evidence-based selection too."""
        basis, _truth, early, batch = stream
        seq = SequentialBmf(basis, early, selection="evidence")
        seq.add_samples(*batch(15))
        seq.add_samples(*batch(15))
        assert len(seq.cv_error_history) == 2
        assert seq.model.evidence_report_ is not None

    def test_fixed_eta_mode_tracks_training_error(self, stream):
        basis, _truth, early, batch = stream
        seq = SequentialBmf(
            basis, early, prior_kind="nonzero-mean", eta=1.0
        )
        seq.add_samples(*batch(10))
        assert len(seq.cv_error_history) == 1
        assert seq.cv_error_history[0] >= 0


class TestRearmNonIncremental:
    """A fitter whose refits run from scratch re-arms through its own
    selection and solver, so a warm restart serves the model the dead
    process served."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"selection": "evidence"}, {"solver": "direct"}, {"incremental": False}],
        ids=["evidence", "direct", "non-incremental"],
    )
    def test_rearmed_model_equals_uninterrupted(self, tiny_ro, kwargs):
        problem = FusionProblem(tiny_ro, "power")
        rng = np.random.default_rng(0)
        early = problem.fit_early_model(400, rng, method="ridge")
        data = simulate_dataset(tiny_ro, Stage.POST_LAYOUT, 40, rng, ["power"])
        x, f = data.x, data.metric("power")

        def fitter():
            return SequentialBmf(
                problem.late_basis,
                problem.align_early_coefficients(early),
                missing_indices=problem.missing_indices(),
                **kwargs,
            )

        live = fitter()
        live.add_samples(x[:20], f[:20])
        live.add_samples(x[20:], f[20:])
        rearmed = fitter().rearm(live.export_state())
        assert rearmed.last_refit_mode == "rearmed"
        expected, actual = live.model, rearmed.model
        assert np.array_equal(actual.coefficients_, expected.coefficients_)
        assert actual.chosen_prior_.name == expected.chosen_prior_.name
        assert actual.chosen_eta_ == expected.chosen_eta_
        assert (actual.cv_report_ is None) == (expected.cv_report_ is None)
        assert (actual.evidence_report_ is None) == (
            expected.evidence_report_ is None
        )
