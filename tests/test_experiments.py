"""Unit tests for the experiment harness (cost model, tables, figures)."""

import numpy as np
import pytest

from repro.circuits import Stage
from repro.experiments import (
    RO_COST_MODEL,
    SRAM_COST_MODEL,
    CostReport,
    SimulationCostModel,
    metric_histogram,
    run_cost_comparison,
    run_error_table,
    run_fitting_cost,
    solver_speedup,
)
from repro.bmf import nonzero_mean_prior


class TestCostModel:
    def test_ro_calibration_matches_table4(self):
        """900 samples -> 12.58 hours, as in the paper's Table IV."""
        assert RO_COST_MODEL.simulation_hours(900) == pytest.approx(12.58)
        assert RO_COST_MODEL.simulation_hours(100) == pytest.approx(
            12.58 / 9.0
        )

    def test_sram_calibration_matches_table6(self):
        assert SRAM_COST_MODEL.simulation_hours(400) == pytest.approx(38.77)
        assert SRAM_COST_MODEL.simulation_hours(100) == pytest.approx(
            38.77 / 4.0
        )

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SimulationCostModel(1.0).simulation_hours(-1)


class TestCostReport:
    def make(self, hours, seconds, method="m", samples=100):
        return CostReport(method, samples, {"f": 0.01}, hours, seconds)

    def test_total_hours(self):
        report = self.make(2.0, 3600.0)
        assert report.total_hours == pytest.approx(3.0)

    def test_speedup(self):
        fast = self.make(1.0, 0.0)
        slow = self.make(9.0, 0.0)
        assert fast.speedup_over(slow) == pytest.approx(9.0)

    def test_zero_cost_speedup_rejected(self):
        zero = self.make(0.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            zero.speedup_over(self.make(1.0, 0.0))


class TestErrorTable:
    def test_tiny_sweep_structure(self, tiny_ro, rng):
        table = run_error_table(
            tiny_ro,
            "frequency",
            sample_counts=(30, 80),
            repeats=2,
            rng=rng,
            test_size=100,
            early_samples=400,
            early_method="ridge",
        )
        assert table.sample_counts == (30, 80)
        assert set(table.errors) == {"OMP", "BMF-ZM", "BMF-NZM", "BMF-PS"}
        for errors in table.errors.values():
            assert errors.shape == (2,)
            assert np.all(errors > 0)
        # BMF-PS coincides with one of its two variants at every K (it
        # selects by CV error, so it may not be the *test*-optimal one --
        # the paper makes the same observation about Tables I-III).
        for i in range(2):
            ps = table.errors["BMF-PS"][i]
            zm = table.errors["BMF-ZM"][i]
            nzm = table.errors["BMF-NZM"][i]
            assert ps == pytest.approx(zm, rel=1e-9) or ps == pytest.approx(
                nzm, rel=1e-9
            )
            assert ps <= 1.3 * min(zm, nzm)

    def test_method_subset(self, tiny_ro, rng):
        table = run_error_table(
            tiny_ro,
            "power",
            sample_counts=(40,),
            repeats=1,
            rng=rng,
            test_size=50,
            early_samples=300,
            early_method="ridge",
            methods=("OMP", "BMF-PS"),
        )
        assert set(table.errors) == {"OMP", "BMF-PS"}

    def test_unknown_method_rejected(self, tiny_ro, rng):
        with pytest.raises(ValueError, match="unknown method"):
            run_error_table(tiny_ro, "power", methods=("BMF-XL",), rng=rng)

    def test_format_contains_all_rows(self, tiny_ro, rng):
        table = run_error_table(
            tiny_ro,
            "power",
            sample_counts=(30, 60),
            repeats=1,
            rng=rng,
            test_size=50,
            early_samples=300,
            early_method="ridge",
        )
        text = table.format()
        assert "30" in text and "60" in text
        assert "BMF-PS" in text and "OMP" in text

    def test_precomputed_early_coefficients(self, tiny_ro, rng):
        from repro.circuits import FusionProblem

        problem = FusionProblem(tiny_ro, "power")
        alpha = problem.fit_early_model(300, rng, method="ridge")
        table = run_error_table(
            tiny_ro,
            "power",
            sample_counts=(40,),
            repeats=1,
            rng=rng,
            test_size=50,
            alpha_early=alpha,
        )
        assert np.isfinite(table.early_error)

    def test_to_csv(self, tiny_ro, rng):
        table = run_error_table(
            tiny_ro,
            "power",
            sample_counts=(30, 60),
            repeats=1,
            rng=rng,
            test_size=50,
            early_samples=300,
            early_method="ridge",
        )
        csv = table.to_csv()
        lines = csv.splitlines()
        assert lines[0].startswith("samples,")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "30"
        # Values round-trip as floats.
        float(lines[1].split(",")[1])

    def test_best_method_at(self, tiny_ro, rng):
        table = run_error_table(
            tiny_ro,
            "frequency",
            sample_counts=(40,),
            repeats=1,
            rng=rng,
            test_size=80,
            early_samples=400,
            early_method="ridge",
        )
        assert table.best_method_at(40) in table.errors

    @pytest.mark.parametrize(
        "testbench, metric",
        [
            ("tiny_ro", "power"),
            ("tiny_ro", "phase_noise"),
            ("tiny_ro", "frequency"),
            ("tiny_sram", "read_delay"),
        ],
        ids=["table1-power", "table2-phase_noise", "table3-frequency",
             "table5-read_delay"],
    )
    def test_table_shape_holds_at_reduced_size(self, request, testbench, metric):
        """Tables I, II, III and V at K = 20..180: every method improves
        with K, BMF-PS beats OMP by the bench's factor at the smallest K,
        and prior selection tracks the better prior at every K.  The
        bench's "BMF-PS at small K rivals OMP at large K" bound stays
        under ``benchmarks/``: at this size BMF-PS at K=20 is 1.7x-2.4x
        OMP at K=180."""
        table = run_error_table(
            request.getfixturevalue(testbench),
            metric,
            sample_counts=(20, 60, 180),
            repeats=3,
            rng=np.random.default_rng(101),
            early_samples=600,
        )
        for method, errors in table.errors.items():
            assert errors[-1] < errors[0], method
        assert table.errors["BMF-PS"][0] < 0.75 * table.errors["OMP"][0]
        for i in range(len(table.sample_counts)):
            best = min(table.errors["BMF-ZM"][i], table.errors["BMF-NZM"][i])
            assert table.errors["BMF-PS"][i] <= 1.3 * best


class TestCostComparison:
    def test_tiny_comparison(self, tiny_ro, rng):
        comparison = run_cost_comparison(
            tiny_ro,
            ("frequency",),
            RO_COST_MODEL,
            baseline_samples=90,
            fused_samples=30,
            rng=rng,
            test_size=60,
            early_samples=300,
            early_method="ridge",
        )
        assert comparison.baseline.num_samples == 90
        assert comparison.fused.num_samples == 30
        assert comparison.speedup > 2.5  # ~3x from the sample ratio
        text = comparison.format()
        assert "Speedup" in text


class TestFigures:
    def test_histogram(self, tiny_ro, rng):
        histogram = metric_histogram(tiny_ro, "power", 500, rng, bins=10)
        assert histogram.counts.sum() == 500
        assert len(histogram.edges) == 11
        assert "Histogram" in histogram.format()

    def test_fitting_cost_sweep(self, tiny_ro, rng):
        curve = run_fitting_cost(
            tiny_ro,
            "power",
            sample_counts=(30, 60),
            rng=rng,
            include_conventional=True,
            early_samples=200,
        )
        assert set(curve.seconds) == {
            "OMP",
            "BMF-PS (fast solver)",
            "BMF-PS (conventional solver)",
        }
        for seconds in curve.seconds.values():
            assert np.all(seconds > 0)
        assert "Fitting cost" in curve.format()

    def test_solver_speedup_exactness(self, tiny_ro, rng):
        from repro.basis import OrthonormalBasis

        basis = OrthonormalBasis.linear(tiny_ro.num_vars(Stage.POST_LAYOUT))
        x = tiny_ro.sample(Stage.POST_LAYOUT, 30, rng)
        f = tiny_ro.simulate(Stage.POST_LAYOUT, x, "power")
        design = basis.design_matrix(x)
        prior = nonzero_mean_prior(rng.standard_normal(basis.size))
        result = solver_speedup(design, prior, eta=1.0, target=f, repeats=1)
        assert result["max_relative_difference"] < 1e-8
        assert result["fast_seconds"] > 0
        assert result["direct_seconds"] > 0


class TestServingStream:
    def test_stream_runner_end_to_end(self, tiny_ro, rng):
        from repro.experiments import run_serving_stream

        report = run_serving_stream(
            tiny_ro,
            "power",
            batch_sizes=(20, 8, 8),
            requests_per_batch=4,
            rng=rng,
            test_size=40,
            early_samples=300,
        )
        assert len(report.cv_error_history) == 3
        assert report.versions_published == 3
        assert report.refit_modes[0] == "full"
        assert all(m in ("incremental", "fallback") for m in report.refit_modes[1:])
        assert 0 <= report.test_error < 1.0
        assert report.engine_stats["requests"] == 3 * 4 + 1  # bursts + final sweep
        assert report.runtime_metrics.get("serving.publishes") == 3
        assert report.runtime_metrics.get("woodbury.incremental_refits", 0) >= 1
        text = report.format()
        assert "refit modes" in text
        assert "versions published   : 3" in text

    def test_stream_runner_validates_inputs(self, tiny_ro, rng):
        from repro.experiments import run_serving_stream

        with pytest.raises(ValueError, match="batch_sizes"):
            run_serving_stream(tiny_ro, "power", batch_sizes=(), rng=rng)
        with pytest.raises(ValueError, match="requests_per_batch"):
            run_serving_stream(
                tiny_ro, "power", batch_sizes=(10,), requests_per_batch=0, rng=rng
            )
