import numpy as np
import pytest

from codiffuse.analysis import (
    CATEGORIES,
    category_series,
    ceiling,
    ensemble_stats,
    inflection,
    iteration_ceilings,
    kde,
    mode_shares,
    silverman_bandwidth,
)
from codiffuse.engine import stream
from codiffuse.errors import AnalysisError


class TestCeiling:
    def test_constant_series(self):
        assert ceiling(np.full(50, 17.0)) == 17.0

    def test_tail_mean_on_ten_steps(self):
        series = np.array([0, 0, 0, 0, 0, 0, 0, 0, 90, 110], dtype=float)
        assert ceiling(series) == 100.0  # window = ceil(0.2 * 10) = 2

    def test_absorbing_tail(self):
        series = np.concatenate([np.arange(30), np.full(70, 400.0)])
        assert ceiling(series) == 400.0

    def test_short_series_rejected(self):
        with pytest.raises(AnalysisError):
            ceiling(np.arange(4))

    def test_tail_extension_stability(self):
        series = np.concatenate([np.arange(40), np.full(60, 250.0)])
        extended = np.concatenate([series, np.full(25, 250.0)])
        assert ceiling(extended) == ceiling(series)
        assert inflection(extended) == inflection(series)

    def test_reduces_the_last_axis(self):
        rows = stream(57, 0).integers(0, 100, (6, 30))
        np.testing.assert_array_equal(ceiling(rows), [ceiling(row) for row in rows])

    def test_iteration_ceilings_are_category_ceilings(self):
        counts = stream(58, 0).integers(0, 50, (5, 23, 4))
        ceilings = iteration_ceilings(counts)
        for k, cat in enumerate(CATEGORIES):
            np.testing.assert_array_equal(ceilings[:, k], ceiling(category_series(counts, cat)))


class TestInflection:
    def test_step_function(self):
        series = np.concatenate([np.zeros(50), np.full(50, 100.0)])
        assert inflection(series) == 50

    def test_logistic_midpoint(self):
        t = np.arange(200, dtype=float)
        m = 73
        series = 1000.0 / (1.0 + np.exp(-0.2 * (t - m)))
        assert abs(inflection(series) - m) <= 1

    def test_all_zero_is_missing(self):
        assert inflection(np.zeros(60)) is None


class TestKde:
    def test_bimodal_clusters(self):
        rng = stream(55, 0)
        values = np.concatenate([rng.normal(320, 12, 50), rng.normal(6080, 12, 50)])
        report = kde(values)
        assert report["mode_count"] == 2
        shares = mode_shares(values, report["modes"])
        assert all(abs(s - 0.5) < 0.05 for s in shares)

    def test_trimodal_clusters(self):
        rng = stream(55, 1)
        values = np.concatenate([rng.normal(100, 8, 30), rng.normal(3200, 8, 40),
                                 rng.normal(6300, 8, 30)])
        assert kde(values)["mode_count"] == 3

    def test_identical_values_single_mode(self):
        report = kde(np.full(20, 6080.0))
        assert report["mode_count"] == 1
        assert report["modes"][0] == pytest.approx(6080.0, abs=report["bandwidth"])

    def test_density_integrates_to_one(self):
        rng = stream(55, 2)
        for values in (rng.normal(0, 1, 100), rng.uniform(0, 6400, 64),
                       np.concatenate([rng.normal(5, 0.1, 50), rng.normal(9, 0.1, 50)])):
            grid, density = np.array(kde(values)["grid"]).T
            # Trapezoid rule spelled out: np.trapezoid needs numpy >= 2.0.
            area = float(np.sum((density[1:] + density[:-1]) * np.diff(grid)) / 2.0)
            assert abs(area - 1.0) <= 1e-3

    def test_grid_span_and_size(self):
        values = np.array([1.0, 2.0, 4.0])
        report = kde(values)
        grid = np.array(report["grid"])[:, 0]
        assert grid.size == 512
        assert grid[0] == pytest.approx(1.0 - 3 * report["bandwidth"])
        assert grid[-1] == pytest.approx(4.0 + 3 * report["bandwidth"])

    def test_too_few_values_rejected(self):
        with pytest.raises(AnalysisError):
            kde(np.array([3.0]))

    def test_silverman_uses_smaller_of_std_and_iqr(self):
        rng = stream(55, 3)
        values = rng.normal(0.0, 2.0, 100)
        n = values.size
        std = values.std(ddof=1)
        q75, q25 = np.percentile(values, [75, 25])
        expect = 0.9 * min(std, (q75 - q25) / 1.34) * n ** (-0.2)
        assert silverman_bandwidth(values) == pytest.approx(expect)


class TestCategorySeries:
    def test_contagion_categories_are_cumulative(self):
        counts = np.array([[10, 3, 2, 1], [4, 5, 3, 4]])
        np.testing.assert_array_equal(category_series(counts, "naive"), [10, 4])
        np.testing.assert_array_equal(category_series(counts, "a"), [4, 9])
        np.testing.assert_array_equal(category_series(counts, "b"), [3, 7])
        np.testing.assert_array_equal(category_series(counts, "ab"), [1, 4])


def fake_ensemble(per_iteration_ab):
    """(iterations, 20, 4) counts of iterations that jump straight to their
    terminal AB count at step 0."""
    n = 100
    iters = len(per_iteration_ab)
    counts = np.zeros((iters, 20, 4), dtype=np.int64)
    for i, ab in enumerate(per_iteration_ab):
        counts[i, :, 3] = ab
        counts[i, :, 0] = n - ab
    return counts


def set_stats(counts):
    """The heatmap statistics `sweep` writes for one set."""
    return ensemble_stats(counts.mean(axis=0), iteration_ceilings(counts))


class TestSummaries:
    def test_two_point_ceiling_stats(self):
        counts = fake_ensemble([0, 100])
        ceilings = iteration_ceilings(counts)
        k = CATEGORIES.index("ab")
        assert ceilings[:, k].tolist() == [0.0, 100.0]
        rows = {(cat, metric): value
                for cat, metric, value in ensemble_stats(counts.mean(axis=0), ceilings)}
        assert rows[("ab", "ceiling_mean")] == 50.0
        assert rows[("ab", "ceiling_std")] == 50.0  # population std

    def test_deterministic_runs_have_zero_std(self):
        counts = fake_ensemble([40, 40, 40])
        stds = [v for cat, metric, v in set_stats(counts) if metric == "ceiling_std"]
        assert stds == [0.0, 0.0, 0.0, 0.0]

    def test_missing_inflection_is_none(self):
        counts = fake_ensemble([0, 0])
        rows = {(cat, metric): value for cat, metric, value in set_stats(counts)}
        assert rows[("ab", "inflection_mean")] is None
        assert rows[("naive", "inflection_mean")] == 0.0

    def test_iteration_order_invariance(self):
        rng = stream(56, 0)
        counts = rng.integers(0, 50, (8, 25, 4)).astype(np.int64)
        shuffled = counts[rng.permutation(8)]
        for (r1, r2) in zip(set_stats(counts), set_stats(shuffled)):
            assert r1[:2] == r2[:2]
            assert r1[2] == pytest.approx(r2[2], abs=1e-9)
