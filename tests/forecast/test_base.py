"""Tests for QuantileForecast and the forecaster interfaces."""

import numpy as np
import pytest

from repro.forecast import QuantileForecast, SeasonalNaiveForecaster


def make_forecast():
    levels = np.array([0.1, 0.5, 0.9])
    values = np.stack([np.full(4, 8.0), np.full(4, 10.0), np.full(4, 14.0)])
    return QuantileForecast(levels=levels, values=values)


class TestQuantileForecast:
    def test_horizon(self):
        assert make_forecast().horizon == 4

    def test_at_exact_level(self):
        np.testing.assert_array_equal(make_forecast().at(0.5), np.full(4, 10.0))

    def test_at_interpolates(self):
        # halfway between 0.5 (10) and 0.9 (14)
        np.testing.assert_allclose(make_forecast().at(0.7), np.full(4, 12.0))

    def test_at_outside_grid_raises(self):
        with pytest.raises(ValueError):
            make_forecast().at(0.95)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
    def test_at_non_finite_tau_raises(self, tau):
        with pytest.raises(ValueError, match="outside forecast grid"):
            make_forecast().at(tau)

    def test_median_property(self):
        np.testing.assert_array_equal(make_forecast().median, np.full(4, 10.0))

    def test_point_prefers_mean(self):
        fc = QuantileForecast(
            levels=np.array([0.5]), values=np.full((1, 3), 5.0), mean=np.full(3, 7.0)
        )
        np.testing.assert_array_equal(fc.point, np.full(3, 7.0))

    def test_point_falls_back_to_median(self):
        np.testing.assert_array_equal(make_forecast().point, np.full(4, 10.0))

    def test_as_dict(self):
        d = make_forecast().as_dict()
        assert set(d) == {0.1, 0.5, 0.9}
        np.testing.assert_array_equal(d[0.9], np.full(4, 14.0))

    def test_sorted_monotone_fixes_crossing(self):
        fc = QuantileForecast(
            levels=np.array([0.1, 0.9]),
            values=np.array([[5.0, 1.0], [3.0, 2.0]]),  # crossed at step 0
        )
        fixed = fc.sorted_monotone()
        assert np.all(np.diff(fixed.values, axis=0) >= 0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            QuantileForecast(levels=np.array([0.5]), values=np.ones((2, 3)))

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValueError):
            QuantileForecast(levels=np.array([0.9, 0.5]), values=np.ones((2, 3)))

    def test_rejects_out_of_range_levels(self):
        with pytest.raises(ValueError):
            QuantileForecast(levels=np.array([0.0, 0.5]), values=np.ones((2, 3)))

    def test_rejects_bad_mean_shape(self):
        with pytest.raises(ValueError):
            QuantileForecast(
                levels=np.array([0.5]), values=np.ones((1, 3)), mean=np.ones(2)
            )


class TestForecasterLifecycle:
    def test_predict_before_fit_raises(self):
        forecaster = SeasonalNaiveForecaster(horizon=4, season=10)
        with pytest.raises(RuntimeError):
            forecaster.predict(np.ones(10))
