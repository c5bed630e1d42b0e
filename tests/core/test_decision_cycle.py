"""The vectorised decision cycle against its per-step definition.

``QuantilePolicy.bound_workload`` reads each distinct selected tau once
and gathers step t from its own tau's row.  These tests hold it to the
per-step loop it replaces, ``[forecast.at(tau)[t] for t, tau in ...]``
over an ``at`` that tests the grid with ``np.isclose`` — bit for bit —
and count the calls one ``manager.plan`` makes so the per-step pattern
cannot come back unnoticed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.manager as manager_module
import repro.core.policies as policies_module
from repro.core import (
    FixedQuantilePolicy,
    RobustAutoScalingManager,
    StaircasePolicy,
    UncertaintyAwarePolicy,
    quantile_uncertainty,
)
from repro.forecast import QuantileForecast


def reference_at(forecast: QuantileForecast, tau: float) -> np.ndarray:
    """``QuantileForecast.at`` as it read with ``np.isclose``."""
    exact = np.flatnonzero(np.isclose(forecast.levels, tau))
    if exact.size:
        return forecast.values[exact[0]]
    upper = int(np.searchsorted(forecast.levels, tau))
    lower = upper - 1
    weight = (tau - forecast.levels[lower]) / (
        forecast.levels[upper] - forecast.levels[lower]
    )
    return (1.0 - weight) * forecast.values[lower] + weight * forecast.values[upper]


def per_step_bound(policy, forecast: QuantileForecast) -> np.ndarray:
    """The oracle: one ``at`` per horizon step, one element kept."""
    levels = policy.select_levels(forecast)
    return np.array([reference_at(forecast, tau)[t] for t, tau in enumerate(levels)])


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def rng_forecast(seed: int, horizon: int = 72) -> QuantileForecast:
    """An 11-level forecast with a fan whose width varies per step."""
    rng = np.random.default_rng(seed)
    levels = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99])
    centre = rng.uniform(500.0, 2000.0, size=horizon)
    width = rng.uniform(1.0, 400.0, size=horizon)
    offsets = np.sort(rng.normal(size=(len(levels), horizon)), axis=0)
    return QuantileForecast(levels=levels, values=centre + width * offsets)


def threshold_between(forecast: QuantileForecast) -> float:
    """A rho that sends some steps each way."""
    return float(np.median(quantile_uncertainty(forecast)))


POLICIES = {
    "fixed-on-grid": lambda fc: FixedQuantilePolicy(0.9),
    "fixed-off-grid": lambda fc: FixedQuantilePolicy(0.93),
    "fixed-within-isclose": lambda fc: FixedQuantilePolicy(0.9 + 5e-9),
    "adaptive-on-grid": lambda fc: UncertaintyAwarePolicy(
        0.7, 0.95, threshold_between(fc)
    ),
    "adaptive-off-grid": lambda fc: UncertaintyAwarePolicy(
        0.65, 0.97, threshold_between(fc)
    ),
    "staircase": lambda fc: StaircasePolicy(
        [
            (0.0, 0.55),
            (np.quantile(quantile_uncertainty(fc), 0.3), 0.8),
            (np.quantile(quantile_uncertainty(fc), 0.7), 0.975),
        ]
    ),
}


class TestBoundWorkloadBitIdentity:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_step_loop(self, name, seed):
        forecast = rng_forecast(seed)
        policy = POLICIES[name](forecast)
        assert_bits_equal(
            policy.bound_workload(forecast), per_step_bound(policy, forecast)
        )

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_manager_bound_matches_per_step_loop(self, name):
        forecast = rng_forecast(3)
        policy = POLICIES[name](forecast)
        plan = RobustAutoScalingManager(60.0, policy).plan(forecast)
        assert_bits_equal(
            plan.metadata["bound_workload"],
            np.maximum(per_step_bound(policy, forecast), 0.0),
        )
        assert_bits_equal(plan.metadata["uncertainty"], quantile_uncertainty(forecast))
        np.testing.assert_array_equal(
            plan.quantile_levels, policy.select_levels(forecast)
        )

    def test_adaptive_selects_both_levels(self):
        forecast = rng_forecast(0)
        levels = POLICIES["adaptive-off-grid"](forecast).select_levels(forecast)
        assert set(np.unique(levels)) == {0.65, 0.97}

    def test_fixed_bound_is_a_copy(self):
        # The gather never hands out a view into the forecast's values.
        forecast = rng_forecast(0)
        bound = FixedQuantilePolicy(0.9).bound_workload(forecast)
        assert not np.shares_memory(bound, forecast.values)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_generated_forecasts(self, data):
        # Eq. 8 needs the median, so the grid straddles 0.5 (or holds it).
        below = data.draw(st.sets(st.floats(0.01, 0.5), min_size=1, max_size=4))
        above = data.draw(st.sets(st.floats(0.5, 0.99), min_size=1, max_size=5))
        levels = np.array(sorted(below | above))
        n_levels = len(levels)
        horizon = data.draw(st.integers(1, 40), label="horizon")
        flat = data.draw(
            st.lists(
                st.floats(-1e4, 1e6, allow_nan=False, allow_infinity=False),
                min_size=n_levels * horizon,
                max_size=n_levels * horizon,
            )
        )
        forecast = QuantileForecast(
            levels=levels, values=np.reshape(flat, (n_levels, horizon))
        )
        on_grid = st.sampled_from(levels.tolist())
        in_range = st.floats(float(levels[0]), float(levels[-1]), allow_nan=False)
        taus = sorted(data.draw(st.lists(on_grid | in_range, min_size=3, max_size=3)))
        uncertainty = quantile_uncertainty(forecast)
        cutoff = float(data.draw(st.sampled_from(uncertainty.tolist())))
        policies = [
            FixedQuantilePolicy(taus[0]),
            UncertaintyAwarePolicy(taus[0], taus[2], max(cutoff, 0.0)),
        ]
        if cutoff > 0:
            policies.append(StaircasePolicy([(0.0, taus[0]), (cutoff, taus[1])]))
        for policy in policies:
            assert_bits_equal(
                policy.bound_workload(forecast), per_step_bound(policy, forecast)
            )


class TestAtGridTolerance:
    @pytest.mark.parametrize(
        "tau", [0.1, 0.9, 0.9 + 5e-9, 0.9 - 5e-9, 0.1 - 1e-8, 0.99 + 1e-8, 0.45, 0.905]
    )
    def test_matches_isclose_reference(self, tau):
        forecast = rng_forecast(4)
        assert_bits_equal(forecast.at(tau), reference_at(forecast, tau))


class TestOneUncertaintyPerPlan:
    """Structural: count what one ``manager.plan`` calls."""

    def test_adaptive_plan_call_counts(self, monkeypatch):
        forecast = rng_forecast(0)
        policy = UncertaintyAwarePolicy(0.7, 0.95, threshold_between(forecast))
        manager = RobustAutoScalingManager(60.0, policy)
        calls = {"uncertainty": 0, "at": 0, "bound_workload": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (manager_module, policies_module):
            monkeypatch.setattr(
                module,
                "quantile_uncertainty",
                counted("uncertainty", quantile_uncertainty),
            )
        monkeypatch.setattr(QuantileForecast, "at", counted("at", QuantileForecast.at))
        monkeypatch.setattr(
            policy, "bound_workload", counted("bound_workload", policy.bound_workload)
        )
        plan = manager.plan(forecast)

        distinct = np.unique(plan.quantile_levels).size
        assert distinct == 2
        assert calls["uncertainty"] == 1
        assert calls["at"] <= distinct + 1  # + the median inside Eq. 8
        assert calls["bound_workload"] == 1
