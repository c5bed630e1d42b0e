"""The Robust Auto-Scaling Manager (paper Section III-C).

Consumes a :class:`~repro.forecast.base.QuantileForecast` and a
:class:`~repro.core.policies.QuantilePolicy`, selects the per-step
workload upper bound, and solves the deterministic counterpart of the
robust optimization problem to produce a :class:`ScalingPlan`.
"""

from __future__ import annotations

import numpy as np

from ..forecast.base import QuantileForecast
from .optimizer import solve_closed_form, solve_with_ramp_limits
from .plan import ScalingPlan
from .policies import FixedQuantilePolicy, QuantilePolicy
from .uncertainty import quantile_uncertainty

__all__ = ["RobustAutoScalingManager"]


class RobustAutoScalingManager:
    """Turns quantile forecasts into robust scaling plans.

    Parameters
    ----------
    threshold:
        theta — the per-node workload threshold (e.g. percentage CPU a
        node may average).  Scalar or per-step array.
    policy:
        Quantile-selection policy; defaults to the basic robust strategy
        at the 0.9 quantile (the paper's running example).
    max_scale_out, max_scale_in:
        Optional ramp limits per step (Section V-A thrashing control).
        ``None`` disables the corresponding constraint; each side is
        independent, so e.g. capping only ``max_scale_in`` (thrashing
        control on release while scale-out stays unbounded) is valid.
    """

    def __init__(
        self,
        threshold: float | np.ndarray,
        policy: QuantilePolicy | None = None,
        max_scale_out: int | None = None,
        max_scale_in: int | None = None,
    ) -> None:
        threshold_arr = np.asarray(threshold, dtype=np.float64)
        if np.any(threshold_arr <= 0):
            raise ValueError("threshold must be strictly positive")
        self.threshold = threshold
        self.policy = policy if policy is not None else FixedQuantilePolicy(0.9)
        self.max_scale_out = max_scale_out
        self.max_scale_in = max_scale_in

    def plan(
        self, forecast: QuantileForecast, current_nodes: int | None = None
    ) -> ScalingPlan:
        """Solve Definition 6/7 for one decision horizon.

        Parameters
        ----------
        forecast:
            Quantile forecasts for the horizon.
        current_nodes:
            Currently running nodes; only used when ramp limits are set,
            to anchor the first step's transition.
        """
        uncertainty = quantile_uncertainty(forecast)
        levels = self.policy.select_levels(forecast, uncertainty)
        bound = self.policy.bound_workload(forecast, levels)
        if np.any(bound < 0):
            # Quantile forecasts can dip below zero on normalised models;
            # workload is physically non-negative.
            bound = np.maximum(bound, 0.0)
        ramp_clipped_steps = 0
        if self.max_scale_out is not None or self.max_scale_in is not None:
            plan = solve_with_ramp_limits(
                bound,
                self.threshold,
                max_scale_out=self.max_scale_out,
                max_scale_in=self.max_scale_in,
                initial_nodes=current_nodes,
                strategy=self.policy.name,
            )
            unclipped = solve_closed_form(bound, self.threshold)
            ramp_clipped_steps = int(np.count_nonzero(plan.nodes != unclipped.nodes))
        else:
            plan = solve_closed_form(bound, self.threshold, strategy=self.policy.name)
        plan.quantile_levels = levels
        # Decision provenance: everything the runtime needs to explain
        # (and the model-health monitor to score) this plan.  Arrays are
        # stored by reference — no copies on the planning path.
        plan.metadata["bound_workload"] = bound
        plan.metadata["uncertainty"] = uncertainty
        plan.metadata["forecast_levels"] = forecast.levels
        plan.metadata["forecast_values"] = forecast.values
        plan.metadata["ramp_clipped_steps"] = ramp_clipped_steps
        return plan
