"""Quantile-selection policies for the Robust Auto-Scaling Manager.

A policy answers one question per decision horizon: *which quantile level
should guide resource allocation at each step t?*  Three policies realise
the paper's spectrum of conservatism:

* :class:`FixedQuantilePolicy` — Eq. 6's basic robust strategy: one tau
  for the whole horizon.
* :class:`UncertaintyAwarePolicy` — Algorithm 1: pick the cautious tau2
  where per-step uncertainty U_t (Eq. 8) meets the threshold rho, the
  optimistic tau1 otherwise.
* :class:`StaircasePolicy` — the generalisation the paper sketches: a
  monotone ladder of (uncertainty cutoff, tau) rungs for finer control.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..forecast.base import QuantileForecast
from .uncertainty import quantile_uncertainty

__all__ = [
    "QuantilePolicy",
    "FixedQuantilePolicy",
    "UncertaintyAwarePolicy",
    "StaircasePolicy",
]


class QuantilePolicy(ABC):
    """Maps a quantile forecast to a per-step quantile level tau_t."""

    @abstractmethod
    def select_levels(
        self, forecast: QuantileForecast, uncertainty: np.ndarray | None = None
    ) -> np.ndarray:
        """Return the quantile level to use at each step, shape (H,).

        ``uncertainty`` is Eq. 8's U for ``forecast``, for callers that
        already hold it; uncertainty-driven policies compute it otherwise.
        """

    def bound_workload(
        self, forecast: QuantileForecast, levels: np.ndarray | None = None
    ) -> np.ndarray:
        """The per-step workload upper bound w-hat_t^{tau_t} (Eq. 7 LHS).

        ``levels`` defaults to :meth:`select_levels`.  Each distinct tau
        is read once, then step t takes its element from its own tau's row.
        """
        if levels is None:
            levels = self.select_levels(forecast)
        taus, which = np.unique(levels, return_inverse=True)
        rows = np.stack([forecast.at(tau) for tau in taus])
        return rows[which, np.arange(forecast.horizon)]

    @property
    def name(self) -> str:
        return type(self).__name__


class FixedQuantilePolicy(QuantilePolicy):
    """Eq. 6: a single quantile level across the whole horizon."""

    def __init__(self, tau: float) -> None:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        self.tau = tau

    def select_levels(
        self, forecast: QuantileForecast, uncertainty: np.ndarray | None = None
    ) -> np.ndarray:
        return np.full(forecast.horizon, self.tau)

    @property
    def name(self) -> str:
        return f"fixed-{self.tau}"


class UncertaintyAwarePolicy(QuantilePolicy):
    """Algorithm 1: two optional levels switched by per-step uncertainty.

    Parameters
    ----------
    tau_optimistic, tau_conservative:
        The two optional quantile levels (tau1 < tau2 in the paper).
    uncertainty_threshold:
        rho — at or above it the conservative level is used.
    """

    def __init__(
        self,
        tau_optimistic: float,
        tau_conservative: float,
        uncertainty_threshold: float,
    ) -> None:
        if not 0.0 < tau_optimistic < 1.0 or not 0.0 < tau_conservative < 1.0:
            raise ValueError("quantile levels must be in (0, 1)")
        if tau_optimistic > tau_conservative:
            raise ValueError(
                f"tau_optimistic ({tau_optimistic}) must not exceed "
                f"tau_conservative ({tau_conservative})"
            )
        if not uncertainty_threshold >= 0:  # also rejects NaN
            raise ValueError("uncertainty threshold must be non-negative")
        self.tau_optimistic = tau_optimistic
        self.tau_conservative = tau_conservative
        self.uncertainty_threshold = uncertainty_threshold

    def select_levels(
        self, forecast: QuantileForecast, uncertainty: np.ndarray | None = None
    ) -> np.ndarray:
        if uncertainty is None:
            uncertainty = quantile_uncertainty(forecast)
        return np.where(
            uncertainty >= self.uncertainty_threshold,
            self.tau_conservative,
            self.tau_optimistic,
        )

    @property
    def name(self) -> str:
        return f"adaptive-{self.tau_optimistic}/{self.tau_conservative}"


class StaircasePolicy(QuantilePolicy):
    """Multi-level extension: a ladder of (uncertainty cutoff, tau) rungs.

    ``rungs`` is a list of (cutoff, tau) sorted by cutoff; a step with
    uncertainty U_t uses the tau of the highest rung whose cutoff is
    <= U_t.  The first rung's cutoff should be 0 (the base level).
    Taus must be non-decreasing with cutoffs — higher uncertainty should
    never pick a *less* conservative level.
    """

    def __init__(self, rungs: list[tuple[float, float]]) -> None:
        if not rungs:
            raise ValueError("need at least one rung")
        cutoffs = [cutoff for cutoff, _ in rungs]
        taus = [tau for _, tau in rungs]
        if sorted(cutoffs) != cutoffs or len(set(cutoffs)) != len(cutoffs):
            raise ValueError("rung cutoffs must be strictly increasing")
        if sorted(taus) != taus:
            raise ValueError("rung taus must be non-decreasing")
        if any(not 0.0 < tau < 1.0 for tau in taus):
            raise ValueError("quantile levels must be in (0, 1)")
        if cutoffs[0] != 0.0:
            raise ValueError("first rung cutoff must be 0 (the base level)")
        self.rungs = list(rungs)

    def select_levels(
        self, forecast: QuantileForecast, uncertainty: np.ndarray | None = None
    ) -> np.ndarray:
        if uncertainty is None:
            uncertainty = quantile_uncertainty(forecast)
        cutoffs = np.array([cutoff for cutoff, _ in self.rungs])
        taus = np.array([tau for _, tau in self.rungs])
        positions = np.searchsorted(cutoffs, uncertainty, side="right") - 1
        return taus[positions]

    @property
    def name(self) -> str:
        return f"staircase-{len(self.rungs)}"
