"""Gaussian output distribution (used by the probabilistic MLP head)."""

from __future__ import annotations

import numpy as np
from scipy import special, stats

from .base import Distribution

__all__ = ["Gaussian"]


class Gaussian(Distribution):
    """N(mu, sigma^2), batched over arbitrary-shaped parameter arrays."""

    def __init__(self, mu: np.ndarray, sigma: np.ndarray) -> None:
        self.mu = np.asarray(mu, dtype=np.float64)
        self.sigma = np.asarray(sigma, dtype=np.float64)
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be strictly positive")

    def mean(self) -> np.ndarray:
        return self.mu

    def std(self) -> np.ndarray:
        return np.broadcast_to(self.sigma, self.mu.shape).copy()

    def quantile(self, tau: float | np.ndarray) -> np.ndarray:
        # What stats.norm.ppf computes once its argument checks pass.  The
        # checks cost far more than the arithmetic, and every case they
        # catch (tau in {0, 1} or outside [0, 1], NaN or infinite mu)
        # comes out bit-identical here.
        return special.ndtri(tau) * self.sigma + self.mu

    def quantiles(self, levels: list[float]) -> np.ndarray:
        tau = np.reshape(levels, (-1,) + (1,) * max(self.mu.ndim, self.sigma.ndim))
        return self.quantile(tau)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, size=(size, *self.mu.shape))

    def log_prob(self, value: np.ndarray) -> np.ndarray:
        return stats.norm.logpdf(value, loc=self.mu, scale=self.sigma)

    def __repr__(self) -> str:
        return f"Gaussian(mu.shape={self.mu.shape})"
