"""Tests for the output distributions."""

import numpy as np
import pytest
from scipy import stats

from repro.distributions import Empirical, Gaussian, StudentT


class TestGaussian:
    def test_mean_std(self):
        d = Gaussian(np.array([1.0, 2.0]), np.array([0.5, 1.5]))
        np.testing.assert_array_equal(d.mean(), [1.0, 2.0])
        np.testing.assert_array_equal(d.std(), [0.5, 1.5])

    def test_quantile_matches_scipy(self):
        d = Gaussian(np.array([3.0]), np.array([2.0]))
        assert d.quantile(0.9)[0] == pytest.approx(stats.norm.ppf(0.9, 3.0, 2.0))

    def test_median_is_mean(self):
        d = Gaussian(np.array([5.0]), np.array([1.0]))
        assert d.quantile(0.5)[0] == pytest.approx(5.0)

    def test_sampling_moments(self):
        d = Gaussian(np.array([2.0]), np.array([3.0]))
        samples = d.sample(20000, np.random.default_rng(0))
        assert samples.shape == (20000, 1)
        assert samples.mean() == pytest.approx(2.0, abs=0.1)
        assert samples.std() == pytest.approx(3.0, abs=0.1)

    def test_log_prob(self):
        d = Gaussian(np.array([0.0]), np.array([1.0]))
        assert d.log_prob(np.array([0.0]))[0] == pytest.approx(stats.norm.logpdf(0.0))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            Gaussian(np.array([0.0]), np.array([0.0]))

    def test_quantiles_stacks_levels(self):
        d = Gaussian(np.zeros(3), np.ones(3))
        out = d.quantiles([0.1, 0.5, 0.9])
        assert out.shape == (3, 3)
        assert np.all(np.diff(out, axis=0) > 0)


def assert_bits_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


# inf + -inf at the infinite-mu edges warns in ppf and here alike.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestGaussianClosedFormQuantile:
    """``quantile`` skips ``stats.norm.ppf``'s argument checks; the bits
    must still be ppf's, edge cases included, on whatever scipy runs."""

    LEVELS = [-0.5, 0.0, 1e-300, 0.01, 0.1, 0.5, 0.7, 0.9, 0.95, 0.99]
    LEVELS += [1 - 1e-16, 1.0, 1.5]
    # NaN mu, infinite mu, a broadcast sigma and ordinary values side by side.
    MU = np.array([[-3.0, 0.0, 2.5, 1e6], [np.nan, -np.inf, np.inf, 7.25]])
    SIGMAS = [np.array([0.5, 1.0, 3.0, 1e-3]), np.float64(2.0), np.full((2, 1), 4.0)]

    @pytest.mark.parametrize("sigma_index", range(3))
    @pytest.mark.parametrize("tau", LEVELS)
    def test_quantile_bits_match_ppf(self, tau, sigma_index):
        sigma = self.SIGMAS[sigma_index]
        expected = stats.norm.ppf(tau, loc=self.MU, scale=sigma)
        assert_bits_equal(Gaussian(self.MU, sigma).quantile(tau), expected)

    @pytest.mark.parametrize("sigma_index", range(3))
    def test_quantiles_bits_match_per_level_ppf(self, sigma_index):
        sigma = self.SIGMAS[sigma_index]
        expected = np.stack(
            [stats.norm.ppf(tau, loc=self.MU, scale=sigma) for tau in self.LEVELS]
        )
        assert_bits_equal(Gaussian(self.MU, sigma).quantiles(self.LEVELS), expected)

    def test_nan_level_is_nan(self):
        # Only the NaN's sign bit may differ from ppf's here.
        out = Gaussian(self.MU, self.SIGMAS[0]).quantile(float("nan"))
        assert np.isnan(out).all()
        assert np.isnan(stats.norm.ppf(float("nan"), loc=self.MU, scale=1.0)).all()

    def test_scalar_parameters(self):
        d = Gaussian(1.5, 0.25)
        assert_bits_equal(d.quantile(0.9), stats.norm.ppf(0.9, loc=1.5, scale=0.25))
        assert_bits_equal(
            d.quantiles([0.1, 0.9]),
            np.stack([stats.norm.ppf(t, loc=1.5, scale=0.25) for t in (0.1, 0.9)]),
        )

    def test_level_array_against_ppf(self):
        rng = np.random.default_rng(0)
        mu, sigma = rng.normal(size=64), rng.uniform(0.1, 5.0, size=64)
        taus = rng.uniform(size=64)
        assert_bits_equal(
            Gaussian(mu, sigma).quantile(taus),
            stats.norm.ppf(taus, loc=mu, scale=sigma),
        )


class TestStudentT:
    def test_quantile_matches_scipy(self):
        d = StudentT(np.array([1.0]), np.array([2.0]), 5.0)
        assert d.quantile(0.8)[0] == pytest.approx(stats.t.ppf(0.8, 5, 1.0, 2.0))

    def test_heavier_tails_than_gaussian(self):
        t_dist = StudentT(np.array([0.0]), np.array([1.0]), 3.0)
        g_dist = Gaussian(np.array([0.0]), np.array([1.0]))
        assert t_dist.quantile(0.99)[0] > g_dist.quantile(0.99)[0]

    def test_std_finite_df(self):
        d = StudentT(np.array([0.0]), np.array([2.0]), 4.0)
        assert d.std()[0] == pytest.approx(2.0 * np.sqrt(4.0 / 2.0))

    def test_std_fallback_low_df(self):
        d = StudentT(np.array([0.0]), np.array([2.0]), 1.5)
        assert d.std()[0] == pytest.approx(2.0)  # falls back to scale

    def test_sampling_location(self):
        d = StudentT(np.array([10.0]), np.array([1.0]), 8.0)
        samples = d.sample(20000, np.random.default_rng(1))
        assert np.median(samples) == pytest.approx(10.0, abs=0.1)

    def test_log_prob_matches_scipy(self):
        d = StudentT(np.array([1.0]), np.array([0.5]), 6.0)
        assert d.log_prob(np.array([2.0]))[0] == pytest.approx(
            stats.t.logpdf(2.0, 6.0, 1.0, 0.5)
        )

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            StudentT(np.array([0.0]), np.array([-1.0]), 3.0)
        with pytest.raises(ValueError):
            StudentT(np.array([0.0]), np.array([1.0]), 0.0)


class TestEmpirical:
    def test_quantile_interpolates_samples(self):
        d = Empirical(np.arange(101.0)[:, None])
        assert d.quantile(0.5)[0] == pytest.approx(50.0)
        assert d.quantile(0.9)[0] == pytest.approx(90.0)

    def test_mean_std(self):
        samples = np.random.default_rng(2).normal(5.0, 2.0, size=(50000, 1))
        d = Empirical(samples)
        assert d.mean()[0] == pytest.approx(5.0, abs=0.05)
        assert d.std()[0] == pytest.approx(2.0, abs=0.05)

    def test_batched_quantiles(self):
        samples = np.stack([np.arange(11.0), np.arange(11.0) * 2], axis=1)
        d = Empirical(samples)
        np.testing.assert_allclose(d.quantile(0.5), [5.0, 10.0])

    def test_resampling(self):
        d = Empirical(np.array([[1.0], [2.0], [3.0]]))
        out = d.sample(100, np.random.default_rng(3))
        assert set(np.unique(out)) <= {1.0, 2.0, 3.0}

    def test_log_prob_peaks_at_mode(self):
        samples = np.random.default_rng(4).normal(0.0, 1.0, size=(5000, 1))
        d = Empirical(samples)
        assert d.log_prob(np.array([0.0]))[0] > d.log_prob(np.array([3.0]))[0]

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            Empirical(np.array([[1.0]]))
