"""Table III — overhead breakdown: forecasting vs. optimization.

The paper splits one decision cycle into (a) workload forecasting
(model inference) and (b) auto-scaling optimization (solving
Definition 6, or Algorithm 1 for the adaptive variant), reporting that
DeepAR inference dominates, TFT is fast, and the optimization side is
milliseconds with a negligible gap between Robust and Adaptive.
"""

import pytest

from repro.core import (
    FixedQuantilePolicy,
    RobustAutoScalingManager,
    UncertaintyAwarePolicy,
)

from benchmarks.helpers import CONTEXT, THETA, print_header


@pytest.fixture(scope="module", autouse=True)
def only_alibaba(trace_name):
    if trace_name != "alibaba":
        pytest.skip("Table III is measured once (hardware metric, not per-trace)")


@pytest.fixture(scope="module")
def forecast(tft, test_series, train_series):
    return tft.predict(test_series[:CONTEXT], start_index=len(train_series))


@pytest.mark.benchmark(group="table3-forecasting")
def test_forecasting_deepar(benchmark, deepar, test_series, train_series):
    benchmark(
        lambda: deepar.predict(test_series[:CONTEXT], start_index=len(train_series))
    )


@pytest.mark.benchmark(group="table3-forecasting")
def test_forecasting_tft(benchmark, tft, test_series, train_series):
    benchmark(
        lambda: tft.predict(test_series[:CONTEXT], start_index=len(train_series))
    )


@pytest.mark.benchmark(group="table3-optimization")
def test_optimization_robust(benchmark, forecast):
    manager = RobustAutoScalingManager(THETA, FixedQuantilePolicy(0.9))
    benchmark(lambda: manager.plan(forecast))


@pytest.mark.benchmark(group="table3-optimization")
def test_optimization_adaptive(benchmark, forecast):
    manager = RobustAutoScalingManager(
        THETA, UncertaintyAwarePolicy(0.7, 0.9, uncertainty_threshold=100.0)
    )
    benchmark(lambda: manager.plan(forecast))


def test_table3_summary(benchmark, deepar, tft, forecast, test_series, train_series):
    import time

    def timed(fn, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best * 1000

    context = test_series[:CONTEXT]
    robust = RobustAutoScalingManager(THETA, FixedQuantilePolicy(0.9))
    adaptive = RobustAutoScalingManager(
        THETA, UncertaintyAwarePolicy(0.7, 0.9, uncertainty_threshold=100.0)
    )
    deepar_ms = timed(lambda: deepar.predict(context, start_index=len(train_series)))
    tft_ms = timed(lambda: tft.predict(context, start_index=len(train_series)))
    # Sub-millisecond solves: more repeats so the min is the solve, not noise.
    robust_ms = timed(lambda: robust.plan(forecast), repeats=50)
    adaptive_ms = timed(lambda: adaptive.plan(forecast), repeats=50)

    print_header("Table III — computation overhead breakdown")
    print(f"{'Workload Forecasting':<32} {'Auto-Scaling Optimization':<28}")
    print(f"{'DeepAR':<14}{'TFT':<18} {'Robust':<14}{'Adaptive':<14}")
    print(
        f"{deepar_ms:<11.2f}ms {tft_ms:<15.2f}ms {robust_ms:<11.3f}ms "
        f"{adaptive_ms:<11.3f}ms"
    )

    # Paper shape: sampling makes DeepAR inference the bottleneck; the two
    # optimization variants are both cheap and close to each other.
    assert deepar_ms > tft_ms
    assert robust_ms < tft_ms
    assert adaptive_ms < 10 * max(robust_ms, 0.01) + 5.0
    # Algorithm 1 costs one Eq. 8 uncertainty and one extra row over the
    # fixed-quantile solve, not a per-step loop.
    assert adaptive_ms <= 3 * robust_ms, (adaptive_ms, robust_ms)
    benchmark(lambda: robust.plan(forecast))
