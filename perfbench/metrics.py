"""Names, units and predictions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names;
``tests/test_perfbench_harness.py`` keeps the two in step.  Each
per-layer entry carries the prediction written before the baseline was
measured: which end-to-end metric the layer should move, on which
workload, and where it should stay flat.
"""

from __future__ import annotations

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
)

MLP = "receding-mlp-adaptive"
DEEPAR = "receding-deepar-fixed"
SERVICE = "service-drift-mlp"
OFFLINE = "offline-tft-backtest"
TICKS = "all tick workloads"

#: (name, unit, what it measures, moves, on, predicted flat on).
#: Counts are per episode; ``share.*`` are percent of the traced wall
#: time; client-side HTTP and tick timings come from the untraced episodes
#: of a traced run.
PER_LAYER = (
    ("quality.violation_rate", "ratio", "intervals whose load exceeds capacity",
     "", "all four", ""),
    ("quality.node_hours_ratio", "ratio", "node-hours / oracle node-hours",
     "", "all four", ""),
    ("quality.mean_wql", "ratio", "weighted quantile loss of the forecasts",
     "", "all four", ""),
    ("ticks", "count", "ticks per episode", "", TICKS, ""),
    ("tick_p50_ms", "ms", "runtime.step, untraced, median",
     "ops_per_s", TICKS, ""),
    ("tick_tail_ms", "ms", "runtime.step, untraced, tail",
     "ops_per_s", TICKS, ""),
    ("http_requests", "count", "GETs sent in the untraced episodes",
     "", SERVICE, ""),
    ("http_p50_ms", "ms", "GET from due time, untraced, median", "", SERVICE, ""),
    ("http_tail_ms", "ms", "GET from due time, untraced, tail", "", SERVICE, ""),
    ("service.http_health_ms", "ms", "GET /health from due time, median",
     "http_p50_ms", SERVICE, ""),
    ("service.http_series_ms", "ms", "GET /series from due time, median",
     "http_p50_ms", SERVICE, ""),
    ("service.http_decisions_ms", "ms", "GET /decisions from due time, median",
     "http_p50_ms", SERVICE, ""),
    ("service.http_metrics_ms", "ms", "Prometheus scrape from due time, median",
     "http_p50_ms", SERVICE, ""),
    ("bench.poller_late_ms", "ms", "poller send delay, median",
     "http_p50_ms", SERVICE, ""),
    ("bench.poller_late_tail_ms", "ms", "poller send delay, tail",
     "http_tail_ms", SERVICE, ""),
    ("core.runtime_self_ms", "ms", "runtime.step minus wrapped children",
     "ops_per_s, tick_p50_ms", SERVICE, DEEPAR),
    ("core.plan_ms", "ms", "decision cycle: planner.plan",
     "tick_tail_ms", TICKS, ""),
    ("core.plans", "count", "decision cycles per episode",
     "tick_tail_ms", TICKS, ""),
    ("core.solve_ms", "ms", "manager.plan (bound + solve)",
     "ops_per_s, tick_p50_ms", MLP, DEEPAR),
    ("core.bound_workload_ms", "ms", "policy.bound_workload",
     "ops_per_s, tick_p50_ms", MLP, DEEPAR),
    ("core.degraded_ticks", "count", "intervals served degraded",
     "failed", TICKS, ""),
    ("core.planner_errors", "count", "planner exceptions", "failed", TICKS, ""),
    ("forecast.predict_ms", "ms", "forecaster.predict (live and shadow)",
     "ops_per_s, tick_p50_ms, tick_tail_ms", DEEPAR, SERVICE),
    ("forecast.predict_calls", "count", "predict calls per episode",
     "ops_per_s", DEEPAR, SERVICE),
    ("forecast.fit_s", "s", "model fit in set-up, median", "setup_s",
     "all four", ""),
    ("obs.monitor_observe_ms", "ms", "ModelHealthMonitor.observe",
     "ops_per_s, tick_p50_ms", SERVICE, DEEPAR),
    ("service.checkpoint_ms", "ms", "ServiceRuntime.write_checkpoint",
     "ops_per_s, http_tail_ms", SERVICE, "every other workload"),
    ("service.checkpoints", "count", "checkpoints per episode",
     "ops_per_s, http_tail_ms", SERVICE, "every other workload"),
    ("service.checkpoint_bytes", "bytes", "state.json of the last checkpoint",
     "ops_per_s, http_tail_ms", SERVICE, "every other workload"),
    ("service.handler_ms", "ms", "control-plane route handler",
     "http_p50_ms", SERVICE, ""),
    ("adaptation.on_tick_ms", "ms", "AdaptationManager.on_tick",
     "http_tail_ms, tick_tail_ms", SERVICE, "others"),
    ("adaptation.refit_ms", "ms", "AdaptationManager.refit",
     "http_tail_ms, tick_tail_ms", SERVICE, "others"),
    ("adaptation.refits", "count", "refits per episode",
     "http_tail_ms, tick_tail_ms", SERVICE, "others"),
    ("adaptation.promotions", "count", "promotions per episode",
     "http_tail_ms, tick_tail_ms", SERVICE, "others"),
    ("adaptation.rollbacks", "count", "rollbacks per episode",
     "http_tail_ms, tick_tail_ms", SERVICE, "others"),
    ("evaluation.backtest_s", "s", "backtest(n_jobs=2) call, median",
     "ops_per_s", OFFLINE, "tick workloads"),
    ("evaluation.backtest_serial_s", "s", "backtest(n_jobs=1) reference call",
     "ops_per_s", OFFLINE, "tick workloads"),
    ("parallel.speedup", "x", "serial / parallel call (base: serial)",
     "ops_per_s", OFFLINE, "tick workloads"),
    ("parallel.pool_spawn_s", "s", "first parallel call minus a warm call",
     "setup_s", OFFLINE, "tick workloads"),
    ("share.forecast_pct", "%", "forecaster.predict", "", "", ""),
    ("share.solve_pct", "%", "manager.plan", "", "", ""),
    ("share.plan_self_pct", "%", "planner.plan outside predict and solve",
     "", "", ""),
    ("share.runtime_self_pct", "%", "runtime.step outside wrapped children",
     "", "", ""),
    ("share.monitor_pct", "%", "monitor.observe", "", "", ""),
    ("share.checkpoint_pct", "%", "write_checkpoint", "", "", ""),
    ("share.refit_pct", "%", "adaptation refit", "", "", ""),
    ("share.adaptation_self_pct", "%", "on_tick outside refit and predict",
     "", "", ""),
    ("share.handler_pct", "%", "route handlers", "", "", ""),
    ("share.backtest_pct", "%", "backtest(n_jobs=2) calls", "", "", ""),
    ("share.unwrapped_pct", "%", "outside every wrapped call", "", "", ""),
    ("bench.ops_per_s_untraced", "1/s", "throughput, untraced episodes",
     "", "", ""),
    ("bench.ops_per_s_traced", "1/s", "throughput, traced episodes",
     "", "", ""),
    ("bench.tracing_overhead_pct", "%",
     "untraced / traced throughput - 1, median over pairs", "", "", ""),
)

UNITS = {name: unit for name, unit in END_TO_END}
UNITS.update({entry[0]: entry[1] for entry in PER_LAYER})


def as_json_metrics(values: dict, names) -> dict:
    """``{name: {"value", "unit"}}`` for ``names``, in order."""
    return {
        name: {"value": float(values[name]), "unit": UNITS[name]}
        for name in names
    }


def layer_table(values: dict) -> list[str]:
    """The per-layer table: value, unit, and the prediction it tests."""
    lines = [
        f"  {'layer metric':<28}{'value':>12} {'unit':<6} "
        f"{'moves':<38}{'on':<24}flat on",
    ]
    for name, unit, _what, moves, on, flat in PER_LAYER:
        if name.startswith(("share.", "bench.ops", "bench.tracing")):
            continue
        lines.append(
            f"  {name:<28}{values[name]:>12.4g} {unit:<6} "
            f"{moves:<38}{on:<24}{flat}"
        )
    lines.append("  share of the blocking (wall) time, traced episodes:")
    for name, _unit, what, *_ in PER_LAYER:
        if name.startswith("share."):
            lines.append(f"    {name:<28}{values[name]:>8.2f} %  {what}")
    lines.append(
        "  tracing overhead: "
        f"{values['bench.tracing_overhead_pct']:+.2f} % (median over "
        "untraced-traced pairs on one input, base: traced throughput); "
        f"all episodes: {values['bench.ops_per_s_untraced']:.2f} 1/s "
        f"untraced, {values['bench.ops_per_s_traced']:.2f} 1/s traced"
    )
    return lines
