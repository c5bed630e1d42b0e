"""The benchmark's four workloads.

Each workload concentrates its time in a different layer of the
program (see ``README.md`` for why each was chosen and which metrics
it is expected to move).  A workload has three parts:

* ``setup(seed)`` — generate the inputs from the seed, fit the model,
  build what the episodes share (and spawn the worker pool, where the
  workload has one).  Timed as ``setup_s``.
* ``episode(prepared, key, recorder)`` — one fixed-length unit of
  measured work on input ``key`` (``0 <= key < inputs_per_seed``),
  always identical for a given seed and key: each episode starts from
  a fresh copy of the fitted model.  With a recorder, the layers are
  wrapped and every call becomes a span.
* ``teardown(prepared)`` — release what setup acquired.

The program only ever sees the generated inputs; the seed stays here.
"""

from __future__ import annotations

import asyncio
import copy
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import SpanRecorder, check, instrument
from httpload import OpenLoopPoller
from repro import (
    AutoscalingRuntime,
    DeepARForecaster,
    FixedQuantilePolicy,
    MLPForecaster,
    RobustPredictiveAutoscaler,
    TFTForecaster,
    TrainingConfig,
    UncertaintyAwarePolicy,
    alibaba_like_trace,
    backtest,
)
from repro.adaptation import AdaptationManager
from repro.core.manager import RobustAutoScalingManager
from repro.core.plan import ScalingPlan
from repro.evaluation.metrics import mean_weighted_quantile_loss
from repro.obs import (
    AlertEngine,
    MetricsRegistry,
    ModelHealthMonitor,
    TraceCollector,
    default_rules,
    using_registry,
)
from repro.parallel import shutdown_shared_pool
from repro.service import GeneratorSource, ServiceRuntime, load_checkpoint
from repro.simulator.replay import replay_plan

STEPS_PER_DAY = 144
INTERVAL_SECONDS = 600.0
GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


@dataclass
class Episode:
    """What one episode did, gathered outside any timed region."""

    ops: int  # ticks timed, or backtest windows
    wall: float  # seconds from the first measured op to the last
    outputs: np.ndarray  # what every episode on this input must reproduce
    allocations: np.ndarray  # node target per served interval
    actual: np.ndarray  # workload that materialised per interval
    threshold: float
    mean_wql: float  # weighted quantile loss of the forecasts scored
    op_seconds: list = field(default_factory=list)  # latency per tick or call
    http: list = field(default_factory=list)  # httpload.Sample per request
    counts: dict = field(default_factory=dict)
    key: int = 0  # which input the episode served

    def quality(self) -> dict[str, float]:
        """Provisioning and forecast quality of the episode's outputs.

        The committed allocations are replayed on the simulator against
        the workload that materialised; the oracle provisions
        ``ceil(w / theta)`` nodes per interval.
        """
        plan = ScalingPlan(nodes=self.allocations, threshold=self.threshold)
        replay = replay_plan(plan, self.actual, interval_seconds=INTERVAL_SECONDS)
        oracle = np.maximum(np.ceil(self.actual / self.threshold), 1.0)
        return {
            "violation_rate": replay.violation_rate,
            "node_hours_ratio": replay.total_node_seconds
            / (oracle.sum() * INTERVAL_SECONDS),
            "mean_wql": self.mean_wql,
        }


def _training(epochs: int, seed: int) -> TrainingConfig:
    # No early stopping: every seed trains the same number of epochs,
    # so set-up and refit cost do not depend on the seed.
    return TrainingConfig(epochs=epochs, window_stride=2, seed=seed, patience=0)


def check_ticks(results, runtime, warmup: int) -> np.ndarray:
    """Output checks shared by the tick workloads; returns allocations.

    After warm-up every interval must be served by a predictive plan —
    neither degraded (planner failure) nor the reactive fallback — and
    every allocation must be a finite integer of at least one node.
    """
    served = results[warmup:]
    check(bool(served), "no tick was served after warm-up")
    bad = [r.tick for r in served if r.source != "predictive" or r.degraded]
    check(
        not bad,
        f"{len(bad)} tick(s) after warm-up were not served predictively, "
        f"first at tick {bad[:1]}",
    )
    check(
        runtime.planner_errors == 0,
        f"planner raised {runtime.planner_errors} time(s)",
    )
    allocations = np.array([r.target_nodes for r in served], dtype=float)
    check(
        bool(np.all(np.isfinite(allocations)))
        and bool(np.all(allocations == np.round(allocations)))
        and bool(np.all(allocations >= 1)),
        "allocations must be finite integers >= 1",
    )
    return allocations.astype(np.int64)


def served_wql(results, warmup: int, actual) -> float:
    """mean_wQL of the forecasts the served intervals were provisioned from.

    A plan committed at tick t covers t, t+1, ...; the interval at
    offset k reads column k of the plan's forecast (the last column
    once the plan is exhausted), exactly as the runtime actuates it.
    """
    levels = None
    rows = []
    meta = None
    position = 0
    for index, result in enumerate(results):
        if result.decision is not None:
            meta = result.decision.plan.metadata
            position = 0
        if index >= warmup:
            values = np.asarray(meta["forecast_values"])
            plan_levels = tuple(float(v) for v in meta["forecast_levels"])
            if levels is None:
                levels = plan_levels
            check(plan_levels == levels, "forecast levels changed mid-run")
            rows.append(values[:, min(position, values.shape[1] - 1)])
        position += 1
    quantiles = np.array(rows)
    return mean_weighted_quantile_loss(
        np.asarray(actual), {tau: quantiles[:, i] for i, tau in enumerate(levels)}
    )


# -- closed loop, driven by the benchmark ------------------------------------
@dataclass
class RecedingPrepared:
    train: np.ndarray
    test: np.ndarray
    forecaster: object
    fit_seconds: float


class RecedingWorkload:
    """Receding-horizon closed loop: ``runtime.step`` once per interval.

    The loop is warmed with the last ``context`` training values (the
    reactive fallback serves those, untimed), then replays the test
    stream as fast as the loop steps, re-planning every tick.
    """

    context = 72
    horizon = 72
    threshold = 200.0
    has_ticks = True
    inputs_per_seed = 1

    def __init__(self, name, train_days, test_ticks, epochs, model, policy):
        self.name = name
        self.train_steps = train_days * STEPS_PER_DAY
        self.test_ticks = test_ticks
        self.epochs = epochs
        self._model = model
        self._policy = policy

    def inputs(self, seed: int) -> np.ndarray:
        trace = alibaba_like_trace(
            num_steps=self.train_steps + self.test_ticks, seed=seed
        )
        return trace.values

    def setup(self, seed: int) -> RecedingPrepared:
        values = self.inputs(seed)
        train, test = values[: self.train_steps], values[self.train_steps :]
        forecaster = self._model(
            self.context, self.horizon, _training(self.epochs, seed)
        )
        start = time.perf_counter()
        forecaster.fit(train)
        return RecedingPrepared(
            train, test, forecaster, time.perf_counter() - start
        )

    def teardown(self, prepared) -> None:
        pass

    def episode(self, prepared: RecedingPrepared, key=0, recorder=None) -> Episode:
        forecaster = copy.deepcopy(prepared.forecaster)
        policy = self._policy()
        scaler = RobustPredictiveAutoscaler(
            forecaster, self.threshold, policy, quantile_levels=GRID
        )
        runtime = AutoscalingRuntime(
            planner=scaler,
            context_length=self.context,
            horizon=self.horizon,
            threshold=self.threshold,
            replan_every=1,
            start_tick=len(prepared.train) - self.context,
        )
        with using_registry(MetricsRegistry()):
            results = [runtime.step(v) for v in prepared.train[-self.context :]]
            if recorder is not None:
                instrument(runtime, {"step": "core.step"}, recorder)
                instrument(scaler, {"plan": "core.plan"}, recorder)
                instrument(forecaster, {"predict": "forecast.predict"}, recorder)
                instrument(scaler.manager, {"plan": "core.solve"}, recorder)
                instrument(
                    policy, {"bound_workload": "core.bound_workload"}, recorder
                )
            tick_seconds = []
            first = time.perf_counter()
            for value in prepared.test:
                start = time.perf_counter()
                results.append(runtime.step(value))
                tick_seconds.append(time.perf_counter() - start)
            wall = time.perf_counter() - first
        allocations = check_ticks(results, runtime, self.context)
        return Episode(
            ops=len(tick_seconds),
            wall=wall,
            outputs=allocations,
            allocations=allocations,
            actual=prepared.test,
            threshold=self.threshold,
            mean_wql=served_wql(results, self.context, prepared.test),
            op_seconds=tick_seconds,
            counts={
                "planner_errors": runtime.planner_errors,
                "degraded_ticks": runtime.degraded_intervals,
            },
        )


# -- the service daemon ---------------------------------------------------------
@dataclass
class ServicePrepared:
    train: np.ndarray
    streams: list  # the level-shifted tick streams, served in rotation
    forecaster: object
    fit_seconds: float
    workdir: Path


class ServiceWorkload:
    """``ServiceRuntime`` as ``serve --adapt`` builds it, under HTTP reads.

    Each stream continues the training trace, level-shifted out of the
    training regime, so drift alerts repeatedly drive warm refit ->
    shadow -> promotion.  How often they fire depends on the stream, so
    each seed makes ``inputs_per_seed`` distinct realisations and a
    run rotates through them rather than resting on one.  An
    open-loop poller on the daemon's own event loop reads the ``top``
    dashboard's endpoints plus a Prometheus scrape at a fixed rate, one
    connection at a time.
    """

    name = "service-drift-mlp"
    context = 36
    horizon = 12
    replan_every = 12
    threshold = 400.0
    epochs = 30
    refit_epochs = 6
    train_steps = 5 * STEPS_PER_DAY
    #: Fixed run length: checkpoint cost grows with ticks served.
    stream_ticks = 1440
    inputs_per_seed = 5
    checkpoint_every = 48
    http_rate = 50.0  # requests per second, below the loop's capacity
    http_paths = (
        "/health",
        "/series",
        "/decisions",
        "/metrics?format=prometheus",
    )
    has_ticks = True

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def inputs(self, seed: int) -> tuple[np.ndarray, list]:
        """The training series and the shifted streams, all from ``seed``."""
        traces = [
            alibaba_like_trace(
                num_steps=self.train_steps + self.stream_ticks,
                seed=seed * self.inputs_per_seed + k,
            ).values
            for k in range(self.inputs_per_seed)
        ]
        streams = [t[self.train_steps :] * 1.6 + 800.0 for t in traces]
        return traces[0][: self.train_steps], streams

    def setup(self, seed: int) -> ServicePrepared:
        train, streams = self.inputs(seed)
        forecaster = MLPForecaster(
            self.context, self.horizon, config=_training(self.epochs, seed)
        )
        start = time.perf_counter()
        forecaster.fit(train)
        fit_seconds = time.perf_counter() - start
        self.workdir.mkdir(parents=True, exist_ok=True)
        return ServicePrepared(train, streams, forecaster, fit_seconds, self.workdir)

    def teardown(self, prepared) -> None:
        shutil.rmtree(prepared.workdir, ignore_errors=True)

    def _build(self, prepared: ServicePrepared, stream, directory: Path):
        forecaster = copy.deepcopy(prepared.forecaster)
        scaler = RobustPredictiveAutoscaler(
            forecaster, self.threshold, FixedQuantilePolicy(0.9)
        )
        runtime = AutoscalingRuntime(
            planner=scaler,
            context_length=self.context,
            horizon=self.horizon,
            threshold=self.threshold,
            replan_every=self.replan_every,
            start_tick=len(prepared.train),
            monitor=ModelHealthMonitor(
                window=24, alerts=AlertEngine(default_rules(nominal_level=0.9))
            ),
            record_provenance=True,
        )
        adaptation = AdaptationManager(
            runtime,
            policy="wql<=0.98 cal<=0.5 soak=1 guard=1",
            shadow_window=120,
            refit_epochs=self.refit_epochs,
            cooldown=24,
        )
        for value in prepared.train[-adaptation.history.maxlen :]:
            adaptation.history.append(float(value))
        service = ServiceRuntime(
            runtime,
            GeneratorSource(stream),
            checkpoint_dir=directory / "checkpoint",
            checkpoint_every=self.checkpoint_every,
            config={
                "model": "mlp",
                "context": self.context,
                "horizon": self.horizon,
                "replan_every": self.replan_every,
                "threshold": self.threshold,
                "adapt": True,
            },
            decision_log=directory / "decisions.jsonl",
            adaptation=adaptation,
            tracer=TraceCollector(max_traces=64),
            linger=60.0,
        )
        return scaler, forecaster, runtime, adaptation, service

    def episode(self, prepared: ServicePrepared, key=0, recorder=None) -> Episode:
        directory = prepared.workdir / "episode"
        directory.mkdir(parents=True)
        try:
            return self._episode(prepared, key, recorder, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _episode(self, prepared, key: int, recorder, directory: Path) -> Episode:
        stream = prepared.streams[key]
        scaler, forecaster, runtime, adaptation, service = self._build(
            prepared, stream, directory
        )
        steps = SpanRecorder(keep_results=True)
        instrument(runtime, {"step": "core.step"}, steps)
        if recorder is not None:
            instrument(runtime, {"step": "core.step"}, recorder)
            instrument(scaler, {"plan": "core.plan"}, recorder)
            instrument(forecaster, {"predict": "forecast.predict"}, recorder)
            instrument(scaler.manager, {"plan": "core.solve"}, recorder)
            instrument(
                scaler.manager.policy,
                {"bound_workload": "core.bound_workload"},
                recorder,
            )
            instrument(runtime.monitor, {"observe": "obs.monitor_observe"}, recorder)
            instrument(
                adaptation,
                {"on_tick": "adaptation.on_tick", "refit": "adaptation.refit"},
                recorder,
            )
            instrument(
                service, {"write_checkpoint": "service.checkpoint"}, recorder
            )
            routes = service.control.routes
            for route, handler in routes.items():
                routes[route] = recorder.wrap(handler, "service.handler")
        poller = OpenLoopPoller(self.http_rate, self.http_paths)
        with using_registry(MetricsRegistry()):
            asyncio.run(_drive(service, poller))
        results = [span.result for span in steps.spans]
        allocations = check_ticks(results, runtime, self.context)
        actual = stream[self.context :]

        failed = poller.verify()
        check(failed == 0, f"{failed} HTTP request(s) failed or did not parse")
        check(len(poller.samples) > 0, "the poller sent no request")
        check(adaptation.refits >= 1, "the run made no refit")
        check(adaptation.promotions >= 1, "the run made no promotion")
        log = (directory / "decisions.jsonl").read_text().splitlines()
        check(
            len(log) == len(runtime.decisions),
            f"decision log has {len(log)} lines for "
            f"{len(runtime.decisions)} committed decisions",
        )
        check(
            all(json.loads(line)["kind"] == "decision" for line in log),
            "decision log holds a non-decision record",
        )
        checkpoint = directory / "checkpoint"
        state = load_checkpoint(checkpoint)
        check(
            state["runtime"]["tick"] == runtime.tick,
            f"last checkpoint is at tick {state['runtime']['tick']}, "
            f"the run ended at {runtime.tick}",
        )
        # Every tick counts, warm-up included: the daemon serves them
        # all, and the traced spans cover the same interval.
        wall = steps.spans[-1].end - steps.spans[0].start
        return Episode(
            key=key,
            ops=len(results),
            wall=wall,
            outputs=allocations,
            allocations=allocations,
            actual=actual,
            threshold=self.threshold,
            mean_wql=served_wql(results, self.context, actual),
            op_seconds=[span.seconds for span in steps.spans],
            http=poller.samples,
            counts={
                "planner_errors": runtime.planner_errors,
                "degraded_ticks": runtime.degraded_intervals,
                "refits": adaptation.refits,
                "promotions": adaptation.promotions,
                "rollbacks": adaptation.rollbacks,
                "checkpoints": service.checkpoints_written,
                "checkpoint_bytes": (checkpoint / "state.json").stat().st_size,
            },
        )


async def _drive(service: ServiceRuntime, poller: OpenLoopPoller) -> None:
    """Run the daemon with the poller on its loop until the stream ends.

    The control plane lingers after the last tick until the poller has
    finished its in-flight request, so no request is cut off by the
    shutdown.
    """
    daemon = asyncio.ensure_future(service.run())
    while service.port is None and not daemon.done():
        await asyncio.sleep(0)
    if daemon.done():
        await daemon  # raises the daemon's start-up error
        return
    reads = asyncio.ensure_future(
        poller.run(service.port, lambda: service.status == "serving")
    )
    try:
        await reads
    finally:
        service.request_stop()
        await daemon


# -- offline evaluation ---------------------------------------------------------
@dataclass
class OfflinePrepared:
    train: np.ndarray
    test: np.ndarray
    forecaster: object
    fit_seconds: float
    first_call_seconds: float


class OfflineWorkload:
    """TFT fit, then ``backtest(n_jobs=2)`` over stride-6 test windows.

    The paper's Table I protocol: rolling-origin windows over the test
    split, scored by weighted quantile loss.  The forecasts also drive
    provisioning: each window's 0.9-quantile plan is committed for the
    ``stride`` intervals until the next window.
    """

    name = "offline-tft-backtest"
    context = 72
    horizon = 72
    stride = 6
    n_jobs = 2
    threshold = 200.0
    epochs = 1
    days = 12
    has_ticks = False
    inputs_per_seed = 1

    def inputs(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        trace = alibaba_like_trace(num_steps=self.days * STEPS_PER_DAY, seed=seed)
        train, test = trace.split(test_fraction=0.25)
        return train.values, test.values

    def _backtest(self, prepared, n_jobs: int):
        return backtest(
            prepared.forecaster,
            prepared.test,
            self.context,
            self.horizon,
            GRID,
            stride=self.stride,
            series_start_index=len(prepared.train),
            n_jobs=n_jobs,
        )

    def setup(self, seed: int) -> OfflinePrepared:
        train, test = self.inputs(seed)
        forecaster = TFTForecaster(
            self.context,
            self.horizon,
            quantile_levels=GRID,
            config=_training(self.epochs, seed),
        )
        start = time.perf_counter()
        forecaster.fit(train)
        fit_seconds = time.perf_counter() - start
        prepared = OfflinePrepared(train, test, forecaster, fit_seconds, 0.0)
        start = time.perf_counter()
        self._backtest(prepared, self.n_jobs)  # spawns the worker pool
        prepared.first_call_seconds = time.perf_counter() - start
        return prepared

    def teardown(self, prepared) -> None:
        shutdown_shared_pool()

    def serial_reference(self, prepared: OfflinePrepared) -> Episode:
        """``backtest(n_jobs=1)``: every episode must equal it bitwise."""
        return self._episode(prepared, 1, None)

    def episode(self, prepared: OfflinePrepared, key=0, recorder=None) -> Episode:
        return self._episode(prepared, self.n_jobs, recorder)

    def _episode(self, prepared, n_jobs: int, recorder) -> Episode:
        with using_registry(MetricsRegistry()):
            start = time.perf_counter()
            if recorder is None:
                result = self._backtest(prepared, n_jobs)
            else:
                result = recorder.call(
                    "evaluation.backtest", self._backtest, (prepared, n_jobs), {}
                )
            wall = time.perf_counter() - start
        allocations, actual = self._provision(result, prepared.test)
        return Episode(
            ops=result.num_windows,
            wall=wall,
            outputs=np.stack([fc.values for fc in result.forecasts]),
            allocations=allocations,
            actual=actual,
            threshold=self.threshold,
            mean_wql=result.mean_wql(),
            op_seconds=[wall],
        )

    def _provision(self, result, test: np.ndarray):
        """Commit each window's 0.9-quantile plan until the next window.

        ``ScalingPlan`` itself rejects allocations below one node.
        """
        manager = RobustAutoScalingManager(self.threshold, FixedQuantilePolicy(0.9))
        nodes, actual = [], []
        last = len(result.points) - 1
        for index, (point, forecast) in enumerate(
            zip(result.points, result.forecasts)
        ):
            span = self.stride if index < last else self.horizon
            nodes.append(manager.plan(forecast).nodes[:span])
            actual.append(test[point : point + span])
        return np.concatenate(nodes), np.concatenate(actual)


def build_workloads(workdir: Path) -> dict:
    """Every workload by name."""
    workloads = [
        RecedingWorkload(
            "receding-mlp-adaptive",
            train_days=14,
            test_ticks=720,
            epochs=20,
            model=lambda c, h, cfg: MLPForecaster(c, h, config=cfg),
            policy=lambda: UncertaintyAwarePolicy(
                0.7, 0.95, uncertainty_threshold=1400.0
            ),
        ),
        RecedingWorkload(
            "receding-deepar-fixed",
            train_days=6,
            test_ticks=144,
            epochs=2,
            model=lambda c, h, cfg: DeepARForecaster(c, h, config=cfg),
            policy=lambda: FixedQuantilePolicy(0.9),
        ),
        ServiceWorkload(workdir),
        OfflineWorkload(),
    ]
    return {w.name: w for w in workloads}
