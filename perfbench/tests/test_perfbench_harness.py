"""Tests of the benchmark harness itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import ctypes
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from harness import (
    CheckFailed,
    SpanRecorder,
    instrument,
    tail_percentile,
    timing_summary,
)
from metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles -------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [
        (10_000, 99.9),
        (9_999, 99.0),
        (1_000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (99, 75.0),
        (40, 75.0),
        (39, 50.0),
        (20, 50.0),
        (19, None),
        (0, None),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert count * (100 - expected) / 100 >= 10 - 1e-9


def test_timing_summary_reports_count_median_and_tail():
    samples = [float(i) for i in range(1, 1001)]
    summary = timing_summary(samples)
    assert summary.count == 1000
    assert summary.p50 == pytest.approx(500.5)
    assert summary.tail_pct == 99.0
    assert 989 < summary.tail < 991
    assert "n=1000" in summary.describe()
    assert timing_summary([]).count == 0


# -- wrappers ----------------------------------------------------------------
class Layer:
    def __init__(self, child=None):
        self.child = child
        self.calls = 0

    def work(self, x, *, scale=2):
        """Double, or call the child first."""
        self.calls += 1
        if self.child is not None:
            x = self.child.work(x)
        return x * scale

    def echo(self, value):
        return value

    def fail(self, error):
        raise error


def test_instrument_is_transparent_to_results_and_exceptions():
    recorder = SpanRecorder()
    plain, wrapped = Layer(), Layer()
    instrument(
        wrapped,
        {"work": "layer.work", "echo": "layer.echo", "fail": "layer.fail"},
        recorder,
    )

    assert wrapped.work(3, scale=5) == plain.work(3, scale=5) == 15
    result = object()
    assert wrapped.echo(result) is result

    error = KeyError("kept")
    with pytest.raises(KeyError) as caught:
        wrapped.fail(error)
    assert caught.value is error
    names = [s.name for s in recorder.spans]
    assert names == ["layer.work", "layer.echo", "layer.fail"]
    assert all(s.result is None for s in recorder.spans)

    keeping = SpanRecorder(keep_results=True)
    kept = Layer()
    instrument(kept, {"echo": "layer.echo"}, keeping)
    assert kept.echo(result) is result
    assert keeping.spans[0].result is result

    assert type(wrapped).__name__ == "Layer"
    assert isinstance(wrapped, Layer)
    assert inspect.signature(type(wrapped).work) == inspect.signature(Layer.work)


def test_spans_nest_and_self_time_excludes_children():
    recorder = SpanRecorder()
    child = Layer()
    parent = Layer(child)
    instrument(child, {"work": "child"}, recorder)
    instrument(parent, {"work": "parent"}, recorder)
    parent.work(1)
    parent.work(2)
    spans = recorder.by_name()
    for outer, inner in zip(spans["parent"], spans["child"]):
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.self_seconds == pytest.approx(outer.seconds - inner.seconds)


def test_deep_copy_stays_instrumented_and_pickle_stores_the_plain_class():
    recorder = SpanRecorder()
    original = Layer()
    instrument(original, {"work": "layer.work"}, recorder)
    clone = copy.deepcopy(original)
    assert clone is not original
    assert type(clone) is type(original)
    clone.work(1)
    assert clone.calls == 1 and original.calls == 0
    assert len(recorder.spans) == 1

    restored = pickle.loads(pickle.dumps(original, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(restored) is Layer
    assert restored.work(2) == 4
    assert len(recorder.spans) == 1


# -- workloads ---------------------------------------------------------------
@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    from workloads import build_workloads

    return build_workloads(tmp_path_factory.mktemp("work"))


def _flatten(made):
    if isinstance(made, (tuple, list)):
        return np.concatenate([_flatten(part) for part in made])
    return np.asarray(made)


def _inputs(workload, seed):
    return _flatten(workload.inputs(seed))


def test_every_workload_is_deterministic_in_its_seed(workloads):
    assert len(workloads) == 4
    for workload in workloads.values():
        first = _inputs(workload, 7)
        assert np.array_equal(first, _inputs(workload, 7)), workload.name
        assert not np.array_equal(first, _inputs(workload, 8)), workload.name


def _small_receding(model):
    from repro import FixedQuantilePolicy
    from workloads import RecedingWorkload

    return RecedingWorkload(
        "small",
        train_days=3,
        test_ticks=24,
        epochs=1,
        model=model,
        policy=lambda: FixedQuantilePolicy(0.9),
    )


def _mlp(context, horizon, config):
    from repro import MLPForecaster

    return MLPForecaster(context, horizon, config=config)


def test_traced_and_untraced_episodes_commit_the_same_allocations():
    workload = _small_receding(_mlp)
    prepared = workload.setup(seed=3)
    untraced = workload.episode(prepared)
    recorder = SpanRecorder()
    traced = workload.episode(prepared, 0, recorder)
    assert np.array_equal(untraced.allocations, traced.allocations)
    names = set(recorder.by_name())
    assert {"core.step", "core.plan", "forecast.predict", "core.solve"} <= names


def test_a_forced_degraded_tick_fails_the_run():
    from repro import MLPForecaster

    class FailingMLP(MLPForecaster):
        """Raises on the third and fourth predict: both plan attempts."""

        def predict(self, *args, **kwargs):
            self.failing_calls = getattr(self, "failing_calls", 0) + 1
            if self.failing_calls in (3, 4):
                raise RuntimeError("forced planner failure")
            return super().predict(*args, **kwargs)

    workload = _small_receding(
        lambda context, horizon, config: FailingMLP(context, horizon, config=config)
    )
    prepared = workload.setup(seed=3)
    with pytest.raises(CheckFailed, match="not served predictively"):
        workload.episode(prepared)


def test_a_forced_http_500_fails_the_run(workloads, monkeypatch):
    from repro.service import ServiceRuntime

    def broken(self, query, body):
        raise RuntimeError("forced handler failure")

    monkeypatch.setattr(ServiceRuntime, "_handle_health", broken)
    workload = workloads["service-drift-mlp"]
    prepared = workload.setup(seed=3)
    try:
        with pytest.raises(CheckFailed, match="HTTP request"):
            workload.episode(prepared)
    finally:
        workload.teardown(prepared)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        ["receding-mlp-adaptive", "receding-deepar-fixed",
         "service-drift-mlp", "offline-tft-backtest"]
    )


#: prctl option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36


def _adopted(session: int) -> list[int]:
    """PIDs in ``session`` re-parented to this process, ended or not."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue  # reaped while listed
        _state, ppid, _pgrp, sid = text.rsplit(")", 1)[1].split()[:4]
        if int(sid) == session and int(ppid) == os.getpid():
            found.append(int(stat.parent.name))
    return found


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
def test_a_run_leaves_no_process_behind(tmp_path):
    """The backtest's pool workers and resource tracker end with the run.

    This process becomes a subreaper, so a process the run left running
    is re-parented here and found, however soon it ends afterwards.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        pytest.skip("cannot become a subreaper")
    out, err = tmp_path / "out", tmp_path / "err"
    try:
        with out.open("w") as stdout, err.open("w") as stderr:
            process = subprocess.Popen(
                [sys.executable, "perfbench/run.py", "--workload",
                 "offline-tft-backtest", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=ROOT, stdout=stdout, stderr=stderr, start_new_session=True,
            )
            process.wait(timeout=170)
        left = _adopted(process.pid)
        for pid in left:
            os.waitpid(pid, 0)
    finally:
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
    assert process.returncode == 0, err.read_text()
    assert json.loads(out.read_text().strip().splitlines()[-1])["correct"]
    assert left == []
