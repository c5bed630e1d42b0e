"""End-to-end autoscaler benchmark: run one workload, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload receding-mlp-adaptive \\
        --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper on any
layer.  ``--trace 1`` measures ``--seconds`` untraced and, alternating
with it on the same inputs, half as long traced: it reports the
per-layer metrics, the share of the blocking time each layer owns, and
the tracing overhead (untraced against traced throughput).  Readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when an output check fails, and 2 when the program cannot be
imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os

# One BLAS thread per process, so the daemon's loop and each backtest
# worker own one core instead of every process starting a BLAS thread
# per core.  Set before numpy loads; spawned workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import shutil
import statistics
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from harness import CheckFailed, SpanRecorder, check, percentile, timing_summary
from metrics import END_TO_END, PER_LAYER, as_json_metrics, layer_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run (``setup_s`` is their median): as many as the first
#: one's duration fits into SETUP_SECONDS, within [SETUP_REPEATS,
#: MAX_SETUPS].
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MAX_SETUPS = 15
MIN_REQUESTS = 1000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_episode(workload, prepared, key, recorder, first, counter):
    """One episode on input ``key``; returns it and the seconds it took.

    Every episode must reproduce exactly the outputs of the run's first
    one on the same input (``first``, keyed by input), traced or not:
    the wrappers must not change what the program does.
    """
    start = time.perf_counter()
    episode = workload.episode(prepared, key, recorder)
    seconds = time.perf_counter() - start
    counter["attempted"] += episode.ops + len(episode.http)
    reference = first.setdefault(key, episode).outputs
    same_shape = episode.outputs.shape == reference.shape
    differ = np.flatnonzero(episode.outputs != reference) if same_shape else []
    check(
        same_shape and len(differ) == 0,
        f"a{' traced' if recorder else 'n untraced'} episode on input {key} "
        f"produced other outputs than the first one "
        f"({'shapes differ' if not same_shape else f'{len(differ)} values differ'})",
    )
    return episode, seconds


def throughput(episodes) -> float:
    """Operations per wall second over all ``episodes`` together.

    A ratio of sums, not a median of per-episode rates: the host's
    speed moves in phases of several seconds, so per-episode rates come
    in two clusters and their median jumps between them, while the
    pooled rate moves only with the share of time spent in each.
    """
    return sum(e.ops for e in episodes) / sum(e.wall for e in episodes)


def tracing_overhead(pairs) -> float:
    """Percent by which tracing lowers throughput, base: traced.

    The median over ``pairs`` of an untraced episode and the traced
    episode run right after it on the same input, so both sides of a
    pair see the same spell of host speed.
    """
    ratios = [throughput([untraced]) / throughput([traced])
              for untraced, traced in pairs]
    return 100.0 * (statistics.median(ratios) - 1.0)


def measure(workload, seed: int, seconds: float, traced: bool, counter) -> dict:
    """Set up, then run episodes until ``seconds`` have gone into them.

    The set-ups are spread over the run: one before the first episode,
    each other one once the episodes have run its share of ``seconds``,
    so ``setup_s`` samples the same spells of host speed as
    ``ops_per_s``.  Each set-up replaces the one before, so equal
    outputs across episodes also show that set-up is deterministic.

    On a workload that serves HTTP, the untraced episodes continue
    until they have sent ``MIN_REQUESTS``, enough for a p99 with ten
    samples beyond it.
    With ``traced``, each untraced episode is followed by a traced one
    on the same input until the traced episodes have run
    ``seconds / 2``.
    """
    setup_seconds, fit_seconds, first_calls = [], [], []
    prepared = None
    serial_seconds = 0.0

    def set_up():
        nonlocal prepared
        if prepared is not None:
            workload.teardown(prepared)
            prepared = None
        start = time.perf_counter()
        prepared = workload.setup(seed)
        setup_seconds.append(time.perf_counter() - start)
        fit_seconds.append(prepared.fit_seconds)
        first_calls.append(getattr(prepared, "first_call_seconds", 0.0))

    recorder = SpanRecorder() if traced else None
    first: dict = {}
    untraced, pairs = [], []
    spent = traced_spent = 0.0
    requests = 0
    try:
        set_up()
        setups = min(MAX_SETUPS, max(
            SETUP_REPEATS, math.ceil(SETUP_SECONDS / setup_seconds[0])))
        if hasattr(workload, "serial_reference"):
            first[0] = workload.serial_reference(prepared)
            serial_seconds = first[0].wall
        while not untraced or spent < seconds or 0 < requests < MIN_REQUESTS:
            key = len(untraced) % workload.inputs_per_seed
            episode, took = run_episode(
                workload, prepared, key, None, first, counter)
            untraced.append(episode)
            spent += took
            requests += len(episode.http)
            if traced and traced_spent < seconds / 2:
                twin, took = run_episode(
                    workload, prepared, key, recorder, first, counter)
                pairs.append((episode, twin))
                traced_spent += took
            while (len(setup_seconds) < setups
                   and spent >= seconds * len(setup_seconds) / setups):
                set_up()
    finally:
        if prepared is not None:
            workload.teardown(prepared)
    return {
        "setup_seconds": setup_seconds,
        "fit_seconds": fit_seconds,
        "first_call_seconds": first_calls,
        "serial_seconds": serial_seconds,
        "first": first[0],
        "untraced": untraced,
        "pairs": pairs,
        "recorder": recorder,
    }


# -- end-to-end -------------------------------------------------------------
def end_to_end(workload, run) -> tuple[dict, list[str]]:
    episodes = run["untraced"]
    values = {
        "setup_s": statistics.median(run["setup_seconds"]),
        "ops_per_s": throughput(episodes),
    }
    ops = sum(e.ops for e in episodes)
    unit, op = ("ticks", "tick") if workload.has_ticks else (
        "windows", "backtest(n_jobs=2) call")
    latency = timing_summary(t for e in episodes for t in e.op_seconds)
    lines = [
        f"  {'setup_s':<18}{values['setup_s']:.4f} s  "
        f"(median of {len(run['setup_seconds'])} set-ups)",
        f"  {'ops_per_s':<18}{values['ops_per_s']:.2f} 1/s  ({unit}_per_s "
        f"over {len(episodes)} episodes; n={ops} {unit})",
        f"  {'latency':<18}one {op}: {latency.describe()}",
    ]
    http = [s for e in episodes for s in e.http]
    if http:
        lines.append(f"  {'http latency':<18}"
                     f"{timing_summary(s.latency for s in http).describe()}"
                     " from due time")
        lines.append(f"  {'error_rate':<18}0 of {ops + len(http)} operations")
    for name, value in run["first"].quality().items():
        lines.append(f"  {name:<18}{value:.5f}  (exact for the seed)")
    return values, lines


# -- per layer ----------------------------------------------------------------
def per_layer(workload, run) -> dict:
    untraced = run["untraced"]
    traced = [twin for _, twin in run["pairs"]]
    spans = run["recorder"].by_name()
    roots = [s for s in run["recorder"].spans if s.parent_id is None]
    wall = sum(e.wall for e in traced)

    def p50(name, scale=1e3, self_time=False):
        group = [s.self_seconds if self_time else s.seconds
                 for s in spans.get(name, [])]
        return percentile(group, 50) * scale if group else 0.0

    def share(name, self_time=False):
        group = spans.get(name, [])
        seconds = sum(s.self_seconds if self_time else s.seconds for s in group)
        return 100.0 * seconds / wall

    def per_episode(name):
        return len(spans.get(name, [])) / len(traced)

    def count(key):
        return float(run["first"].counts.get(key, 0))

    ticks = timing_summary(
        t for e in untraced for t in e.op_seconds if workload.has_ticks
    )
    http = [s for e in untraced for s in e.http]
    latency = timing_summary(s.latency for s in http)
    late = timing_summary(s.late for s in http)

    def endpoint_ms(endpoint):
        group = [s.latency for s in http if s.endpoint == endpoint]
        return percentile(group, 50) * 1e3 if group else 0.0

    serial = run["serial_seconds"]
    backtest_s = p50("evaluation.backtest", scale=1.0)
    untraced_rate, traced_rate = throughput(untraced), throughput(traced)
    quality = run["first"].quality()
    return {
        "quality.violation_rate": quality["violation_rate"],
        "quality.node_hours_ratio": quality["node_hours_ratio"],
        "quality.mean_wql": quality["mean_wql"],
        "ticks": run["first"].ops if workload.has_ticks else 0.0,
        "tick_p50_ms": ticks.p50 * 1e3,
        "tick_tail_ms": (ticks.tail or 0.0) * 1e3,
        "http_requests": float(len(http)),
        "http_p50_ms": latency.p50 * 1e3,
        "http_tail_ms": (latency.tail or 0.0) * 1e3,
        "service.http_health_ms": endpoint_ms("health"),
        "service.http_series_ms": endpoint_ms("series"),
        "service.http_decisions_ms": endpoint_ms("decisions"),
        "service.http_metrics_ms": endpoint_ms("metrics"),
        "bench.poller_late_ms": late.p50 * 1e3,
        "bench.poller_late_tail_ms": (late.tail or 0.0) * 1e3,
        "core.runtime_self_ms": p50("core.step", self_time=True),
        "core.plan_ms": p50("core.plan"),
        "core.plans": per_episode("core.plan"),
        "core.solve_ms": p50("core.solve"),
        "core.bound_workload_ms": p50("core.bound_workload"),
        "core.degraded_ticks": count("degraded_ticks"),
        "core.planner_errors": count("planner_errors"),
        "forecast.predict_ms": p50("forecast.predict"),
        "forecast.predict_calls": per_episode("forecast.predict"),
        "forecast.fit_s": statistics.median(run["fit_seconds"]),
        "obs.monitor_observe_ms": p50("obs.monitor_observe"),
        "service.checkpoint_ms": p50("service.checkpoint"),
        "service.checkpoints": per_episode("service.checkpoint"),
        "service.checkpoint_bytes": count("checkpoint_bytes"),
        "service.handler_ms": p50("service.handler"),
        "adaptation.on_tick_ms": p50("adaptation.on_tick"),
        "adaptation.refit_ms": p50("adaptation.refit"),
        "adaptation.refits": count("refits"),
        "adaptation.promotions": count("promotions"),
        "adaptation.rollbacks": count("rollbacks"),
        "evaluation.backtest_s": backtest_s,
        "evaluation.backtest_serial_s": serial,
        "parallel.speedup": serial / backtest_s if backtest_s else 0.0,
        "parallel.pool_spawn_s": (
            statistics.median(run["first_call_seconds"]) - backtest_s
            if backtest_s else 0.0
        ),
        "share.forecast_pct": share("forecast.predict"),
        "share.solve_pct": share("core.solve"),
        "share.plan_self_pct": share("core.plan", self_time=True),
        "share.runtime_self_pct": share("core.step", self_time=True),
        "share.monitor_pct": share("obs.monitor_observe"),
        "share.checkpoint_pct": share("service.checkpoint"),
        "share.refit_pct": share("adaptation.refit"),
        "share.adaptation_self_pct": share("adaptation.on_tick", self_time=True),
        "share.handler_pct": share("service.handler"),
        "share.backtest_pct": share("evaluation.backtest"),
        "share.unwrapped_pct": 100.0 * (wall - sum(s.seconds for s in roots)) / wall,
        "bench.ops_per_s_untraced": untraced_rate,
        "bench.ops_per_s_traced": traced_rate,
        "bench.tracing_overhead_pct": tracing_overhead(run["pairs"]),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro  # the program under test
    except ImportError as error:
        print(f"cannot import the program from {source}: {error}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(source.resolve()):
        print(f"repro was imported from {repro.__file__}, not from {source}",
              file=sys.stderr)
        return 2
    from workloads import build_workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workloads = build_workloads(workdir)
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    counter = {"attempted": 0}
    mode = "traced" if args.trace else "untraced"
    print(f"workload {workload.name}  seed {args.seed}  "
          f"seconds {args.seconds:g}  {mode}")
    try:
        run = measure(workload, args.seed, args.seconds, bool(args.trace), counter)
        if args.trace:
            values = per_layer(workload, run)
            names = [entry[0] for entry in PER_LAYER]
            lines = layer_table(values)
        else:
            values, lines = end_to_end(workload, run)
            names = [name for name, _ in END_TO_END]
    except Exception as error:  # any failure fails the run, with its cause
        if not isinstance(error, CheckFailed):
            traceback.print_exc()
        print(f"CHECK FAILED: {error}", file=sys.stderr)
        # The episode in flight counts as the failed operation.
        print(json.dumps({
            "correct": False,
            "attempted": counter["attempted"] + 1,
            "failed": 1,
            "metrics": {},
        }))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no concurrent run uses it
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps({
        "correct": True,
        "attempted": counter["attempted"],
        "failed": 0,
        "metrics": as_json_metrics(values, names),
    }))
    return 0


def stop_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    ``backtest(n_jobs=2)`` spawns pool workers, and spawning starts
    multiprocessing's resource tracker, which otherwise outlives the
    run by the moment it takes to notice the run has gone.  The pool is
    shut down and its shared-memory segments unlinked first, so the
    tracker has nothing left to clean up when it is stopped.
    """
    parallel = sys.modules.get("repro.parallel")
    if parallel is not None:
        parallel.shutdown_shared_pool()
        parallel.get_array_store().unlink_all()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    except SystemExit as exit_:  # argparse, on wrong arguments
        code = exit_.code if isinstance(exit_.code, int) else 2
    except BaseException:
        traceback.print_exc()
        code = 1
    stop_processes()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip the interpreter's exit handlers: one of them would unlink
    # shared memory through the resource tracker and so start it again.
    os._exit(code)
