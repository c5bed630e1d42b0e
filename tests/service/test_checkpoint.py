"""Checkpoint/restore: kill the loop, resume it, demand bit-identity."""

import collections
import json

import numpy as np
import pytest

import repro.obs.monitor
from repro.adaptation import AdaptationManager, PromotionPolicy
from repro.core import AutoscalingRuntime, Decision, ScalingPlan
from repro.core.plan import required_nodes
from repro.faults import FaultSchedule, FlakyPlanner, corrupt_series
from repro.nn import load_state, save_state
from repro.obs import AlertEngine, ModelHealthMonitor, default_rules, parse_rule
from repro.service import (
    CheckpointWriter,
    GeneratorSource,
    ServiceRuntime,
    load_checkpoint,
    restore_from_checkpoint,
    save_checkpoint,
)
from repro.service import checkpoint as checkpoint_module

from tests.adaptation.doubles import FakeForecaster, FakePlanner, drive

SERIES = np.abs(np.random.default_rng(11).normal(400, 120, size=60))
START_TICK = 200


class NoisyForecaster:
    """Stand-in stochastic forecaster: only the sampler rng matters."""

    def __init__(self, seed=0):
        self._sample_rng = np.random.default_rng(seed)


class StochasticPlanner:
    """Planner whose decisions consume sampler randomness (test double).

    Each plan draws from the forecaster's sampler rng, so two runs only
    produce identical decision streams if the rng state round-trips
    bit-exactly through the checkpoint.
    """

    name = "stochastic"

    def __init__(self, horizon, threshold, seed=0):
        self.forecaster = NoisyForecaster(seed)
        self.horizon = horizon
        self.threshold = threshold

    def plan(self, context, start_index=0):
        base = float(np.mean(context))
        noise = self.forecaster._sample_rng.normal(0, 0.1 * base, self.horizon)
        levels = np.array([0.1, 0.5, 0.9])
        values = np.vstack([
            np.maximum(base * f + noise, 0.0) for f in (0.8, 1.0, 1.2)
        ])
        return ScalingPlan(
            nodes=required_nodes(values[-1], self.threshold),
            threshold=self.threshold,
            strategy=self.name,
            metadata={"forecast_levels": levels, "forecast_values": values},
        )


def make_loop(*, faults=None, monitor=True, seed=0, context=8, horizon=6):
    planner = StochasticPlanner(horizon, 60.0, seed=seed)
    if faults is not None:
        planner = FlakyPlanner(planner, faults, time_offset=START_TICK)
    runtime = AutoscalingRuntime(
        planner=planner,
        context_length=context,
        horizon=horizon,
        threshold=60.0,
        start_tick=START_TICK,
        invalid_policy="impute",
        monitor=(
            ModelHealthMonitor(
                window=10, alerts=AlertEngine(default_rules(nominal_level=0.9))
            )
            if monitor
            else None
        ),
    )
    return runtime, planner


class TestSaveLoad:
    def test_round_trips_the_state_file(self, tmp_path):
        runtime, planner = make_loop()
        runtime.run(SERIES[:20])
        path = save_checkpoint(
            tmp_path / "ckpt", runtime=runtime,
            config={"model": "naive"}, source_position=20,
        )
        state = load_checkpoint(path)
        assert state["config"] == {"model": "naive"}
        assert state["source_position"] == 20
        assert state["runtime"]["tick"] == START_TICK + 20
        assert state["monitor"] is not None
        assert state["sampler"] is not None
        # The checkpoint is plain JSON on disk, not pickles.
        raw = json.loads((path / "state.json").read_text())
        assert raw["version"] == 2

    def test_missing_checkpoint_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope")

    def test_corrupt_state_file_raises_value_error(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "state.json").write_text("{truncated")
        with pytest.raises(ValueError, match="corrupt"):
            load_checkpoint(ckpt)

    def test_version_mismatch_raises(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "state.json").write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(ckpt)

    def test_version_1_checkpoints_are_rejected(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "state.json").write_text('{"version": 1}')
        with pytest.raises(ValueError, match="version 1"):
            load_checkpoint(ckpt)


class TestKillRestoreBitIdentity:
    KILL_AT = 25

    def _uninterrupted(self, faults, observed):
        runtime, _ = make_loop(faults=faults)
        allocations = runtime.run(observed)
        return runtime, allocations

    def test_restored_run_matches_uninterrupted(self, tmp_path):
        faults = FaultSchedule.parse("nan@5,planner_error@14,spike@30:4,nan@40")
        observed, _ = corrupt_series(SERIES, faults)

        full, full_alloc = self._uninterrupted(faults, observed)

        # "Crash" after KILL_AT ticks: checkpoint, throw everything away.
        victim, victim_planner = make_loop(faults=faults)
        victim.run(observed[: self.KILL_AT])
        save_checkpoint(
            tmp_path / "ckpt", runtime=victim, planner=victim_planner,
            source_position=self.KILL_AT,
        )
        del victim, victim_planner

        # Fresh objects, as a new process would build them.
        restored, planner = make_loop(faults=faults)
        position = restore_from_checkpoint(
            tmp_path / "ckpt", runtime=restored, planner=planner
        )
        assert position == self.KILL_AT
        tail_alloc = restored.run(observed[position:])

        np.testing.assert_array_equal(tail_alloc, full_alloc[position:])
        assert [d.to_state() for d in restored.decisions] == [
            d.to_state() for d in full.decisions
        ]
        assert restored.monitor.state_dict() == full.monitor.state_dict()
        # Counters survived the crash too.
        assert restored.invalid_observations == full.invalid_observations
        assert restored.planner_errors == full.planner_errors

    def test_restore_without_sampler_state_still_diverges(self, tmp_path):
        """Control experiment: the sampler state is load-bearing."""
        full, full_alloc = self._uninterrupted(None, SERIES)

        victim, _ = make_loop()
        victim.run(SERIES[: self.KILL_AT])
        save_checkpoint(tmp_path / "ckpt", runtime=victim,
                        source_position=self.KILL_AT)

        restored, planner = make_loop()
        state = load_checkpoint(tmp_path / "ckpt")
        state["sampler"] = None  # simulate a lossy checkpoint
        restore_from_checkpoint(state, runtime=restored, planner=planner)
        tail_alloc = restored.run(SERIES[self.KILL_AT :])
        assert not np.array_equal(tail_alloc, full_alloc[self.KILL_AT :])


class TestRestoreMismatches:
    def test_monitor_state_needs_a_monitor(self, tmp_path):
        runtime, _ = make_loop(monitor=True)
        runtime.run(SERIES[:10])
        save_checkpoint(tmp_path / "ckpt", runtime=runtime)
        bare, planner = make_loop(monitor=False)
        with pytest.raises(ValueError, match="monitor"):
            restore_from_checkpoint(tmp_path / "ckpt", runtime=bare,
                                    planner=planner)

    def test_sampler_state_needs_a_sampler(self, tmp_path):
        runtime, planner = make_loop(monitor=False)
        runtime.run(SERIES[:10])
        save_checkpoint(tmp_path / "ckpt", runtime=runtime, planner=planner)

        class DeterministicPlanner(StochasticPlanner):
            def __init__(self, horizon, threshold):
                super().__init__(horizon, threshold)
                self.forecaster = object()  # no _sample_rng

        bare = AutoscalingRuntime(
            planner=DeterministicPlanner(6, 60.0), context_length=8,
            horizon=6, threshold=60.0, start_tick=START_TICK,
        )
        with pytest.raises(ValueError, match="sampler"):
            restore_from_checkpoint(tmp_path / "ckpt", runtime=bare)


class TestModelWeights:
    def test_neural_weights_round_trip_through_the_checkpoint(self, tmp_path):
        from repro.core import FixedQuantilePolicy, RobustPredictiveAutoscaler
        from repro.forecast import MLPForecaster, TrainingConfig

        rng = np.random.default_rng(3)
        train = np.abs(rng.normal(300, 60, size=120))
        config = TrainingConfig(epochs=2, window_stride=4, seed=0)
        forecaster = MLPForecaster(12, 4, config=config)
        forecaster.fit(train)
        planner = RobustPredictiveAutoscaler(
            forecaster, 60.0, FixedQuantilePolicy(0.9)
        )
        runtime = AutoscalingRuntime(
            planner=planner, context_length=12, horizon=4, threshold=60.0,
        )
        runtime.run(train[:30])
        path = save_checkpoint(tmp_path / "ckpt", runtime=runtime,
                               source_position=30)
        assert (path / "model.npz").exists()
        expected = forecaster.predict(train[-12:]).values

        fresh = MLPForecaster(12, 4, config=config)
        fresh_planner = RobustPredictiveAutoscaler(
            fresh, 60.0, FixedQuantilePolicy(0.9)
        )
        fresh_runtime = AutoscalingRuntime(
            planner=fresh_planner, context_length=12, horizon=4,
            threshold=60.0,
        )
        restore_from_checkpoint(path, runtime=fresh_runtime,
                                planner=fresh_planner)
        np.testing.assert_array_equal(
            fresh.predict(train[-12:]).values, expected
        )


class SavingForecaster(FakeForecaster):
    """Fake forecaster whose fitted level persists through save()/load()."""

    def save(self, path):
        save_state({"center": np.array([self.center])}, path)

    def load(self, path):
        self.center = float(load_state(path)["center"][0])
        return self


#: Three level shifts; each fires the wql alert, and the manager refits,
#: shadows, promotes and commits a candidate (new weights each time).
SHIFTS = np.concatenate(
    [np.full(30, 100.0), np.full(50, 300.0), np.full(50, 600.0),
     np.full(50, 250.0)]
) + np.random.default_rng(0).normal(0, 5, 180)
SAVE_EVERY = 12


def make_adaptive_loop():
    """All five journaled logs grow: decisions, provenance, monitor
    windows and drift events, adaptation events."""
    runtime = AutoscalingRuntime(
        planner=FakePlanner(SavingForecaster().fit(np.full(20, 100.0))),
        context_length=8, horizon=4, threshold=200.0, replan_every=4,
        monitor=ModelHealthMonitor(
            window=10, alerts=AlertEngine([parse_rule("mean_wql > 0.2")])
        ),
        record_provenance=True,
    )
    manager = AdaptationManager(
        runtime,
        policy=PromotionPolicy(
            wql_ratio=0.95, calibration_slack=1.0, soak_windows=1,
            guard_windows=1,
        ),
        cooldown=5,
        shadow_window=40,
    )
    return runtime, manager


def live_state(runtime, manager):
    """The oracle: the live objects' full ``state_dict()``s as JSON."""
    return json.dumps({
        "runtime": runtime.state_dict(),
        "monitor": runtime.monitor.state_dict(),
        "adaptation": manager.state_dict(),
    })


def saved_state(path):
    state = load_checkpoint(path)
    return json.dumps(
        {key: state[key] for key in ("runtime", "monitor", "adaptation")}
    )


def journal_info(path):
    return json.loads((path / "state.json").read_text())["journal"]


class TestJournal:
    def test_every_checkpoint_loads_as_the_full_state_dicts(self, tmp_path):
        path = tmp_path / "ckpt"
        runtime, manager = make_adaptive_loop()
        writer = CheckpointWriter(path)
        sizes = []
        for start in range(0, len(SHIFTS), SAVE_EVERY):
            drive(runtime, manager, SHIFTS[start : start + SAVE_EVERY])
            writer.save(runtime=runtime, adaptation=manager,
                        source_position=start + SAVE_EVERY)
            assert saved_state(path) == live_state(runtime, manager)
            state = load_checkpoint(path)
            assert "journal" not in state
            assert state["model_sha256"] == checkpoint_module._sha256(
                path / state["model_file"]
            )
            sizes.append(journal_info(path)["bytes"])
        assert manager.refits >= 2 and manager.promotions >= 2
        assert all(len(log) for log in (
            runtime.decisions, runtime.provenance, runtime.monitor.windows,
            runtime.monitor.drift_events, manager.events,
        ))
        # One generation, appended to by every save.
        assert [p.name for p in path.glob("journal-*.jsonl")] == [
            "journal-1.jsonl"
        ]
        assert sizes == sorted(sizes)
        raw = json.loads((path / "state.json").read_text())
        assert raw["runtime"]["decisions"] == []
        assert raw["monitor"]["windows"] == []
        assert raw["adaptation"]["events"] == []

    def test_each_journaled_record_is_encoded_once(self, tmp_path,
                                                   monkeypatch):
        encoded = collections.Counter()
        keep_alive = []  # ids of collected objects must not be reused

        def counting(encode):
            def wrapper(record):
                keep_alive.append(record)
                encoded[id(record)] += 1
                return encode(record)
            return wrapper

        monkeypatch.setattr(Decision, "to_state", counting(Decision.to_state))
        monkeypatch.setattr(
            repro.obs.monitor, "asdict", counting(repro.obs.monitor.asdict)
        )
        runtime, manager = make_adaptive_loop()
        writer = CheckpointWriter(tmp_path / "ckpt")
        saves = 0
        for start in range(0, len(SHIFTS), SAVE_EVERY):
            drive(runtime, manager, SHIFTS[start : start + SAVE_EVERY])
            writer.save(runtime=runtime, adaptation=manager)
            saves += 1
        records = [*runtime.decisions, *runtime.monitor.windows,
                   *runtime.monitor.drift_events]
        assert saves == 15 and len(records) > 50
        assert [encoded[id(r)] for r in records] == [1] * len(records)

    def test_a_restore_starts_a_new_generation(self, tmp_path):
        path = tmp_path / "ckpt"
        runtime, manager = make_adaptive_loop()
        writer = CheckpointWriter(path)
        drive(runtime, manager, SHIFTS[:60])
        writer.save(runtime=runtime, adaptation=manager)
        # The restore replaces every log list: appending would be wrong.
        restore_from_checkpoint(path, runtime=runtime, adaptation=manager)
        drive(runtime, manager, SHIFTS[60:90])
        writer.save(runtime=runtime, adaptation=manager)
        assert journal_info(path)["file"] == "journal-2.jsonl"
        assert [p.name for p in path.glob("journal-*.jsonl")] == [
            "journal-2.jsonl"
        ]
        assert saved_state(path) == live_state(runtime, manager)

    def test_another_writer_in_the_directory_forces_a_new_generation(
        self, tmp_path
    ):
        path = tmp_path / "ckpt"
        runtime, manager = make_adaptive_loop()
        writer = CheckpointWriter(path)
        drive(runtime, manager, SHIFTS[:40])
        writer.save(runtime=runtime, adaptation=manager)
        save_checkpoint(path, runtime=runtime, adaptation=manager)
        drive(runtime, manager, SHIFTS[40:60])
        writer.save(runtime=runtime, adaptation=manager)
        assert journal_info(path)["file"] == "journal-3.jsonl"
        assert saved_state(path) == live_state(runtime, manager)

    def test_damaged_journal_is_corrupt(self, tmp_path):
        path = tmp_path / "ckpt"
        runtime, manager = make_adaptive_loop()
        drive(runtime, manager, SHIFTS[:40])
        save_checkpoint(path, runtime=runtime, adaptation=manager)
        raw = json.loads((path / "state.json").read_text())
        raw["journal"]["counts"]["runtime.decisions"] += 1
        (path / "state.json").write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="corrupt.*records"):
            load_checkpoint(path)
        journal = path / journal_info(path)["file"]
        journal.write_bytes(journal.read_bytes()[:-10])
        with pytest.raises(ValueError, match="corrupt.*committed bytes"):
            load_checkpoint(path)
        journal.unlink()
        with pytest.raises(ValueError, match="corrupt"):
            load_checkpoint(path)

    def test_damaged_weights_fail_the_restore(self, tmp_path):
        path = tmp_path / "ckpt"
        runtime, manager = make_adaptive_loop()
        drive(runtime, manager, SHIFTS[:40])
        save_checkpoint(path, runtime=runtime, adaptation=manager)
        model = path / load_checkpoint(path)["model_file"]
        data = bytearray(model.read_bytes())
        data[-30] ^= 0xFF
        model.write_bytes(bytes(data))
        fresh, fresh_manager = make_adaptive_loop()
        with pytest.raises(ValueError, match="sha256"):
            restore_from_checkpoint(path, runtime=fresh,
                                    adaptation=fresh_manager)


class Killed(Exception):
    """The injected crash."""


def _fail_after(name):
    original = getattr(checkpoint_module, name)

    def wrapper(*args):
        original(*args)
        raise Killed
    return wrapper


def _torn_publish(file, text):
    file.with_name(file.name + ".tmp").write_text(text[: len(text) // 2])
    raise Killed


class TestKillDuringSave:
    SAVED = 48  # committed checkpoint: before the second promotion
    KILLED = 108  # the killed save: after it, so the weights differ

    @pytest.mark.parametrize(
        "name, injected",
        [
            ("_write_journal", lambda: _fail_after("_write_journal")),
            ("_write_model", lambda: _fail_after("_write_model")),
            ("_publish", lambda: _torn_publish),
        ],
        ids=["after-journal-append", "after-model-write", "before-publish"],
    )
    def test_previous_checkpoint_survives(self, tmp_path, monkeypatch,
                                          name, injected):
        path = tmp_path / "ckpt"
        reference, reference_manager = make_adaptive_loop()
        full = drive(reference, reference_manager, SHIFTS)

        runtime, manager = make_adaptive_loop()
        writer = CheckpointWriter(path)
        drive(runtime, manager, SHIFTS[: self.SAVED])
        writer.save(runtime=runtime, adaptation=manager,
                    source_position=self.SAVED)
        committed = json.dumps(load_checkpoint(path))
        committed_journal = journal_info(path)
        saved_center = runtime.planner.forecaster.center
        drive(runtime, manager, SHIFTS[self.SAVED : self.KILLED])
        assert runtime.planner.forecaster.center != saved_center

        with monkeypatch.context() as patch:
            patch.setattr(checkpoint_module, name, injected())
            with pytest.raises(Killed):
                writer.save(runtime=runtime, adaptation=manager,
                            source_position=self.KILLED)
        journal = path / committed_journal["file"]
        if name == "_write_journal":
            assert journal.stat().st_size > committed_journal["bytes"]
        with open(journal, "ab") as torn:  # a line cut short by the kill
            torn.write(b'["runtime.decisions", {"time_index": 1')
        assert json.dumps(load_checkpoint(path)) == committed

        # Restore-then-continue is bit-identical to the uninterrupted run.
        restored, restored_manager = make_adaptive_loop()
        position = restore_from_checkpoint(
            path, runtime=restored, adaptation=restored_manager
        )
        assert position == self.SAVED
        tail = drive(restored, restored_manager, SHIFTS[position:])
        assert [r.target_nodes for r in tail] == [
            r.target_nodes for r in full[position:]
        ]
        assert live_state(restored, restored_manager) == live_state(
            reference, reference_manager
        )

        # The next save succeeds and overwrites the uncommitted tail.
        writer.save(runtime=runtime, adaptation=manager,
                    source_position=self.KILLED)
        assert saved_state(path) == live_state(runtime, manager)
        info = journal_info(path)
        assert info["file"] == committed_journal["file"]
        assert (path / info["file"]).stat().st_size == info["bytes"]
        assert sorted(p.name for p in path.iterdir()
                      if not p.name.endswith(".tmp")) == sorted(
            ["state.json", info["file"], load_checkpoint(path)["model_file"]]
        )


class TestSecondDirectory:
    def test_alternating_directories_each_restore(self, tmp_path):
        configured, other = tmp_path / "configured", tmp_path / "other"
        reference, reference_manager = make_adaptive_loop()
        full = drive(reference, reference_manager, SHIFTS)

        runtime, manager = make_adaptive_loop()
        service = ServiceRuntime(
            runtime, GeneratorSource(SHIFTS), checkpoint_dir=configured,
            adaptation=manager,
        )
        expected = {}
        for index, start in enumerate(range(0, 120, SAVE_EVERY)):
            drive(runtime, manager, SHIFTS[start : start + SAVE_EVERY])
            if index % 2 == 0:
                service.write_checkpoint()
                expected[configured] = live_state(runtime, manager)
            else:
                # What POST /checkpoint {"path": ...} runs.
                service._handle_checkpoint({}, {"path": str(other)})
                expected[other] = live_state(runtime, manager)

        for directory in (configured, other):
            # Each directory kept its own append point: one generation.
            assert [p.name for p in directory.glob("journal-*.jsonl")] == [
                "journal-1.jsonl"
            ]
            assert saved_state(directory) == expected[directory]
            restored, restored_manager = make_adaptive_loop()
            restore_from_checkpoint(
                directory, runtime=restored, adaptation=restored_manager
            )
            position = restored.tick
            tail = drive(restored, restored_manager, SHIFTS[position:])
            assert [r.target_nodes for r in tail] == [
                r.target_nodes for r in full[position:]
            ]
