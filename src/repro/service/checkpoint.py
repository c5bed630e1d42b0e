"""Lossless checkpoint/restore for the service runtime.

A checkpoint is a directory:

* ``state.json`` — the loop state: runtime
  (:meth:`~repro.core.runtime.AutoscalingRuntime.state_dict`), health
  monitor + drift detectors + alert engine
  (:meth:`~repro.obs.monitor.ModelHealthMonitor.state_dict`), the
  source position, the forecaster's sampler rng state, the config
  the daemon was launched with (so ``repro-autoscale serve --restore``
  can rebuild the planner identically), the model file's sha256, and
  ``journal: {file, bytes, counts}``;
* ``journal-<generation>.jsonl`` — one ``[tag, record]`` line per
  record of the five append-only, unbounded logs (runtime decisions
  and provenance, monitor windows and drift events, adaptation
  events), which ``state.json`` holds empty.  Only its first ``bytes``
  are committed; :func:`load_checkpoint` splices them back in;
* ``model.npz`` — the forecaster's weights, written through the
  forecaster's own ``save()`` (which persists via
  :mod:`repro.nn.serialization`), when the model supports it.
  Deterministically-fitted models without a ``save()`` (seasonal
  naive, ARIMA) are rebuilt from config by refitting instead.

A :class:`CheckpointWriter` appends only the records added since its
last save, so a save costs the ticks since the previous one, not every
tick served.  The previous checkpoint stays intact for every file
while a save is under way: journal bytes past the committed length are
ignored (and overwritten by the next save), weights that differ from
the committed ``model.npz`` go to a file of their own, ``state.json``
is published atomically (temp file + rename) as the last step, and
files it no longer references are deleted only after that.  The JSONL
event log written by ``--telemetry`` / ``--decisions-out`` (crash-safe
:class:`~repro.obs.sinks.JsonlSink`) covers the tail between the last
checkpoint and the crash.

The restore guarantee: given the same remaining tick stream (a
replayable source resumed at the recorded position), a restored loop
produces bit-identical subsequent decisions, monitor windows, drift
events, and alerts as the uninterrupted run — including stochastic
forecasters, whose ancestral-sampling rng state round-trips exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointWriter",
    "save_checkpoint",
    "load_checkpoint",
    "restore_from_checkpoint",
]

CHECKPOINT_VERSION = 2

_STATE_FILE = "state.json"
_MODEL_FILE = "model.npz"
_MODEL_STAGING = "model.staged.npz"
_MODEL_GLOB = "model*.npz"
_JOURNAL_GLOB = "journal-*.jsonl"


def _find_forecaster(planner: Any):
    """The forecaster behind a planner, unwrapping fault wrappers."""
    seen = set()
    node = planner
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        forecaster = getattr(node, "forecaster", None)
        if forecaster is not None:
            return forecaster
        node = getattr(node, "inner", None)
    return None


def _planner_state(planner: Any) -> dict | None:
    """Mutable planner-wrapper state (e.g. FlakyPlanner's fault queue).

    ``state_dict`` must be defined on the planner's own class —
    delegating wrappers forward attribute lookups to their inner
    planner, and saving an inner planner's state under the wrapper's
    key would corrupt the restore.
    """
    if "state_dict" in type(planner).__dict__:
        return planner.state_dict()
    return None


def _restore_planner(planner: Any, state: dict | None) -> None:
    if state is None:
        return
    if "load_state_dict" not in type(planner).__dict__:
        raise ValueError(
            "checkpoint carries planner state but the restored planner "
            "cannot load it — planner/config mismatch"
        )
    planner.load_state_dict(state)


def _sampler_state(planner: Any) -> dict | None:
    """Bit-exact rng state of a stochastic forecaster's sampler."""
    forecaster = _find_forecaster(planner)
    rng = getattr(forecaster, "_sample_rng", None)
    if rng is None:
        return None
    return rng.bit_generator.state


def _restore_sampler(planner: Any, state: dict | None) -> None:
    if state is None:
        return
    forecaster = _find_forecaster(planner)
    rng = getattr(forecaster, "_sample_rng", None)
    if rng is None:
        raise ValueError(
            "checkpoint carries sampler rng state but the restored planner "
            "has no stochastic sampler — model/config mismatch"
        )
    rng.bit_generator.state = state


class CheckpointWriter:
    """Saves checkpoints into one directory, appending to its journal.

    Each save appends only the journal records added since this
    writer's last save.  It starts a new journal generation — the full
    logs in a fresh ``journal-<generation>.jsonl`` — whenever it cannot
    safely append: on its first save, when a log list was replaced or
    shortened (a restore replaces them all), or when the journal it
    appends to is gone (another writer saved into the directory).
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._journal: str | None = None  # the generation appended to
        self._bytes = 0  # its committed length
        self._marks: dict[str, tuple[list, int]] = {}  # tag -> (log, count)

    def save(
        self,
        *,
        runtime,
        planner=None,
        config: dict | None = None,
        source_position: int = 0,
        adaptation=None,
    ) -> Path:
        """Write one checkpoint; arguments as :func:`save_checkpoint`."""
        path = self.path
        path.mkdir(parents=True, exist_ok=True)
        planner = planner if planner is not None else runtime.planner
        monitor = getattr(runtime, "monitor", None)
        parts = {"runtime": runtime, "monitor": monitor, "adaptation": adaptation}
        logs = {
            f"{name}.{key}": log
            for name, part in parts.items()
            if part is not None
            for key, log in part.journal_logs().items()
        }

        appending = self._can_append(logs)
        if appending:
            journal, offset = self._journal, self._bytes
        else:
            journal, offset = f"journal-{_last_generation(path) + 1}.jsonl", 0
        lines = []
        for tag, (records, encode) in logs.items():
            start = self._marks[tag][1] if appending else 0
            lines.extend(
                json.dumps([tag, encode(record)]) + "\n"
                for record in records[start:]
            )
        data = "".join(lines).encode("utf-8")
        _write_journal(path / journal, offset, data)

        model_file = model_sha256 = None
        forecaster = _find_forecaster(planner)
        if forecaster is not None and hasattr(forecaster, "save"):
            model_file, model_sha256 = _write_model(path, forecaster)

        counts = {tag: len(records) for tag, (records, _) in logs.items()}
        state = {
            "version": CHECKPOINT_VERSION,
            "config": dict(config) if config else {},
            "source_position": int(source_position),
            "runtime": runtime.state_dict(logs=False),
            "monitor": (
                monitor.state_dict(logs=False) if monitor is not None else None
            ),
            "sampler": _sampler_state(planner),
            # Fault wrappers (FlakyPlanner) consume scheduled events as they
            # fire; that progress must survive the crash or restored runs
            # would re-fire already-consumed faults.
            "planner": _planner_state(planner),
            "model_file": model_file,
            "model_sha256": model_sha256,
            "adaptation": (
                adaptation.state_dict(logs=False)
                if adaptation is not None
                else None
            ),
            "journal": {
                "file": journal,
                "bytes": offset + len(data),
                "counts": counts,
            },
        }
        _publish(path / _STATE_FILE, json.dumps(state))

        self._journal, self._bytes = journal, offset + len(data)
        self._marks = {
            tag: (records, counts[tag]) for tag, (records, _) in logs.items()
        }
        # Only now is nothing on disk referenced by an older state.json.
        for stale in [*path.glob(_JOURNAL_GLOB), *path.glob(_MODEL_GLOB)]:
            if stale.name not in (journal, model_file):
                stale.unlink()
        return path

    def _can_append(self, logs: dict) -> bool:
        if self._journal is None or logs.keys() != self._marks.keys():
            return False
        for tag, (records, _) in logs.items():
            marked, count = self._marks[tag]
            if records is not marked or len(records) < count:
                return False
        try:
            return (self.path / self._journal).stat().st_size >= self._bytes
        except FileNotFoundError:
            return False


def _last_generation(path: Path) -> int:
    """The highest journal generation in ``path`` (0 when none)."""
    return max(
        (int(file.stem.split("-", 1)[1]) for file in path.glob(_JOURNAL_GLOB)),
        default=0,
    )


def _write_journal(file: Path, offset: int, data: bytes) -> None:
    """Write ``data`` at ``offset``, dropping any uncommitted tail."""
    with open(file, "r+b" if offset else "wb") as journal:
        journal.seek(offset)
        journal.write(data)
        journal.truncate()


def _write_model(path: Path, forecaster) -> tuple[str, str]:
    """Save the forecaster's weights; returns ``(file name, sha256)``.

    The weights go to ``model.npz`` unless that file holds different
    weights — which the published ``state.json`` may still reference —
    in which case they go to ``model-<sha256 prefix>.npz``.
    """
    staged = path / _MODEL_STAGING
    forecaster.save(staged)
    digest = _sha256(staged)
    name = _MODEL_FILE
    if (path / name).exists() and _sha256(path / name) != digest:
        name = f"model-{digest[:16]}.npz"
    os.replace(staged, path / name)
    return name, digest


def _publish(file: Path, text: str) -> None:
    """Atomically replace ``file``: a crash mid-write keeps the old one."""
    tmp = file.with_name(file.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, file)


def _sha256(file: Path) -> str:
    return hashlib.sha256(file.read_bytes()).hexdigest()


def save_checkpoint(
    path: str | Path,
    *,
    runtime,
    planner=None,
    config: dict | None = None,
    source_position: int = 0,
    adaptation=None,
) -> Path:
    """Write a complete checkpoint directory; returns its path.

    A one-shot :class:`CheckpointWriter` save: the checkpoint starts a
    new journal generation and is self-contained.

    Parameters
    ----------
    path:
        Checkpoint directory (created if needed).
    runtime:
        The :class:`~repro.core.runtime.AutoscalingRuntime` to snapshot
        (its attached monitor rides along).
    planner:
        The live planner; used to capture sampler rng state and, when
        the underlying forecaster supports ``save()``, model weights.
        Defaults to ``runtime.planner``.
    config:
        Launch configuration to embed — ``serve --restore`` rebuilds
        the planner/source from it before loading state.
    source_position:
        Ticks the telemetry source has emitted; a replayable source is
        resumed from here.
    adaptation:
        Optional :class:`~repro.adaptation.AdaptationManager`; its full
        state machine (candidate and rollback models included, embedded
        as base64 pickle blobs) is checkpointed under ``"adaptation"``
        so a restored daemon resumes mid-shadow bit-identically.
    """
    return CheckpointWriter(path).save(
        runtime=runtime,
        planner=planner,
        config=config,
        source_position=source_position,
        adaptation=adaptation,
    )


def load_checkpoint(path: str | Path) -> dict:
    """Read and validate a checkpoint, its journal spliced back in.

    Returns the state with every journaled log in place, as the live
    objects' full ``state_dict()`` would give it.
    """
    path = Path(path)
    state_path = path / _STATE_FILE if path.is_dir() else path
    try:
        state = json.loads(state_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(f"no checkpoint at {path} ({state_path} missing)")
    except json.JSONDecodeError as error:
        raise ValueError(f"corrupt checkpoint {state_path}: {error}") from error
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    try:
        _splice_journal(state, state_path.parent)
    except (OSError, KeyError, TypeError, ValueError) as error:
        raise ValueError(f"corrupt checkpoint {state_path}: {error!r}") from error
    return state


def _splice_journal(state: dict, directory: Path) -> None:
    """Put the first ``bytes`` of the journal back into ``state``."""
    journal = state.pop("journal")
    with open(directory / journal["file"], "rb") as file:
        data = file.read(journal["bytes"])
    if len(data) != journal["bytes"]:
        raise ValueError(
            f"journal holds {len(data)} of {journal['bytes']} committed bytes"
        )
    # Journal lines are JSON without raw newlines: one array parse.
    lines = data.decode("utf-8").split("\n")[:-1]
    logs: dict[str, list] = {tag: [] for tag in journal["counts"]}
    for tag, record in json.loads("[" + ",".join(lines) + "]"):
        logs[tag].append(record)
    for tag, records in logs.items():
        if len(records) != journal["counts"][tag]:
            raise ValueError(
                f"journal holds {len(records)} {tag} records, "
                f"state.json counts {journal['counts'][tag]}"
            )
        part, key = tag.split(".", 1)
        state[part][key] = records


def restore_from_checkpoint(
    checkpoint: "dict | str | Path",
    *,
    runtime,
    planner=None,
    adaptation=None,
) -> int:
    """Load checkpoint state into freshly-constructed objects.

    The caller rebuilds the runtime, monitor, and planner from the
    checkpoint's ``config`` (architecture and rules are configuration,
    not state), then this function restores the dynamic state: loop
    clock and plan, monitor windows and detectors, model weights,
    sampler rng, and — when the checkpoint carries it — the adaptation
    state machine (restored last, so a promoted model overrides the
    config-rebuilt forecaster).  Returns the source position to resume
    from.
    """
    state = (
        checkpoint if isinstance(checkpoint, dict) else load_checkpoint(checkpoint)
    )
    planner = planner if planner is not None else runtime.planner
    runtime.load_state_dict(state["runtime"])
    monitor = getattr(runtime, "monitor", None)
    if state["monitor"] is not None:
        if monitor is None:
            raise ValueError(
                "checkpoint carries monitor state but the restored runtime "
                "has no monitor attached — pass the same --monitor flags"
            )
        monitor.load_state_dict(state["monitor"])
    model_file = state.get("model_file")
    if model_file is not None and not isinstance(checkpoint, dict):
        forecaster = _find_forecaster(planner)
        if forecaster is not None and hasattr(forecaster, "load"):
            model_path = Path(checkpoint) / model_file
            try:
                digest = _sha256(model_path)
            except FileNotFoundError:
                raise ValueError(f"checkpoint model {model_path} is missing")
            if digest != state["model_sha256"]:
                raise ValueError(
                    f"checkpoint model {model_path} does not match the "
                    "sha256 recorded in state.json — the weights are damaged"
                )
            forecaster.load(model_path)
    _restore_sampler(planner, state.get("sampler"))
    _restore_planner(planner, state.get("planner"))
    if state.get("adaptation") is not None:
        if adaptation is None:
            raise ValueError(
                "checkpoint carries adaptation state but no "
                "AdaptationManager was passed — restore with --adapt"
            )
        adaptation.load_state_dict(state["adaptation"])
    return int(state["source_position"])
