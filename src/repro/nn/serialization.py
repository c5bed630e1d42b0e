"""Saving and loading model weights.

State dicts are persisted as ``.npz`` archives; parameter names become
archive keys.  Dots are legal in npz keys, so dotted module paths survive
a round trip unchanged.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .module import Module

__all__ = ["save_state", "load_state", "save_module", "load_module"]


def save_state(state: dict[str, np.ndarray], path: str | Path) -> None:
    """Write a state dict to ``path`` (.npz), atomically.

    The archive goes to a temp file in the same directory and is then
    renamed over ``path``, so a crash mid-write leaves any previous file
    at ``path`` whole.  ``path`` is used as given: no ``.npz`` suffix is
    added.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    # An open file, not a name: np.savez would append ".npz" to a name.
    with open(tmp, "wb") as file:
        np.savez(file, **state)
    os.replace(tmp, path)


def load_state(path: str | Path) -> dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state`."""
    with np.load(Path(path)) as archive:
        return {key: archive[key] for key in archive.files}


def save_module(module: Module, path: str | Path) -> None:
    """Persist a module's weights."""
    save_state(module.state_dict(), path)


def load_module(module: Module, path: str | Path) -> Module:
    """Restore weights in place and return the module."""
    module.load_state_dict(load_state(path))
    return module
