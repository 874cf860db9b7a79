"""Deterministic weight artifacts for the model zoo.

``numpy.savez`` embeds the current wall-clock in every zip member header, so
two otherwise identical saves differ byte-for-byte -- which would break the
zoo's contract that promoting the same run twice produces *byte-identical*
entries (the property the content-hash dedupe store relies on).  Weight
archives are therefore encoded by
:func:`repro.utils.serialization.arrays_to_bytes`, which builds the same
``.npz`` container with sorted, uncompressed, timestamp-free members.

The capture/restore helpers snapshot a model's *complete* numeric state:
parameters via ``state_dict`` plus every registered buffer (batch-norm
running statistics), keyed by qualified name under a ``param/`` or
``buffer/`` prefix so the two namespaces cannot collide.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.nn.module import Module
from repro.utils.fingerprint import array_fingerprint, combine_fingerprints

PARAM_PREFIX = "param/"
BUFFER_PREFIX = "buffer/"


# -- model state capture / restore ---------------------------------------------------
def capture_model_arrays(model: Module) -> Dict[str, np.ndarray]:
    """Snapshot every parameter and buffer of ``model`` by qualified name."""
    arrays: Dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        arrays[f"{PARAM_PREFIX}{name}"] = value
    for name, value in model.named_buffers():
        arrays[f"{BUFFER_PREFIX}{name}"] = np.asarray(value).copy()
    return arrays


def _submodule(model: Module, dotted: str) -> Module:
    module = model
    for part in dotted.split("."):
        if part not in module._modules:
            raise KeyError(f"model has no sub-module {dotted!r}")
        module = module._modules[part]
    return module


def restore_model_arrays(model: Module, arrays: Dict[str, np.ndarray]) -> None:
    """Load a :func:`capture_model_arrays` snapshot back into ``model``."""
    state = {
        name[len(PARAM_PREFIX) :]: value
        for name, value in arrays.items()
        if name.startswith(PARAM_PREFIX)
    }
    model.load_state_dict(state)
    for name, value in arrays.items():
        if not name.startswith(BUFFER_PREFIX):
            continue
        qualified = name[len(BUFFER_PREFIX) :]
        owner, _, leaf = qualified.rpartition(".")
        module = _submodule(model, owner) if owner else model
        if leaf not in module._buffers:
            raise KeyError(f"model has no buffer {qualified!r}")
        module.register_buffer(
            leaf, np.asarray(value, dtype=module._buffers[leaf].dtype).copy()
        )


def model_content_hash(arrays: Dict[str, np.ndarray]) -> str:
    """Content fingerprint of a weight snapshot (names, shapes, dtypes, bytes)."""
    parts = [
        combine_fingerprints(name, array_fingerprint(arrays[name]))
        for name in sorted(arrays)
    ]
    return combine_fingerprints("model-arrays", *parts)
