"""The one durable-write path, plus the JSON and array encodings it carries.

Every file the platform persists -- checkpoints, run status and reports,
zoo manifests and pointers, content-addressed store objects and refs -- is
written by :func:`atomic_write` (raw bytes) or :func:`save_json` (JSON
streamed through the same path).  A write lands in a ``mkstemp`` temp file
in the destination directory, is ``fsync``-ed and then published with one
``os.replace``: a reader, or a resume after a crash, sees either the old
file or the new one, never a torn mix, and two concurrent writers never
share a temp file.  A failed write removes its temp file and leaves the
destination untouched.

Named arrays travel as :func:`arrays_to_bytes`, a byte-deterministic
``.npz`` container (sorted uncompressed members, fixed timestamps):
the zoo stores weight archives under their content hash and the engine
checkpoint embeds controller and optimizer state in its JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import zipfile
from dataclasses import asdict, is_dataclass
from typing import IO, Any, Dict, Iterator

import numpy as np

# Fixed DOS-epoch timestamp for every zip member: archives carry no wall-clock.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


@contextlib.contextmanager
def _replacing(path: str, mode: str) -> Iterator[IO]:
    """A handle whose contents replace ``path`` atomically when the block exits.

    The temp file is unique per writer and on the destination's filesystem,
    so the final ``os.replace`` is atomic; the ``fsync`` before it keeps a
    power loss from publishing a name that points at unflushed data.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        encoding = None if "b" in mode else "utf-8"
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


def atomic_write(path: str, data: bytes) -> None:
    """Durably replace ``path`` with ``data`` (never torn, never half-written)."""
    with _replacing(path, "wb") as handle:
        handle.write(data)


def _jsonify(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonify(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def save_json(path: str, payload: Any) -> None:
    """Atomically write ``payload`` (dataclasses and numpy types allowed) as JSON.

    The encoder streams into the temp file, so a payload that fails to
    serialise mid-way leaves the previous ``path`` intact.
    """
    with _replacing(path, "w") as handle:
        json.dump(_jsonify(payload), handle, indent=2, sort_keys=True)


def load_json(path: str) -> Any:
    """Read a JSON file previously written by :func:`save_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def arrays_to_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    """``arrays`` as byte-deterministic ``.npz`` archive contents.

    Equal inputs always produce equal bytes: member order is the sorted name
    order, members are stored uncompressed and every timestamp is the fixed
    DOS epoch.  This is what makes the archive content-addressable -- the
    zoo stores it under ``sha256(bytes)`` and equal weights dedupe by key.
    """
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w", zipfile.ZIP_STORED) as archive:
        for name in sorted(arrays):
            buffer = io.BytesIO()
            np.lib.format.write_array(
                buffer, np.ascontiguousarray(arrays[name]), allow_pickle=False
            )
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o600 << 16  # fixed mode bits
            archive.writestr(info, buffer.getvalue())
    return out.getvalue()


def load_arrays_bytes(data: bytes) -> Dict[str, np.ndarray]:
    """Read :func:`arrays_to_bytes` output without touching the filesystem."""
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}
