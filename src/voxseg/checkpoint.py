"""Parameter checkpoint container with a named-shape manifest.

Layout (little-endian):

    bytes 0..3   magic "SGCP"
    bytes 4..7   version (uint32)
    bytes 8..11  entry count (uint32)
    per entry:   name length (uint32), utf-8 name, ndim (uint32),
                 ndim extents (uint32 each)
    payload:     concatenated float32 buffers in manifest order

Round-trips are byte-exact: writing a freshly loaded state reproduces
the file.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .volume_io import atomic_open

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint", "read_manifest"]

_MAGIC = b"SGCP"
_VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(path, state: dict[str, np.ndarray]) -> None:
    """Write named float32 arrays; insertion order defines the manifest."""
    chunks = [struct.pack("<4sII", _MAGIC, _VERSION, len(state))]
    payload = []
    for name, arr in state.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        payload.append(arr.tobytes())
    with atomic_open(path) as f:
        f.write(b"".join(chunks))
        f.write(b"".join(payload))


def _parse_manifest(raw: bytes) -> tuple[list[tuple[str, tuple[int, ...]]], int]:
    if len(raw) < 12:
        raise CheckpointError("file too short for header")
    magic, version, count = struct.unpack_from("<4sII", raw)
    if magic != _MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise CheckpointError(f"unsupported version {version}")
    offset = 12
    entries = []

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if len(raw) - offset < n:
            raise CheckpointError(f"manifest truncated in entry {len(entries)} {what}")
        offset += n
        return raw[offset - n : offset]

    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"entry {len(entries)} name is not utf-8: {exc}") from None
        (ndim,) = struct.unpack("<I", take(4, "ndim"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "shape"))
        entries.append((name, tuple(int(n) for n in shape)))
    return entries, offset


def _read(path, parse):
    """parse(raw bytes of path); every CheckpointError it raises names the file."""
    raw = Path(path).read_bytes()
    try:
        return parse(raw)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def read_manifest(path) -> list[tuple[str, tuple[int, ...]]]:
    """Named shapes in file order, without touching the payload."""
    return _read(path, _parse_manifest)[0]


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Named float32 arrays in file order; CheckpointError if malformed or non-finite."""
    return _read(path, _parse_state)


def _parse_state(raw: bytes) -> dict[str, np.ndarray]:
    entries, offset = _parse_manifest(raw)
    expected = offset + sum(4 * math.prod(shape) for _, shape in entries)
    if len(raw) != expected:
        raise CheckpointError(f"payload is {len(raw) - offset} bytes, manifest promises {expected - offset}")
    state: dict[str, np.ndarray] = {}
    for name, shape in entries:
        n = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f4", count=n, offset=offset).reshape(shape)
        offset += 4 * n
        bad = arr.size - np.count_nonzero(np.isfinite(arr))
        if bad:
            raise CheckpointError(f"entry {name!r} holds {bad} non-finite values")
        state[name] = arr.copy()
    return state
