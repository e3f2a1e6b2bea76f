"""Bit-exact binary volume format, multi-modal container, PGM export.

The SG3D file layout is a 28-byte little-endian header followed by the
raw voxel payload with no padding:

    bytes 0..3    magic "SG3D"
    bytes 4..7    version (uint32)
    bytes 8..11   channels C (uint32)
    bytes 12..23  dims D, H, W (uint32 each)
    bytes 24..27  dtype code (uint32): 1 = float32, 2 = uint8
    bytes 28..    C*D*H*W voxels, C-major then row-major with W fastest

Slice figures are written as binary PGM (P5, maxval 255).
"""

from __future__ import annotations

import contextlib
import os
import struct
import uuid
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SG3D_MAGIC",
    "DTYPE_FLOAT32",
    "DTYPE_UINT8",
    "VolumeHeader",
    "MultiModalVolume",
    "VolumeFormatError",
    "LABEL_CODES",
    "atomic_open",
    "check_label_codes",
    "read_volume",
    "write_volume",
    "export_slice_pgm",
]

SG3D_MAGIC = b"SG3D"
SG3D_VERSION = 1
DTYPE_FLOAT32 = 1
DTYPE_UINT8 = 2
_HEADER = struct.Struct("<4sIIIIII")

_DTYPE_BY_CODE = {DTYPE_FLOAT32: np.dtype("<f4"), DTYPE_UINT8: np.dtype("u1")}
_CODE_BY_KIND = {"f": DTYPE_FLOAT32, "u": DTYPE_UINT8}

# 0 background, 1 necrosis, 2 edema, 4 enhancing tumor
LABEL_CODES = frozenset({0, 1, 2, 4})


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb"):
    """Write `path` through a new file beside it, moved over `path` by one
    `os.replace` when the block ends without an error and removed when
    it does not. A reader sees the old file or all of the new one,
    never a part; the data is not fsynced."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode.replace("w", "x")) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def check_label_codes(labels: np.ndarray, source: str = "") -> None:
    """Raise ValueError if a value is no label code, counting them and showing at most 5 after `source`.

    The unknown values are listed as `np.setdiff1d` lists them: distinct,
    sorted, one NaN for all NaNs. Only the voxels no code equals are sorted.
    """
    labels = np.asarray(labels)
    bad = np.ones(labels.shape, dtype=bool)
    for code in LABEL_CODES:
        bad &= labels != code
    unknown = np.unique(labels[bad]).tolist()
    if unknown:
        shown = ", ".join(map(repr, unknown[:5])) + (", ..." if len(unknown) > 5 else "")
        where = f"{source}: " if source else ""
        raise ValueError(f"{where}{len(unknown)} unknown label codes: {shown}")


class VolumeFormatError(Exception):
    """Malformed or truncated SG3D data."""


@dataclass(frozen=True)
class VolumeHeader:
    version: int
    channels: int
    dims: tuple[int, int, int]
    dtype_code: int

    def __post_init__(self):
        if any(n < 1 for n in self.dims) or self.channels < 1:
            raise VolumeFormatError(f"non-positive dims {self.dims} / channels {self.channels}")
        if self.dtype_code not in _DTYPE_BY_CODE:
            raise VolumeFormatError(f"unknown dtype code {self.dtype_code}")

    @property
    def numpy_dtype(self) -> np.dtype:
        return _DTYPE_BY_CODE[self.dtype_code]

    @property
    def payload_bytes(self) -> int:
        d, h, w = self.dims
        return self.channels * d * h * w * self.numpy_dtype.itemsize


@dataclass
class MultiModalVolume:
    """Four co-registered modality grids plus an optional label grid.

    Modality order is fixed: FLAIR, T1ce, T1, T2. Labels use the codes
    0 background, 1 necrosis, 2 edema, 4 enhancing tumor.
    """

    modalities: np.ndarray  # (4, D, H, W) float32
    labels: np.ndarray | None = None  # (D, H, W) uint8

    def __post_init__(self):
        self.modalities = np.asarray(self.modalities, dtype=np.float32)
        if self.modalities.ndim != 4 or self.modalities.shape[0] != 4:
            raise ValueError(f"modalities must be (4, D, H, W), got {self.modalities.shape}")
        if self.labels is not None:
            check_label_codes(self.labels)  # before the cast, which turns 1.5 into 1
            self.labels = np.asarray(self.labels, dtype=np.uint8)
            if self.labels.shape != self.modalities.shape[1:]:
                raise ValueError(
                    f"label dims {self.labels.shape} != modality dims {self.modalities.shape[1:]}"
                )

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(self.modalities.shape[1:])

    @property
    def flair(self) -> np.ndarray:
        return self.modalities[0]


def write_volume(path, grids: np.ndarray) -> VolumeHeader:
    """Write a (C, D, H, W) array as SG3D; dtype must be float32 or uint8."""
    grids = np.asarray(grids)
    if grids.ndim == 3:
        grids = grids[None]
    if grids.ndim != 4:
        raise VolumeFormatError(f"expected (C, D, H, W) grids, got shape {grids.shape}")
    code = _CODE_BY_KIND.get(grids.dtype.kind)
    if code is None or grids.dtype.itemsize != _DTYPE_BY_CODE[code].itemsize:
        raise VolumeFormatError(f"unsupported dtype {grids.dtype}; use float32 or uint8")
    header = VolumeHeader(SG3D_VERSION, grids.shape[0], tuple(grids.shape[1:]), code)
    payload = np.ascontiguousarray(grids, dtype=header.numpy_dtype)
    with atomic_open(path) as f:
        f.write(_HEADER.pack(SG3D_MAGIC, header.version, header.channels, *header.dims, header.dtype_code))
        f.write(payload.tobytes())
    return header


def read_volume(path) -> tuple[VolumeHeader, np.ndarray]:
    """Read an SG3D file; round-trips write_volume bit-exactly.

    The payload is read straight into the returned array, so a volume is
    held in memory once, not twice.
    """
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise VolumeFormatError(f"file too short for header: {len(head)} bytes")
        magic, version, channels, d, h, w, code = _HEADER.unpack(head)
        if magic != SG3D_MAGIC:
            raise VolumeFormatError(f"bad magic {magic!r}")
        if version != SG3D_VERSION:
            raise VolumeFormatError(f"unsupported version {version}")
        header = VolumeHeader(version, channels, (d, h, w), code)
        size = os.fstat(f.fileno()).st_size - _HEADER.size
        if size != header.payload_bytes:
            raise VolumeFormatError(f"payload is {size} bytes, header promises {header.payload_bytes}")
        grids = np.fromfile(f, dtype=header.numpy_dtype, count=channels * d * h * w)
    if grids.nbytes != header.payload_bytes:
        raise VolumeFormatError(f"payload is {grids.nbytes} bytes, header promises {header.payload_bytes}")
    return header, grids.reshape(channels, d, h, w)


def export_slice_pgm(grid: np.ndarray, axis: str, index: int, value_range: tuple[float, float], path) -> None:
    """Write one slice as 8-bit PGM; lo maps to 0 and hi to 255, clamped."""
    lo, hi = value_range
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {value_range}")
    grid = np.asarray(grid)
    if grid.ndim != 3:
        raise ValueError(f"expected a (D, H, W) grid, got {grid.shape}")
    # W is the slice axis of a (in-plane, in-plane, slices) scan grid
    axis_idx = {"sagittal": 0, "coronal": 1, "axial": 2}.get(axis)
    if axis_idx is None:
        raise ValueError(f"axis {axis!r} not in ('axial', 'coronal', 'sagittal')")
    if not 0 <= index < grid.shape[axis_idx]:
        raise IndexError(f"slice index {index} out of bounds for axis {axis} ({grid.shape[axis_idx]})")
    img = np.take(grid, index, axis=axis_idx).astype(np.float64)
    scaled = np.clip((img - lo) / (hi - lo), 0.0, 1.0)
    pixels = np.floor(255.0 * scaled + 0.5).astype(np.uint8)  # round half up
    height, width = pixels.shape
    with atomic_open(path) as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
