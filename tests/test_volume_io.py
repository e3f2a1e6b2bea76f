"""SG3D round-trip, PGM export and atomic-write tests."""

import errno

import numpy as np
import pytest

from voxseg import volume_io
from voxseg.checkpoint import save_checkpoint
from voxseg.metrics import compose_regions
from voxseg.volume_io import (
    DTYPE_FLOAT32,
    SG3D_VERSION,
    MultiModalVolume,
    VolumeFormatError,
    atomic_open,
    check_label_codes,
    export_slice_pgm,
    read_volume,
    write_volume,
)


class TestRoundTrip:
    def test_float_volume_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        grids = rng.standard_normal((2, 4, 4, 4)).astype(np.float32)
        path = tmp_path / "v.sg3d"
        write_volume(path, grids)
        first = path.read_bytes()
        header, back = read_volume(path)
        assert header.channels == 2 and header.dims == (4, 4, 4)
        assert header.dtype_code == DTYPE_FLOAT32
        np.testing.assert_array_equal(back, grids)
        write_volume(path, back)
        assert path.read_bytes() == first

    def test_uint8_labels_bit_exact(self, tmp_path):
        labels = np.random.default_rng(1).choice([0, 1, 2, 4], size=(1, 3, 5, 2)).astype(np.uint8)
        path = tmp_path / "l.sg3d"
        write_volume(path, labels)
        _, back = read_volume(path)
        np.testing.assert_array_equal(back, labels)

    def test_single_voxel_file_length(self, tmp_path):
        path = tmp_path / "one.sg3d"
        write_volume(path, np.ones((1, 1, 1, 1), dtype=np.float32))
        assert path.stat().st_size == 28 + 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.sg3d"
        write_volume(path, np.ones((1, 1, 1, 1), dtype=np.float32))
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(VolumeFormatError, match="magic"):
            read_volume(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.sg3d"
        write_volume(path, np.ones((1, 2, 2, 2), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(VolumeFormatError, match="payload"):
            read_volume(path)

    def test_unknown_dtype_rejected(self, tmp_path):
        path = tmp_path / "odd.sg3d"
        write_volume(path, np.ones((1, 1, 1, 1), dtype=np.float32))
        data = bytearray(path.read_bytes())
        data[24:28] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VolumeFormatError, match="dtype"):
            read_volume(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "v2.sg3d"
        write_volume(path, np.ones((1, 1, 1, 1), dtype=np.float32))
        data = bytearray(path.read_bytes())
        data[4:8] = (SG3D_VERSION + 1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VolumeFormatError, match="version"):
            read_volume(path)

    def test_every_truncated_prefix_raises(self, tmp_path):
        path = tmp_path / "full.sg3d"
        write_volume(path, np.arange(2 * 2 * 3 * 2, dtype=np.float32).reshape(2, 2, 3, 2))
        data = path.read_bytes()
        cut = tmp_path / "cut.sg3d"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(VolumeFormatError):
                read_volume(cut)

    def test_zero_voxel_request_rejected(self, tmp_path):
        with pytest.raises(VolumeFormatError):
            write_volume(tmp_path / "z.sg3d", np.empty((1, 0, 2, 2), dtype=np.float32))

    def test_float64_rejected(self, tmp_path):
        with pytest.raises(VolumeFormatError, match="dtype"):
            write_volume(tmp_path / "d.sg3d", np.ones((1, 1, 1, 1), dtype=np.float64))


class TestPgmExport:
    def read_pgm(self, path):
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n")
        header, rest = raw.split(b"\n255\n", 1)
        w, h = map(int, header.split(b"\n")[1].split())
        return np.frombuffer(rest, dtype=np.uint8).reshape(h, w)

    def test_midgray(self, tmp_path):
        grid = np.full((2, 3, 4), 0.5)
        path = tmp_path / "g.pgm"
        export_slice_pgm(grid, "axial", 0, (0.0, 1.0), path)
        np.testing.assert_array_equal(self.read_pgm(path), np.full((2, 3), 128, dtype=np.uint8))

    def test_endpoints_and_clamp(self, tmp_path):
        grid = np.zeros((1, 1, 4))
        grid[0, 0] = [-0.5, 0.0, 1.0, 2.0]
        path = tmp_path / "e.pgm"
        export_slice_pgm(grid, "sagittal", 0, (0.0, 1.0), path)
        np.testing.assert_array_equal(self.read_pgm(path).ravel(), [0, 0, 255, 255])

    def test_monotone_in_value(self, tmp_path):
        rng = np.random.default_rng(4)
        vals = np.sort(rng.uniform(-1, 2, size=16))
        grid = vals.reshape(1, 4, 4)
        path = tmp_path / "m.pgm"
        export_slice_pgm(grid, "sagittal", 0, (0.0, 1.0), path)
        pixels = self.read_pgm(path).ravel()
        assert np.all(np.diff(pixels.astype(int)) >= 0)

    @pytest.mark.parametrize("axis,shape", [("sagittal", (3, 4)), ("coronal", (2, 4)), ("axial", (2, 3))])
    def test_axis_slicing_shapes(self, tmp_path, axis, shape):
        grid = np.zeros((2, 3, 4))
        path = tmp_path / f"{axis}.pgm"
        export_slice_pgm(grid, axis, 0, (0.0, 1.0), path)
        assert self.read_pgm(path).shape == shape

    def test_index_out_of_bounds(self, tmp_path):
        with pytest.raises(IndexError):
            export_slice_pgm(np.zeros((2, 2, 2)), "axial", 5, (0.0, 1.0), tmp_path / "x.pgm")

    def test_bad_range(self, tmp_path):
        with pytest.raises(ValueError, match="lo < hi"):
            export_slice_pgm(np.zeros((2, 2, 2)), "axial", 0, (1.0, 1.0), tmp_path / "x.pgm")


class TestLabelCodes:
    def test_known_codes_pass(self):
        check_label_codes(np.array([0, 1, 2, 4, 4, 0], dtype=np.uint8))
        check_label_codes(np.array([0.0, 4.0], dtype=np.float32))

    def test_message_counts_and_shows_at_most_five(self):
        with pytest.raises(ValueError) as exc:
            check_label_codes(np.arange(1000.0) / 7)  # 0/7, 7/7, 14/7 and 28/7 are codes
        message = str(exc.value)
        assert message.startswith("996 unknown label codes: ") and message.endswith(", ...")
        assert len(message.split(": ")[1].split(", ")) == 6  # five values and the ellipsis

    def test_few_unknown_codes_are_all_shown(self):
        with pytest.raises(ValueError, match=r"^2 unknown label codes: 3, 7$"):
            check_label_codes(np.array([0, 3, 7, 3], dtype=np.uint8))

    @pytest.mark.parametrize("value", [1.5, 4.5, 256.0])
    def test_volume_checks_labels_before_the_uint8_cast(self, value):
        # the cast alone turns these into the codes 1, 4 and (on x86) 0
        with pytest.raises(ValueError, match=f"^1 unknown label codes: {value!r}$"):
            MultiModalVolume(np.zeros((4, 2, 2, 2)), np.full((2, 2, 2), value))

    def test_both_readers_of_labels_use_it(self):
        labels = np.arange(4 * 4 * 4, dtype=np.uint8).reshape(4, 4, 4) + 5
        for check in (compose_regions, lambda lbl: MultiModalVolume(np.zeros((4, 4, 4, 4)), lbl)):
            with pytest.raises(ValueError, match=r"^64 unknown label codes: 5, 6, 7, 8, 9, \.\.\.$"):
                check(labels)


class _DiskFullAfterFirstWrite:
    """A file whose second write fails as a full disk would."""

    def __init__(self, f):
        self.f, self.writes = f, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.f.write(data)


class TestAtomicWrites:
    WRITERS = {
        "write_volume": lambda p: write_volume(p, np.ones((2, 3, 3, 3), dtype=np.float32)),
        "save_checkpoint": lambda p: save_checkpoint(p, {"w": np.ones((4, 2), dtype=np.float32)}),
        "export_slice_pgm": lambda p: export_slice_pgm(np.ones((3, 3, 3)), "axial", 1, (0.0, 2.0), p),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_write_failing_midway_keeps_the_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        real_open = open
        monkeypatch.setattr(volume_io, "open", lambda *a: _DiskFullAfterFirstWrite(real_open(*a)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            self.WRITERS[writer](path)
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_complete_write_replaces_the_old_file(self, tmp_path, writer):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        self.WRITERS[writer](path)
        assert path.read_bytes() != b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_text_block_raising_leaves_no_file(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with atomic_open(tmp_path / "report.txt", "w") as f:
                f.write("partial")
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []
