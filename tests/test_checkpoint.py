"""Tests for the binary checkpoint format."""

import struct

import numpy as np
import pytest

from sentnet.checkpoint import (
    MAGIC,
    VERSION,
    Checkpoint,
    load_checkpoint,
    read_checkpoint_header,
    save_checkpoint,
)
from sentnet.errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointMismatchError,
    CheckpointTruncatedError,
)
from sentnet import checkpoint as checkpoint_mod
from sentnet import cli
from sentnet.harness import config_from_dict, save_config
from sentnet.network import init_params, parameter_shapes, reference_spec_small

from oracles import checkpoint_bytes, checkpoint_entries, traced_peak


def sample_checkpoint(seed=0):
    rng = np.random.default_rng(seed)
    entries = {
        "conv1": (rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
                  rng.standard_normal(4).astype(np.float32)),
        "fc8": (rng.standard_normal((10, 2)).astype(np.float32),
                rng.standard_normal(2).astype(np.float32)),
    }
    return Checkpoint(entries=entries, metadata={"seed": str(seed), "epoch": "3"})


class TestRoundTrip:
    def test_tensors_bit_identical(self, tmp_path):
        ckpt = sample_checkpoint()
        path = tmp_path / "a.nsrg"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert set(back.entries) == set(ckpt.entries)
        for name in ckpt.entries:
            for a, b in zip(ckpt.entries[name], back.entries[name]):
                assert a.tobytes() == b.tobytes()
                assert a.shape == b.shape
                assert b.dtype == np.float32

    def test_metadata_round_trip(self, tmp_path):
        ckpt = sample_checkpoint(seed=5)
        ckpt.metadata["note"] = "value with spaces and = signs"
        path = tmp_path / "a.nsrg"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.metadata["seed"] == "5"
        assert back.metadata["epoch"] == "3"
        assert back.metadata["note"] == "value with spaces and = signs"

    def test_resave_is_byte_identical(self, tmp_path):
        ckpt = sample_checkpoint()
        p1, p2 = tmp_path / "a.nsrg", tmp_path / "b.nsrg"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_special_float_values_survive(self, tmp_path):
        # denormals and negative zero must round trip bit for bit
        vals = np.array([0.0, -0.0, 1e-45, -1e-45, 3.4e38], dtype=np.float32)
        ckpt = Checkpoint(entries={"w": (vals, np.zeros(1, dtype=np.float32))})
        path = tmp_path / "a.nsrg"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.entries["w"][0].tobytes() == vals.tobytes()

    def test_real_network_checkpoint(self, tmp_path):
        spec = reference_spec_small(num_classes=2)
        ckpt = init_params(spec, seed=1)
        path = tmp_path / "net.nsrg"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path, spec=spec)
        assert back.num_parameters() == ckpt.num_parameters()
        for name in ckpt.entries:
            np.testing.assert_array_equal(back.entries[name][0], ckpt.entries[name][0])

    def test_header_layout(self, tmp_path):
        path = tmp_path / "a.nsrg"
        save_checkpoint(sample_checkpoint(), path)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert struct.unpack("<I", raw[4:8])[0] == VERSION
        assert struct.unpack("<I", raw[8:12])[0] == 2


class TestStreamedCodecMatchesInMemoryCodec:
    """Streamed save/load against the BytesIO codec in oracles."""

    def check(self, ckpt, tmp_path):
        path = tmp_path / "a.nsrg"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        assert raw == checkpoint_bytes(ckpt.entries, ckpt.metadata)
        back = load_checkpoint(path)
        want = checkpoint_entries(raw)
        assert list(back.entries) == list(want)
        for name in want:
            for got, ref in zip(back.entries[name], want[name]):
                assert got.dtype == np.float32
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()

    def test_small_network_checkpoint(self, tmp_path):
        self.check(init_params(reference_spec_small(num_classes=2), seed=4), tmp_path)

    def test_wide_multi_block_tensor(self, tmp_path):
        # 3 x 700_001 floats: 8.4 MB, far more than one I/O buffer, odd length
        rng = np.random.default_rng(9)
        wide = rng.standard_normal((3, 700_001), dtype=np.float32)
        ckpt = Checkpoint(entries={"fc6": (wide, rng.standard_normal(700_001, dtype=np.float32)),
                                   "empty": (np.zeros((2, 0), dtype=np.float32),
                                             np.zeros(0, dtype=np.float32))},
                          metadata={"k": "v"})
        self.check(ckpt, tmp_path)

    def test_non_contiguous_and_float64_tensors_saved_as_float32(self, tmp_path):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((5, 7))
        ckpt = Checkpoint(entries={"f": (w.T, rng.standard_normal(5, dtype=np.float32)[::2])})
        self.check(ckpt, tmp_path)


class TestAtomicSave:
    class Exploding:
        """A tensor whose conversion fails part-way through a save."""

        def __array__(self, dtype=None, copy=None):
            raise OSError("disk full")

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.nsrg"
        save_checkpoint(sample_checkpoint(seed=1), path)
        before = path.read_bytes()
        bad = sample_checkpoint(seed=2)
        bad.entries["later"] = (np.zeros(3, dtype=np.float32), self.Exploding())
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(bad, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.nsrg"]

    def test_failed_first_save_leaves_nothing(self, tmp_path):
        bad = Checkpoint(entries={"f": (self.Exploding(), np.zeros(1, dtype=np.float32))})
        with pytest.raises(OSError):
            save_checkpoint(bad, tmp_path / "a.nsrg")
        assert list(tmp_path.iterdir()) == []

    def test_save_replaces_existing_file(self, tmp_path):
        path = tmp_path / "a.nsrg"
        save_checkpoint(sample_checkpoint(seed=1), path)
        save_checkpoint(sample_checkpoint(seed=2), path)
        assert path.read_bytes() == checkpoint_bytes(sample_checkpoint(seed=2).entries,
                                                     sample_checkpoint(seed=2).metadata)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.nsrg"]


class TestLoadErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nsrg"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bad.nsrg"
        path.write_bytes(MAGIC + struct.pack("<I", 99) + struct.pack("<I", 0) + struct.pack("<I", 0))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_truncation_at_every_prefix_is_detected(self, tmp_path):
        full = tmp_path / "full.nsrg"
        save_checkpoint(sample_checkpoint(), full)
        raw = full.read_bytes()
        cut = tmp_path / "cut.nsrg"
        for n in (0, 3, 4, 8, 11, 12, 20, len(raw) // 2, len(raw) - 1):
            cut.write_bytes(raw[:n])
            with pytest.raises(CheckpointTruncatedError):
                load_checkpoint(cut)

    def oversized(self, tmp_path):
        # one entry whose weight header claims 2**40 floats, with 8 bytes behind it
        buf = MAGIC + struct.pack("<I", VERSION) + struct.pack("<I", 1)
        buf += struct.pack("<H", 3) + b"fc6" + struct.pack("<B", 2)
        buf += struct.pack("<B", 2) + struct.pack("<2Q", 2**20, 2**20) + b"\x00" * 8
        path = tmp_path / "huge.nsrg"
        path.write_bytes(buf)
        return path

    def test_oversized_extent_rejected_before_allocating(self, tmp_path, monkeypatch):
        path = self.oversized(tmp_path)
        real_empty = np.empty

        def guarded_empty(shape, *args, **kwargs):
            assert int(np.prod(shape, dtype=object)) < 2**30, f"allocation of {shape} attempted"
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(checkpoint_mod.np, "empty", guarded_empty)
        with pytest.raises(CheckpointTruncatedError, match="fc6 weights"):
            load_checkpoint(path)

    def test_zero_size_extent_beyond_numpy_limits_rejected(self, tmp_path):
        buf = MAGIC + struct.pack("<I", VERSION) + struct.pack("<I", 1)
        buf += struct.pack("<H", 1) + b"f" + struct.pack("<B", 2)
        buf += struct.pack("<B", 2) + struct.pack("<2Q", 2**63, 0)
        path = tmp_path / "odd.nsrg"
        path.write_bytes(buf)
        with pytest.raises(CheckpointFormatError, match="do not form a tensor"):
            load_checkpoint(path)

    def test_oversized_extent_exits_two(self, tmp_path, capsys):
        path = self.oversized(tmp_path)
        save_config(config_from_dict({"dataset": {"manifest": str(tmp_path / "m.csv")}}), tmp_path / "c.json")
        code = cli.main(["evaluate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "e"),
                         "--checkpoint", str(path)])
        assert code == 2
        assert "truncated" in capsys.readouterr().err

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "a.nsrg"
        save_checkpoint(sample_checkpoint(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(path)

    def test_wrong_tensor_count_rejected(self, tmp_path):
        buf = MAGIC + struct.pack("<I", VERSION) + struct.pack("<I", 1)
        buf += struct.pack("<H", 2) + b"w1" + struct.pack("<B", 3)
        path = tmp_path / "a.nsrg"
        path.write_bytes(buf)
        with pytest.raises(CheckpointFormatError, match="expected 2 tensors"):
            load_checkpoint(path)

    def test_errors_are_checkpoint_errors(self, tmp_path):
        path = tmp_path / "bad.nsrg"
        path.write_bytes(b"XX")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def corrupt_files(tmp_path):
    """(label, path) for every way a file can fail to parse."""
    full = tmp_path / "full.nsrg"
    save_checkpoint(sample_checkpoint(), full)
    raw = full.read_bytes()
    head = MAGIC + struct.pack("<I", VERSION)
    one = checkpoint_bytes({"a": (np.ones((2, 3), np.float32), np.ones(2, np.float32))}, {})
    entry = one[12:-4]  # between the entry count and the empty metadata block
    cases = {
        "bad magic": b"XXXX" + raw[4:],
        "version": MAGIC + struct.pack("<I", 99) + raw[8:],
        "duplicate": head + struct.pack("<I", 2) + entry + entry + struct.pack("<I", 0),
        "trailing": raw + b"\x00",
        "metadata": head + struct.pack("<I", 0) + struct.pack("<I", 8) + b"novalue\n",
        "tensor count": head + struct.pack("<I", 1) + struct.pack("<H", 2) + b"w1" + struct.pack("<B", 3),
        "oversized": head + struct.pack("<I", 1) + struct.pack("<H", 3) + b"fc6" + struct.pack("<B", 2)
        + struct.pack("<B", 2) + struct.pack("<2Q", 2**20, 2**20) + b"\x00" * 8,
        "beyond numpy": head + struct.pack("<I", 1) + struct.pack("<H", 1) + b"f" + struct.pack("<B", 2)
        + struct.pack("<B", 2) + struct.pack("<2Q", 2**63, 0),
        "name byte 0xff": raw[:14] + b"\xff" + raw[15:],  # the first byte of "conv1"
        "metadata byte 0xff": head + struct.pack("<I", 0) + struct.pack("<I", 1) + b"\xff",
    }
    cases.update({f"cut at {n}": raw[:n] for n in (0, 3, 4, 8, 11, 12, 20, len(raw) // 2, len(raw) - 5, len(raw) - 1)})
    for label, data in cases.items():
        path = tmp_path / f"{label.replace(' ', '_')}.nsrg"
        path.write_bytes(data)
        yield label, path


class TestHeaderRead:
    def test_shapes_and_metadata_match_a_full_load(self, tmp_path):
        for ckpt in (sample_checkpoint(seed=2), init_params(reference_spec_small(num_classes=4), seed=1)):
            path = tmp_path / "a.nsrg"
            save_checkpoint(ckpt, path)
            header = read_checkpoint_header(path)
            full = load_checkpoint(path)
            assert header.shapes == {k: (w.shape, b.shape) for k, (w, b) in full.entries.items()}
            assert list(header.shapes) == list(full.entries)
            assert header.metadata == full.metadata

    def test_reads_no_payload(self, tmp_path):
        ckpt = Checkpoint(entries={"fc6": (np.ones((4, 500_000), np.float32), np.ones(500_000, np.float32)),
                                   "fc7": (np.ones((2, 3), np.float32), np.ones(2, np.float32))})
        path = tmp_path / "a.nsrg"
        save_checkpoint(ckpt, path)
        peak, header = traced_peak(lambda: read_checkpoint_header(path))
        assert header.shapes["fc6"] == ((4, 500_000), (500_000,))
        assert peak < 100_000, f"{peak} bytes traced for a {4 * ckpt.num_parameters()}-byte payload"

    def test_every_corruption_fails_as_in_a_full_load(self, tmp_path):
        labels = []
        for label, path in corrupt_files(tmp_path):
            with pytest.raises(CheckpointError) as full:
                load_checkpoint(path)
            with pytest.raises(CheckpointError) as header:
                read_checkpoint_header(path)
            assert type(header.value) is type(full.value), label
            assert str(header.value) == str(full.value), label
            labels.append((label, type(full.value).__name__))
        assert ("duplicate", "CheckpointFormatError") in labels
        assert ("cut at 0", "CheckpointTruncatedError") in labels
        assert ("name byte 0xff", "CheckpointFormatError") in labels
        assert ("metadata byte 0xff", "CheckpointFormatError") in labels

    def test_validates_like_a_full_load(self, tmp_path):
        spec = reference_spec_small(num_classes=2)
        ckpt = init_params(spec, seed=0)
        ckpt.entries["fc8"] = (np.zeros((128, 5), dtype=np.float32), np.zeros(5, dtype=np.float32))
        path = tmp_path / "a.nsrg"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointMismatchError) as full:
            load_checkpoint(path).validate_against(parameter_shapes(spec))
        with pytest.raises(CheckpointMismatchError) as header:
            read_checkpoint_header(path).validate_against(parameter_shapes(spec))
        assert str(header.value) == str(full.value)
        assert "fc8" in str(header.value)


class TestSpecValidation:
    def test_mismatch_names_offending_layer(self, tmp_path):
        spec = reference_spec_small(num_classes=2)
        ckpt = init_params(spec, seed=0)
        w, b = ckpt.entries["fc8"]
        ckpt.entries["fc8"] = (np.zeros((128, 5), dtype=np.float32), np.zeros(5, dtype=np.float32))
        path = tmp_path / "a.nsrg"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointMismatchError, match="fc8"):
            load_checkpoint(path, spec=spec)

    def test_missing_entry_reported(self, tmp_path):
        spec = reference_spec_small(num_classes=2)
        ckpt = init_params(spec, seed=0)
        del ckpt.entries["conv3"]
        path = tmp_path / "a.nsrg"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointMismatchError, match="conv3"):
            load_checkpoint(path, spec=spec)

    def test_extra_entry_reported(self, tmp_path):
        spec = reference_spec_small(num_classes=2)
        ckpt = init_params(spec, seed=0)
        ckpt.entries["mystery"] = (np.zeros(1, dtype=np.float32), np.zeros(1, dtype=np.float32))
        path = tmp_path / "a.nsrg"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointMismatchError, match="mystery"):
            load_checkpoint(path, spec=spec)


class TestCopySemantics:
    def test_copy_is_deep_for_tensors(self):
        ckpt = sample_checkpoint()
        dup = ckpt.copy()
        dup.entries["conv1"][0][0, 0, 0, 0] = 99.0
        assert ckpt.entries["conv1"][0][0, 0, 0, 0] != 99.0
        dup.metadata["seed"] = "changed"
        assert ckpt.metadata["seed"] == "0"
