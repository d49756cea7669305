"""Tests for manifests, image codecs, preprocessing, views, and folds."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentnet.data import (
    TEN_CROP_CENTER,
    DatasetManifest,
    ManifestRecord,
    PreprocessConfig,
    ViewSource,
    center_square,
    compute_channel_means,
    decode_squares,
    load_image,
    load_manifest,
    read_means,
    read_ppm,
    read_raw_tensor,
    resize_bilinear,
    resize_shorter_side,
    save_manifest,
    stratified_kfold,
    ten_crop,
    to_square,
    write_means,
    write_ppm,
    write_raw_tensor,
)
from sentnet.errors import CheckpointError, ConfigError, DataError

from oracles import center_batches, raw_tensor_bytes, ten_crop_views, traced_peak, train_batch_stacked


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestManifest:
    def test_parse_binary_tokens(self, tmp_path):
        p = write_text(tmp_path / "m.csv", "path,label\na.ppm,positive\nb.ppm,negative\nc.ppm,1\nd.ppm,0\n")
        m = load_manifest(p)
        assert [r.label for r in m.records] == [1, 0, 1, 0]
        assert m.class_counts() == {0: 2, 1: 2}
        assert m.folds is None

    def test_fold_column(self, tmp_path):
        p = write_text(tmp_path / "m.csv", "path,label,fold\na.ppm,1,0\nb.ppm,0,4\n")
        m = load_manifest(p)
        np.testing.assert_array_equal(m.folds, [0, 4])

    def test_blank_lines_skipped(self, tmp_path):
        p = write_text(tmp_path / "m.csv", "path,label\na.ppm,1\n\n  \nb.ppm,0\n")
        assert len(load_manifest(p).records) == 2

    def test_bad_label_names_line(self, tmp_path):
        p = write_text(tmp_path / "m.csv", "path,label\na.ppm,1\nb.ppm,maybe\n")
        with pytest.raises(DataError, match=r":3:"):
            load_manifest(p)

    def test_multiclass_gate(self, tmp_path):
        p = write_text(tmp_path / "m.csv", "path,label\na.ppm,3\n")
        with pytest.raises(DataError, match="bad label"):
            load_manifest(p)
        m = load_manifest(p, allow_multiclass=True)
        assert m.records[0].label == 3

    @pytest.mark.parametrize("token", ["²", "⑦", "-1", "+2", "1_0"])
    def test_multiclass_label_must_be_decimal_digits(self, tmp_path, token):
        p = write_text(tmp_path / "m.csv", f"path,label\na.ppm,{token}\n")
        with pytest.raises(DataError, match=r"m\.csv:2: bad label"):
            load_manifest(p, allow_multiclass=True)

    def test_undecodable_manifest_rejected(self, tmp_path):
        (tmp_path / "m.csv").write_bytes(b"path,label\n\xff.ppm,1\n")
        with pytest.raises(DataError, match=r"m\.csv: unreadable manifest"):
            load_manifest(tmp_path / "m.csv")

    def test_wrong_field_count_names_line(self, tmp_path):
        p = write_text(tmp_path / "m.csv", "path,label\na.ppm,1,9,9\n")
        with pytest.raises(DataError, match=r":2:"):
            load_manifest(p)

    def test_bad_fold_token(self, tmp_path):
        p = write_text(tmp_path / "m.csv", "path,label,fold\na.ppm,1,zero\n")
        with pytest.raises(DataError, match="bad fold"):
            load_manifest(p)

    def test_negative_fold_rejected(self, tmp_path):
        p = write_text(tmp_path / "m.csv", "path,label,fold\na.ppm,1,-2\n")
        with pytest.raises(DataError, match="negative fold"):
            load_manifest(p)

    def test_empty_path_rejected(self, tmp_path):
        p = write_text(tmp_path / "m.csv", "path,label\n,1\n")
        with pytest.raises(DataError, match="empty image path"):
            load_manifest(p)

    def test_bad_header_rejected(self, tmp_path):
        p = write_text(tmp_path / "m.csv", "file,class\na.ppm,1\n")
        with pytest.raises(DataError, match="header"):
            load_manifest(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_manifest(tmp_path / "nope.csv")

    def test_no_records_rejected(self, tmp_path):
        p = write_text(tmp_path / "m.csv", "path,label\n")
        with pytest.raises(DataError, match="no records"):
            load_manifest(p)

    def test_record_count_logged(self, tmp_path, caplog):
        p = write_text(
            tmp_path / "m.csv",
            "path,label\n" + "".join(f"i{i}.ppm,{i % 2}\n" for i in range(7)),
        )
        import logging

        with caplog.at_level(logging.INFO, logger="sentnet.data"):
            load_manifest(p)
        assert "7 records" in caplog.text

    def test_save_load_round_trip(self, tmp_path):
        m = DatasetManifest(
            records=(ManifestRecord("x/a.ppm", 1, 0), ManifestRecord("x/b.ppm", 0, 3)),
            root=tmp_path,
        )
        save_manifest(m, tmp_path / "m.csv")
        back = load_manifest(tmp_path / "m.csv")
        assert back.records == m.records

    def test_resolve_relative_and_absolute(self, tmp_path):
        m = DatasetManifest(records=(ManifestRecord("sub/a.ppm", 1),), root=tmp_path)
        assert m.resolve(m.records[0]) == tmp_path / "sub/a.ppm"
        absolute = ManifestRecord(str(tmp_path / "b.ppm"), 0)
        assert m.resolve(absolute) == tmp_path / "b.ppm"

    def test_with_folds_requires_matching_length(self, tmp_path):
        m = DatasetManifest(records=(ManifestRecord("a.ppm", 1),), root=tmp_path)
        with pytest.raises(DataError):
            m.with_folds([0, 1])


class TestPpmCodec:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        write_ppm(tmp_path / "a.ppm", img)
        np.testing.assert_array_equal(read_ppm(tmp_path / "a.ppm"), img)

    def test_header_comments_skipped(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        raw = b"P6\n# a comment\n2 # inline\n2\n255\n" + img.tobytes()
        (tmp_path / "c.ppm").write_bytes(raw)
        np.testing.assert_array_equal(read_ppm(tmp_path / "c.ppm"), img)

    def test_not_p6_rejected(self, tmp_path):
        (tmp_path / "a.ppm").write_bytes(b"P3\n1 1\n255\n1 2 3\n")
        with pytest.raises(DataError, match="P6"):
            read_ppm(tmp_path / "a.ppm")

    def test_high_maxval_rejected(self, tmp_path):
        (tmp_path / "a.ppm").write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(DataError, match="maxval"):
            read_ppm(tmp_path / "a.ppm")

    def test_truncated_payload_rejected(self, tmp_path):
        (tmp_path / "a.ppm").write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(DataError, match="payload"):
            read_ppm(tmp_path / "a.ppm")

    def test_float_input_rounds_and_clips(self, tmp_path):
        img = np.array([[[-5.0, 100.4, 300.0]]], dtype=np.float32)
        write_ppm(tmp_path / "a.ppm", img)
        np.testing.assert_array_equal(read_ppm(tmp_path / "a.ppm")[0, 0], [0, 100, 255])


class TestRawTensor:
    def test_round_trip(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=(3, 4, 5)).astype(np.float32)
        write_raw_tensor(tmp_path / "t.rawt", arr)
        back = read_raw_tensor(tmp_path / "t.rawt")
        assert back.tobytes() == arr.tobytes()
        assert back.shape == arr.shape

    def test_size_mismatch_rejected(self, tmp_path):
        write_raw_tensor(tmp_path / "t.rawt", np.zeros((2, 2), dtype=np.float32))
        data = (tmp_path / "t.rawt").read_bytes()
        (tmp_path / "t.rawt").write_bytes(data[:-4])
        with pytest.raises(DataError, match="mismatch"):
            read_raw_tensor(tmp_path / "t.rawt")

    def test_empty_file_rejected(self, tmp_path):
        (tmp_path / "t.rawt").write_bytes(b"")
        with pytest.raises(DataError, match="empty"):
            read_raw_tensor(tmp_path / "t.rawt")


class TestRawTensorCodec:
    """.rawt files share the checkpoint tensor codec and keep its bytes."""

    def test_bytes_match_in_memory_codec(self, tmp_path):
        arr = np.random.default_rng(4).normal(size=(3, 70, 1001)).astype(np.float32)
        write_raw_tensor(tmp_path / "t.rawt", arr)
        assert (tmp_path / "t.rawt").read_bytes() == raw_tensor_bytes(arr)
        assert read_raw_tensor(tmp_path / "t.rawt").dtype == np.float32

    def test_oversized_extent_is_a_data_error(self, tmp_path):
        (tmp_path / "t.rawt").write_bytes(struct.pack("<B2Q", 2, 2**20, 2**20) + b"\x00" * 8)
        with pytest.raises(DataError, match="mismatch") as info:
            read_raw_tensor(tmp_path / "t.rawt")
        assert not isinstance(info.value, CheckpointError)

    def test_trailing_bytes_rejected(self, tmp_path):
        write_raw_tensor(tmp_path / "t.rawt", np.zeros((2, 2), dtype=np.float32))
        with open(tmp_path / "t.rawt", "ab") as f:
            f.write(b"\x00")
        with pytest.raises(DataError, match="mismatch"):
            read_raw_tensor(tmp_path / "t.rawt")

    @pytest.mark.parametrize("raw", [b"\x00", b"\x02" + b"\x00" * 9, struct.pack("<B2Q", 2, 2**63, 0)])
    def test_bad_header_rejected(self, tmp_path, raw):
        (tmp_path / "t.rawt").write_bytes(raw)
        with pytest.raises(DataError, match="malformed"):
            read_raw_tensor(tmp_path / "t.rawt")


class TestLoadImage:
    def test_ppm_becomes_chw_float(self, tmp_path):
        img = np.random.default_rng(2).integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
        write_ppm(tmp_path / "a.ppm", img)
        out = load_image(tmp_path / "a.ppm")
        assert out.shape == (3, 4, 6)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, img.transpose(2, 0, 1).astype(np.float32))

    def test_raw_tensor_passthrough(self, tmp_path):
        chw = np.random.default_rng(3).normal(size=(3, 5, 5)).astype(np.float32)
        write_raw_tensor(tmp_path / "a.rawt", chw)
        np.testing.assert_array_equal(load_image(tmp_path / "a.rawt"), chw)

    def test_raw_tensor_needs_three_channels(self, tmp_path):
        write_raw_tensor(tmp_path / "a.rawt", np.zeros((1, 5, 5), dtype=np.float32))
        with pytest.raises(DataError, match=r"\[3,H,W\]"):
            load_image(tmp_path / "a.rawt")

    def test_png_via_optional_pillow(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        img = np.random.default_rng(4).integers(0, 256, size=(6, 4, 3), dtype=np.uint8)
        PIL.fromarray(img).save(tmp_path / "a.png")
        out = load_image(tmp_path / "a.png")
        np.testing.assert_array_equal(out, img.transpose(2, 0, 1).astype(np.float32))

    @pytest.mark.parametrize("name", ["empty.ppm", "flat.ppm", "empty.rawt"])
    def test_image_without_pixels_rejected(self, tmp_path, name):
        if name.endswith(".rawt"):
            write_raw_tensor(tmp_path / name, np.zeros((3, 0, 5), dtype=np.float32))
        else:
            (tmp_path / name).write_bytes(b"P6\n0 0\n255\n" if name == "empty.ppm" else b"P6\n4 0\n255\n")
        with pytest.raises(DataError, match=rf"{name}: image has no pixels"):
            load_image(tmp_path / name)

    def test_unknown_suffix_rejected(self, tmp_path):
        (tmp_path / "a.gif").write_bytes(b"GIF89a")
        with pytest.raises(DataError, match="unsupported"):
            load_image(tmp_path / "a.gif")


class TestGeometry:
    def test_same_size_resize_copies(self):
        img = np.random.default_rng(5).normal(size=(3, 4, 4)).astype(np.float32)
        out = resize_bilinear(img, 4, 4)
        np.testing.assert_array_equal(out, img)
        out[0, 0, 0] = 99
        assert img[0, 0, 0] != 99

    def test_half_pixel_centers_on_doubling(self):
        # doubling [0, 1] along one axis samples at -0.25, 0.25, 0.75, 1.25
        img = np.array([[[0.0, 1.0]]], dtype=np.float32)
        out = resize_bilinear(img, 1, 4)
        np.testing.assert_allclose(out[0, 0], [0.0, 0.25, 0.75, 1.0], rtol=1e-6)

    def test_constant_image_stays_constant(self):
        img = np.full((3, 5, 7), 42.0, dtype=np.float32)
        out = resize_bilinear(img, 11, 4)
        np.testing.assert_allclose(out, 42.0, rtol=1e-6)

    def test_downscale_averages_locally(self):
        img = np.zeros((1, 1, 4), dtype=np.float32)
        img[0, 0] = [0.0, 1.0, 2.0, 3.0]
        out = resize_bilinear(img, 1, 2)
        np.testing.assert_allclose(out[0, 0], [0.5, 2.5], rtol=1e-6)

    def test_resize_shorter_side_keeps_aspect(self):
        landscape = np.zeros((3, 10, 20), dtype=np.float32)
        out = resize_shorter_side(landscape, 5)
        assert out.shape == (3, 5, 10)
        portrait = np.zeros((3, 20, 10), dtype=np.float32)
        assert resize_shorter_side(portrait, 5).shape == (3, 10, 5)

    def test_center_square_bias(self):
        img = np.zeros((3, 5, 8), dtype=np.float32)
        img[:, 0, 1] = 1.0
        out = center_square(img, 5)
        assert out.shape == (3, 5, 5)
        # columns 1..5 survive the (8-5)//2 = 1 left offset
        assert out[0, 0, 0] == 1.0

    def test_center_square_too_large_rejected(self):
        with pytest.raises(DataError, match="crop"):
            center_square(np.zeros((3, 4, 4), dtype=np.float32), 5)

    def test_to_square_output_side(self):
        img = np.random.default_rng(6).normal(size=(3, 30, 50)).astype(np.float32)
        cfg = PreprocessConfig(resize_to=16, crop=12)
        assert to_square(img, cfg).shape == (3, 16, 16)


class TestPreprocess:
    """Training and center views, cut by ViewSource from a decoded square."""

    CFG = PreprocessConfig(resize_to=16, crop=12)

    def source(self, img, means=None):
        return ViewSource(img[None], [0], self.CFG.crop, means)

    def test_crop_larger_than_resize_rejected(self):
        with pytest.raises(ConfigError):
            PreprocessConfig(resize_to=8, crop=9)

    def test_test_mode_takes_center(self):
        img = np.random.default_rng(7).normal(size=(3, 16, 16)).astype(np.float32)
        x, _ = next(self.source(img).eval_batches())
        np.testing.assert_array_equal(x[0], img[:, 2:14, 2:14])

    def test_train_mode_is_seeded(self):
        img = np.random.default_rng(8).normal(size=(3, 16, 16)).astype(np.float32)
        rngs = np.random.default_rng(5), np.random.default_rng(5)
        x1, _ = self.source(img).train_batch(np.zeros(8, dtype=np.int64), rngs[0])
        x2, _ = self.source(img).train_batch(np.zeros(8, dtype=np.int64), rngs[1])
        np.testing.assert_array_equal(x1, x2)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_gray_image_equal_to_means_yields_zero(self):
        img = np.empty((3, 16, 16), dtype=np.float32)
        means = np.array([10.0, 20.0, 30.0], dtype=np.float32)
        img[:] = means.reshape(3, 1, 1)
        src = self.source(img, means)
        x, _ = next(src.eval_batches())
        np.testing.assert_array_equal(x, np.zeros((1, 3, 12, 12), dtype=np.float32))
        x, _ = src.train_batch(np.zeros(4, dtype=np.int64), np.random.default_rng(0))
        np.testing.assert_array_equal(x, np.zeros((4, 3, 12, 12), dtype=np.float32))


class TestTenCrop:
    NAMES = ("tl", "tr", "bl", "br", "center")

    @staticmethod
    def crops(square, crop):
        last = square.shape[1] - crop
        offsets = [(0, 0), (0, last), (last, 0), (last, last), (last // 2, last // 2)]
        return [square[:, t : t + crop, l : l + crop] for t, l in offsets]

    def test_order_and_tags(self):
        squares = np.random.default_rng(10).normal(size=(2, 3, 8, 8)).astype(np.float32)
        x = ten_crop(ViewSource(squares, [0, 1], crop=5), [1, 0])
        assert x.shape == (20, 3, 5, 5)
        for block, i in enumerate([1, 0]):
            cuts = self.crops(squares[i], 5)
            want = cuts + [c[:, :, ::-1] for c in cuts]
            for k in range(10):
                np.testing.assert_array_equal(x[10 * block + k], want[k])
        assert self.NAMES[TEN_CROP_CENTER] == "center"

    def test_corner_index_arithmetic(self):
        side, crop = 8, 5
        square = np.arange(3 * side * side, dtype=np.float32).reshape(3, side, side)
        views = dict(zip(self.NAMES, ten_crop(ViewSource(square[None], [0], crop), [0])))
        np.testing.assert_array_equal(views["tl"], square[:, :5, :5])
        np.testing.assert_array_equal(views["tr"], square[:, :5, 3:])
        np.testing.assert_array_equal(views["bl"], square[:, 3:, :5])
        np.testing.assert_array_equal(views["br"], square[:, 3:, 3:])
        np.testing.assert_array_equal(views["center"], square[:, 1:6, 1:6])

    def test_full_scale_corner_rows(self):
        # 256 -> 227: top-left spans rows 0..226, bottom-right rows 29..255
        square = np.zeros((3, 256, 256), dtype=np.float32)
        square[0, 29, 29] = 7.0
        views = dict(zip(self.NAMES, ten_crop(ViewSource(square[None], [0], 227), [0])))
        assert views["br"][0, 0, 0] == 7.0
        assert views["tl"].shape == (3, 227, 227)
        assert views["tl"][0, 226, 226] == 0.0

    def test_mirrors_are_column_reversals(self):
        squares = np.random.default_rng(11).normal(size=(3, 3, 8, 8)).astype(np.float32)
        x = ten_crop(ViewSource(squares, [0, 1, 2], crop=5), range(3)).reshape(3, 10, 3, 5, 5)
        np.testing.assert_array_equal(x[:, 5:], x[:, :5, :, :, ::-1])

    def test_means_subtracted_per_view(self):
        square = np.full((1, 3, 8, 8), 9.0, dtype=np.float32)
        means = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        x = ten_crop(ViewSource(square, [0], 5, means), [0])
        np.testing.assert_array_equal(x[:, 0], 8.0)
        np.testing.assert_array_equal(x[:, 1], 7.0)
        np.testing.assert_array_equal(x[:, 2], 6.0)

    def test_crop_too_large_rejected(self):
        with pytest.raises(DataError, match="crop"):
            ViewSource(np.zeros((1, 3, 4, 4), dtype=np.float32), [0], crop=5)

    def test_chunk_holds_one_batch(self):
        squares = np.random.default_rng(12).normal(100, 50, size=(6, 3, 256, 256)).astype(np.float32)
        src = ViewSource(squares, np.zeros(6), 227, np.array([1.0, 2.0, 3.0]))
        peak, x = traced_peak(lambda: ten_crop(src, range(6)))
        assert x.shape == (60, 3, 227, 227)
        assert peak <= 1.1 * x.nbytes, f"peak {peak / 1e6:.1f} MB for a {x.nbytes / 1e6:.1f} MB batch"


class TestChannelMeans:
    def test_hand_computed(self):
        a = np.zeros((3, 2, 2), dtype=np.float32)
        a[0] = 4.0
        b = np.zeros((3, 2, 2), dtype=np.float32)
        b[0] = 8.0
        b[2] = 1.0
        means = compute_channel_means([a, b])
        np.testing.assert_allclose(means, [6.0, 0.0, 0.5], rtol=1e-6)

    def test_empty_set_rejected(self):
        with pytest.raises(DataError, match="empty"):
            compute_channel_means([])

    def test_file_round_trip_is_exact(self, tmp_path):
        means = np.array([120.0656127929, 127.13348, 120.819565], dtype=np.float32)
        write_means(tmp_path / "means.txt", means)
        back = read_means(tmp_path / "means.txt")
        assert back.tobytes() == means.tobytes()

    def test_means_file_is_three_plain_lines(self, tmp_path):
        write_means(tmp_path / "m.txt", np.array([1.5, 2.0, 3.25], dtype=np.float32))
        lines = (tmp_path / "m.txt").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "1.5"

    def test_malformed_means_file(self, tmp_path):
        (tmp_path / "m.txt").write_text("1.0\nbad\n3.0\n")
        with pytest.raises(DataError, match="malformed"):
            read_means(tmp_path / "m.txt")
        (tmp_path / "m2.txt").write_text("1.0\n2.0\n")
        with pytest.raises(DataError, match="three"):
            read_means(tmp_path / "m2.txt")
        (tmp_path / "m3.txt").write_bytes(b"\x93NUMPY\x01\x00")
        with pytest.raises(DataError, match="unreadable means file"):
            read_means(tmp_path / "m3.txt")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_means_rejected(self, tmp_path, value):
        """1e39 is finite as written but overflows the float32 means to inf."""
        (tmp_path / "m.txt").write_text(f"1.0\n{value}\n3.0\n")
        with pytest.raises(DataError, match="non-finite"):
            read_means(tmp_path / "m.txt")


class TestStratifiedKfold:
    def test_balanced_small_case(self):
        labels = np.array([0, 1] * 5)
        folds = stratified_kfold(labels, 5, seed=0)
        for f in range(5):
            members = labels[folds == f]
            assert (members == 0).sum() == 1
            assert (members == 1).sum() == 1

    def test_corpus_scale_counts(self):
        labels = np.array([1] * 580 + [0] * 301)
        folds = stratified_kfold(labels, 5, seed=3)
        pos = [int(((folds == f) & (labels == 1)).sum()) for f in range(5)]
        neg = [int(((folds == f) & (labels == 0)).sum()) for f in range(5)]
        assert pos == [116] * 5
        assert sorted(neg) == [60, 60, 60, 60, 61]

    def test_deterministic_in_seed(self):
        labels = np.arange(40) % 2
        np.testing.assert_array_equal(
            stratified_kfold(labels, 4, seed=9), stratified_kfold(labels, 4, seed=9)
        )
        assert not np.array_equal(
            stratified_kfold(labels, 4, seed=9), stratified_kfold(labels, 4, seed=10)
        )

    def test_class_smaller_than_k_rejected(self):
        with pytest.raises(DataError, match="fewer than"):
            stratified_kfold(np.array([0, 0, 0, 1]), 2, seed=0)

    def test_k_below_two_rejected(self):
        with pytest.raises(DataError, match="folds"):
            stratified_kfold(np.array([0, 1]), 1, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.lists(st.integers(3, 12), min_size=2, max_size=4),
        seed=st.integers(0, 100),
    )
    def test_partition_property(self, counts, seed):
        labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
        folds = stratified_kfold(labels, 3, seed=seed)
        assert set(np.unique(folds)) <= {0, 1, 2}
        assert (folds >= 0).all()
        for cls, c in enumerate(counts):
            per = [int(((folds == f) & (labels == cls)).sum()) for f in range(3)]
            assert sum(per) == c
            assert max(per) - min(per) <= 1


class TestViewSource:
    def make(self, n=6, side=8, crop=5, means=None, seed=0):
        rng = np.random.default_rng(seed)
        squares = rng.normal(0, 1, size=(n, 3, side, side)).astype(np.float32)
        labels = np.arange(n) % 2
        return ViewSource(squares, labels, crop=crop, means=means), squares, labels

    def test_eval_batches_take_center(self):
        src, squares, labels = self.make()
        batches = list(src.eval_batches(batch_size=4))
        assert len(batches) == 2
        x, y = batches[0]
        np.testing.assert_array_equal(x[0], squares[0, :, 1:6, 1:6])
        np.testing.assert_array_equal(y, labels[:4])

    def test_train_batch_reproducible(self):
        src, _, _ = self.make()
        idx = np.array([0, 3, 5])
        x1, y1 = src.train_batch(idx, np.random.default_rng(4))
        x2, y2 = src.train_batch(idx, np.random.default_rng(4))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        assert x1.shape == (3, 3, 5, 5)

    def test_train_views_come_from_the_right_images(self):
        src, squares, labels = self.make(crop=8)  # crop == side: no slack
        idx = np.array([2, 4])
        x, y = src.train_batch(idx, np.random.default_rng(0))
        np.testing.assert_array_equal(y, labels[idx])
        for row, i in enumerate(idx):
            flat = x[row]
            same = np.array_equal(flat, squares[i]) or np.array_equal(flat, squares[i][:, :, ::-1])
            assert same

    def test_mean_subtraction(self):
        means = np.array([0.5, 0.0, -0.5], dtype=np.float32)
        src, squares, _ = self.make(means=means)
        x, _ = next(iter(src.eval_batches(batch_size=2)))
        np.testing.assert_allclose(x[0, 0], squares[0, 0, 1:6, 1:6] - 0.5, rtol=1e-6)

    def test_shape_validation(self):
        with pytest.raises(DataError, match="square"):
            ViewSource(np.zeros((2, 3, 4, 5), dtype=np.float32), [0, 1], crop=3)
        with pytest.raises(DataError, match="crop"):
            ViewSource(np.zeros((2, 3, 4, 4), dtype=np.float32), [0, 1], crop=5)
        with pytest.raises(DataError, match="labels"):
            ViewSource(np.zeros((2, 3, 4, 4), dtype=np.float32), [0], crop=3)

    def test_flip_matches_draws(self):
        src, squares, _ = self.make(side=16, crop=12)
        idx = np.array([0, 1, 2, 3, 4, 5] * 4)
        x, _ = src.train_batch(idx, np.random.default_rng(9))
        replay = np.random.default_rng(9)
        tops, lefts, flips = (replay.integers(0, hi, size=len(idx)) for hi in (5, 5, 2))
        assert set(flips.tolist()) == {0, 1}
        for row, (i, t, l, f) in enumerate(zip(idx, tops, lefts, flips)):
            cut = squares[i, :, t : t + 12, l : l + 12]
            np.testing.assert_array_equal(x[row], cut[:, :, ::-1] if f else cut)

    @pytest.mark.parametrize("side,crop", [(8, 5), (8, 8), (9, 4), (72, 64), (256, 227)])
    @pytest.mark.parametrize("with_means", [False, True])
    def test_views_match_oracles(self, side, crop, with_means):
        """Every view path gives the per-view cutting's bytes, -0 included."""
        n = 7 if side < 256 else 3
        means = np.array([0.0, 12.5, -3.25], dtype=np.float32) if with_means else None
        src, squares, _ = self.make(n=n, side=side, crop=crop, means=means, seed=side + crop)
        squares *= 60.0
        squares[0, 0, :, :] = -0.0
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):
            idx = rng.permutation(n)[:4]
            assert ref_rng.permutation(n)[:4].tolist() == idx.tolist()
            got, want = src.train_batch(idx, rng), train_batch_stacked(src, idx, ref_rng)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        for batch_size in (2, 64):
            pairs = list(zip(src.eval_batches(batch_size), center_batches(src, batch_size), strict=True))
            for (x, y), (wx, wy) in pairs:
                assert x.tobytes() == wx.tobytes() and y.tobytes() == wy.tobytes()
        for start in range(0, n, 2):
            idx = range(start, min(start + 2, n))
            want = np.stack([v for i in idx for v in ten_crop_views(squares[i], crop, means)])
            assert ten_crop(src, idx).tobytes() == want.tobytes()


    def test_row_sources_cut_the_bytes_of_copied_rows(self):
        src, squares, labels = self.make(n=9, side=16, crop=12, means=np.array([1.0, 2.0, 3.0]))
        rows = np.array([7, 2, 4, 0, 5])
        got = ViewSource(squares, labels, 12, src.means, rows=rows)
        want = ViewSource(squares[rows], labels[rows], 12, src.means)
        assert got.n == want.n == 5 and got.labels.tobytes() == want.labels.tobytes()
        idx = np.array([4, 0, 3, 3, 1])
        for a, b in zip(got.train_batch(idx, np.random.default_rng(2)), want.train_batch(idx, np.random.default_rng(2))):
            assert a.tobytes() == b.tobytes()
        for (x, y), (wx, wy) in zip(got.eval_batches(2), want.eval_batches(2), strict=True):
            assert x.tobytes() == wx.tobytes() and y.tobytes() == wy.tobytes()
        assert ten_crop(got, range(5)).tobytes() == ten_crop(want, range(5)).tobytes()

    def test_fold_sources_allocate_no_copy_of_the_set(self):
        """A fold's two sources read the shared decoded set through their rows."""
        rng = np.random.default_rng(3)
        squares = rng.random((8, 3, 256, 256), dtype=np.float32)
        labels = np.arange(8) % 2
        train_idx, test_idx = np.array([0, 2, 3, 5, 6, 7]), np.array([1, 4])
        image = squares[0].nbytes
        peak, sources = traced_peak(lambda: [ViewSource(squares, labels, 227, rows=rows) for rows in (train_idx, test_idx)])
        copy_peak, copied = traced_peak(lambda: ViewSource(squares[train_idx], labels[train_idx], 227))
        assert peak < image / 100
        assert copy_peak >= 6 * image  # the measure sees a copy
        assert all(src.squares is squares for src in sources) and copied.n == 6

    @pytest.mark.parametrize("side,crop", [(72, 64), (256, 227)])
    @pytest.mark.parametrize("with_means", [False, True])
    def test_byte_squares_cut_the_bits_of_float32_squares(self, side, crop, with_means):
        """uint8 squares are kept as given, and every view, and the channel
        means, have the bits of the same squares as float32. Each 256 px
        channel is longer than numpy's 8,192-element reduction buffer."""
        n = 5
        squares = np.random.default_rng(side).integers(0, 256, size=(n, 3, side, side), dtype=np.uint8)
        as_float = squares.astype(np.float32)
        assert compute_channel_means(squares).tobytes() == compute_channel_means(as_float).tobytes()
        rows = [3, 0, 4]
        got_means = compute_channel_means(squares[i] for i in rows)
        assert got_means.tobytes() == compute_channel_means(as_float[i] for i in rows).tobytes()
        means = got_means if with_means else None
        labels = np.arange(n) % 2
        got, want = ViewSource(squares, labels, crop, means), ViewSource(as_float, labels, crop, means)
        assert got.squares is squares and want.squares is as_float
        idx = np.array([4, 1, 1, 0, 3])
        for a, b in zip(got.train_batch(idx, np.random.default_rng(2)), want.train_batch(idx, np.random.default_rng(2))):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for (x, y), (wx, wy) in zip(got.eval_batches(2), want.eval_batches(2), strict=True):
            assert x.dtype == np.float32 and x.tobytes() == wx.tobytes() and y.tobytes() == wy.tobytes()
        assert ten_crop(got, range(n)).tobytes() == ten_crop(want, range(n)).tobytes()

    def test_other_dtypes_become_float32(self):
        squares = np.random.default_rng(0).integers(0, 256, size=(2, 3, 8, 8))
        for dtype in (np.int64, np.uint16, np.float64):
            assert ViewSource(squares.astype(dtype), [0, 1], crop=5).squares.dtype == np.float32


def write_byte_images(root, count, side, seed=12):
    """count random 8-bit PPMs of side x side; their manifest records."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        write_ppm(root / f"i{i}.ppm", rng.integers(0, 256, size=(side, side, 3), dtype=np.uint8))
        records.append(ManifestRecord(f"i{i}.ppm", i % 2))
    return records


class TestDecodeSquares:
    def test_matches_manual_pipeline(self, tmp_path):
        rng = np.random.default_rng(12)
        names = []
        for i in range(3):
            img = rng.integers(0, 256, size=(20 + i, 30, 3), dtype=np.uint8)
            write_ppm(tmp_path / f"i{i}.ppm", img)
            names.append(f"i{i}.ppm")
        m = DatasetManifest(
            records=tuple(ManifestRecord(n, i % 2) for i, n in enumerate(names)),
            root=tmp_path,
        )
        cfg = PreprocessConfig(resize_to=16, crop=12)
        out = decode_squares(m, cfg)
        assert out.shape == (3, 3, 16, 16)
        want0 = to_square(load_image(tmp_path / names[0]), cfg)
        np.testing.assert_array_equal(out[0], want0)

    def test_8bit_images_at_the_working_size_are_held_as_bytes(self, tmp_path):
        m = DatasetManifest(records=tuple(write_byte_images(tmp_path, 4, 16)), root=tmp_path)
        out = decode_squares(m, PreprocessConfig(resize_to=16, crop=12))
        assert out.dtype == np.uint8 and out.shape == (4, 3, 16, 16)
        for i, rec in enumerate(m.records):
            assert out[i].tobytes() == read_ppm(tmp_path / rec.path).transpose(2, 0, 1).tobytes()

    @pytest.mark.parametrize("odd", ["resampled", "fraction", "negative-zero", "nan", "above-255", "negative"])
    @pytest.mark.parametrize("at", ["first", "last"])
    def test_a_square_that_is_not_bytes_makes_the_set_float32(self, tmp_path, odd, at):
        """One image that does not round-trip through uint8, first or last
        among 8-bit ones: the set is float32 with the pipeline's values."""
        records = write_byte_images(tmp_path, 3, 16)
        if odd == "resampled":
            write_ppm(tmp_path / "odd.ppm", np.random.default_rng(1).integers(0, 256, size=(20, 30, 3), dtype=np.uint8))
            name = "odd.ppm"
        else:
            chw = np.random.default_rng(1).integers(0, 256, size=(3, 16, 16)).astype(np.float32)
            chw[1, 5, 7] = {"fraction": 17.5, "negative-zero": -0.0, "nan": np.nan, "above-255": 256.0,
                            "negative": -1.0}[odd]
            write_raw_tensor(tmp_path / "odd.rawt", chw)
            name = "odd.rawt"
        records.insert(0 if at == "first" else len(records), ManifestRecord(name, 1))
        m = DatasetManifest(records=tuple(records), root=tmp_path)
        cfg = PreprocessConfig(resize_to=16, crop=12)
        out = decode_squares(m, cfg)
        assert out.dtype == np.float32
        for i, rec in enumerate(m.records):
            assert out[i].tobytes() == to_square(load_image(tmp_path / rec.path), cfg).tobytes(), rec.path

    def test_byte_squares_hold_a_quarter_of_float32(self, tmp_path):
        """40 PPMs of 72 px: decoding peaks under 2 bytes per pixel value
        (1.24 MB), where float32 squares alone take 4 (2.49 MB)."""
        m = DatasetManifest(records=tuple(write_byte_images(tmp_path, 40, 72)), root=tmp_path)
        peak, out = traced_peak(lambda: decode_squares(m, PreprocessConfig(resize_to=72, crop=64)))
        assert out.dtype == np.uint8 and peak < 2 * out.size, f"peak {peak} B for {out.size} values"
