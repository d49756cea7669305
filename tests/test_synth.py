"""Tests for the seeded synthetic image generator."""

import numpy as np
import pytest

from sentnet.data import load_manifest, read_ppm
from sentnet.errors import ConfigError
from sentnet.synth import (
    BINARY_KINDS,
    MULTICLASS_KINDS,
    generate_arrays,
    generate_image,
    write_synthetic_dataset,
)


class TestGenerateImage:
    def test_shape_and_dtype(self):
        img = generate_image("aligned", 32, seed=0, index=0)
        assert img.shape == (32, 32, 3)
        assert img.dtype == np.uint8

    def test_deterministic_per_seed_and_index(self):
        a = generate_image("crossed", 24, seed=7, index=3)
        b = generate_image("crossed", 24, seed=7, index=3)
        np.testing.assert_array_equal(a, b)

    def test_index_changes_image(self):
        a = generate_image("crossed", 24, seed=7, index=3)
        c = generate_image("crossed", 24, seed=7, index=4)
        assert not np.array_equal(a, c)

    def test_seed_changes_image(self):
        a = generate_image("aligned", 24, seed=1, index=0)
        b = generate_image("aligned", 24, seed=2, index=0)
        assert not np.array_equal(a, b)

    def test_every_kind_renders(self):
        for kind in BINARY_KINDS + MULTICLASS_KINDS:
            img = generate_image(kind, 16, seed=0, index=0)
            assert img.std() > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            generate_image("checkerboard", 16, seed=0, index=0)

    def test_unknown_palette_rejected(self):
        with pytest.raises(ConfigError, match="palette"):
            generate_image("aligned", 16, seed=0, index=0, palette="fancy")

    def test_palettes_differ(self):
        a = generate_image("horizontal-warm", 24, seed=5, index=0, palette="base")
        b = generate_image("horizontal-warm", 24, seed=5, index=0, palette="alt")
        assert not np.array_equal(a, b)

    def test_ramp_axis_is_visible_at_image_scale(self):
        # horizontal kinds vary across columns much more than a vertical kind
        # varies across columns, on average over many draws
        def column_spread(kind):
            total = 0.0
            for i in range(10):
                img = generate_image(kind, 48, seed=42, index=i).astype(np.float64)
                cols = img.mean(axis=(0, 2))
                total += float(np.abs(cols[-8:].mean() - cols[:8].mean()))
            return total / 10

        assert column_spread("horizontal-warm") > 2 * column_spread("vertical-warm")


class TestGenerateArrays:
    def test_binary_labels_alternate(self):
        x, y = generate_arrays("binary", 6, 16, seed=0)
        assert x.shape == (6, 3, 16, 16)
        assert x.dtype == np.float32
        np.testing.assert_array_equal(y, [0, 1, 0, 1, 0, 1])

    def test_multiclass_labels_cycle(self):
        _, y = generate_arrays("multiclass", 9, 16, seed=0)
        np.testing.assert_array_equal(y, [0, 1, 2, 3, 0, 1, 2, 3, 0])

    def test_values_span_pixel_range(self):
        x, _ = generate_arrays("binary", 8, 32, seed=3)
        assert x.min() >= 0.0
        assert x.max() <= 255.0
        assert x.max() > 100.0

    def test_matches_generate_image(self):
        x, y = generate_arrays("binary", 2, 16, seed=9)
        single = generate_image(BINARY_KINDS[1], 16, seed=9, index=1)
        np.testing.assert_array_equal(x[1], single.transpose(2, 0, 1).astype(np.float32))
        assert y[1] == 1

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError, match="task"):
            generate_arrays("regression", 4, 16, seed=0)


class TestWriteDataset:
    def test_manifest_round_trip(self, tmp_path):
        path = write_synthetic_dataset(tmp_path, "binary", 10, 16, seed=4, k_folds=5)
        m = load_manifest(path)
        assert len(m.records) == 10
        assert m.class_counts() == {0: 5, 1: 5}
        assert m.folds is not None
        for f in range(5):
            assert (m.folds == f).sum() == 2

    def test_images_match_generator(self, tmp_path):
        path = write_synthetic_dataset(tmp_path, "binary", 4, 16, seed=4, k_folds=None)
        m = load_manifest(path)
        assert m.folds is None
        img = read_ppm(m.resolve(m.records[2]))
        np.testing.assert_array_equal(img, generate_image("aligned", 16, seed=4, index=2))

    @pytest.mark.parametrize("task,k_folds", [("regression", None), ("regression", 2), ("binary", 1), ("binary", 6)])
    def test_rejected_before_any_directory(self, tmp_path, task, k_folds):
        with pytest.raises(ConfigError):
            write_synthetic_dataset(tmp_path / "out", task, 10, 16, seed=0, k_folds=k_folds)
        assert not (tmp_path / "out").exists()

    def test_multiclass_dataset(self, tmp_path):
        path = write_synthetic_dataset(tmp_path, "multiclass", 8, 16, seed=0, k_folds=2)
        m = load_manifest(path, allow_multiclass=True)
        assert m.class_counts() == {0: 2, 1: 2, 2: 2, 3: 2}
