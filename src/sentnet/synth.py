"""Seeded synthetic image generator for desk-scale experiments.

Every image carries two latent attributes: the axis of a smooth background
ramp (horizontal or vertical) and the tone of a handful of blobs painted on
top (warm or cool). The four-way source task names the attribute combination
outright; the binary target task labels whether the attributes agree or
disagree, so it is a composition of cues rather than any single texture.
Every image is generated from its own (seed, index) stream, so datasets are
reproducible element by element.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import DatasetManifest, ManifestRecord, save_manifest, stratified_kfold, write_ppm
from .errors import ConfigError, DataError

Array = np.ndarray

BINARY_KINDS = ("aligned", "crossed")  # label 0: attributes agree, 1: disagree
MULTICLASS_KINDS = ("horizontal-warm", "horizontal-cool", "vertical-warm", "vertical-cool")

_WARM = {"base": (205.0, 95.0, 55.0), "alt": (225.0, 140.0, 40.0)}
_COOL = {"base": (55.0, 95.0, 205.0), "alt": (40.0, 170.0, 195.0)}


def _grid(size: int) -> tuple[Array, Array]:
    ax = np.linspace(-1.0, 1.0, size, dtype=np.float32)
    return np.meshgrid(ax, ax, indexing="ij")


def _attribute_image(rng: np.random.Generator, size: int, axis: int, tone: int, palette: str) -> Array:
    """Background ramp along the given axis plus blobs of the given tone.

    The ramp is low frequency on purpose: within any small window its slope
    is a few intensity units, so the axis only reads out at image scale.
    """
    yy, xx = _grid(size)
    ramp = yy if axis else xx
    if rng.integers(0, 2):
        ramp = -ramp
    span = rng.uniform(70.0, 110.0) if palette == "base" else rng.uniform(55.0, 90.0)
    mid = rng.uniform(95.0, 150.0, size=3).astype(np.float32)
    img = np.empty((size, size, 3), dtype=np.float32)
    img[:] = mid
    img += (ramp * (span / 2.0))[..., None]

    tint = np.array(_COOL[palette] if tone else _WARM[palette], dtype=np.float32)
    count = int(rng.integers(3, 7))
    for _ in range(count):
        cy, cx = rng.uniform(-0.7, 0.7, size=2)
        sigma = rng.uniform(0.1, 0.22)
        alpha = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))[..., None]
        jitter = rng.uniform(-25.0, 25.0, size=3).astype(np.float32)
        img = img * (1.0 - alpha) + alpha * (tint + jitter)

    sigma_noise = 5.0 if palette == "base" else 9.0
    img += rng.normal(0.0, sigma_noise, size=(size, size, 3)).astype(np.float32)
    return img


def _attributes_for(kind: str, rng: np.random.Generator) -> tuple[int, int]:
    if kind in MULTICLASS_KINDS:
        k = MULTICLASS_KINDS.index(kind)
        return k >> 1, k & 1
    if kind == "aligned":
        axis = int(rng.integers(0, 2))
        return axis, axis
    if kind == "crossed":
        axis = int(rng.integers(0, 2))
        return axis, 1 - axis
    raise ConfigError(f"unknown synthetic image kind {kind!r}")


def generate_image(kind: str, size: int, seed: int, index: int, palette: str = "base") -> Array:
    """One uint8 [H,W,3] image of the given kind, deterministic in (seed, index)."""
    if palette not in ("base", "alt"):
        raise ConfigError(f"unknown palette {palette!r}")
    rng = np.random.default_rng([seed, index])
    axis, tone = _attributes_for(kind, rng)
    img = _attribute_image(rng, size, axis, tone, palette)
    img += rng.uniform(-15.0, 15.0)  # global brightness jitter
    return np.clip(np.round(img), 0, 255).astype(np.uint8)


def _task_kinds(task: str) -> tuple[str, ...]:
    """The kinds a task cycles through; index i has label i % len(kinds)."""
    kinds = {"binary": BINARY_KINDS, "multiclass": MULTICLASS_KINDS}.get(task)
    if kinds is None:
        raise ConfigError(f"unknown synthetic task {task!r}")
    return kinds


def _task_images(task: str, count: int, size: int, seed: int, palette: str):
    """(uint8 [H,W,3] image, label) for each index below count, in order.

    task 'binary' alternates aligned (0) / crossed (1); task 'multiclass'
    cycles the four attribute combinations.
    """
    kinds = _task_kinds(task)
    for i in range(count):
        label = i % len(kinds)
        yield generate_image(kinds[label], size, seed, i, palette=palette), label


def generate_arrays(
    task: str,
    count: int,
    size: int,
    seed: int,
    palette: str = "base",
) -> tuple[Array, Array]:
    """In-memory dataset: float32 squares [n,3,S,S] on 0..255 plus labels,
    the images and labels write_synthetic_dataset writes."""
    images = np.empty((count, 3, size, size), dtype=np.float32)
    labels = np.empty(count, dtype=np.int64)
    for i, (hwc, label) in enumerate(_task_images(task, count, size, seed, palette)):
        images[i] = hwc.transpose(2, 0, 1).astype(np.float32)
        labels[i] = label
    return images, labels


def write_synthetic_dataset(
    out_dir: str | Path,
    task: str,
    count: int,
    size: int,
    seed: int,
    k_folds: int | None = 5,
    palette: str = "base",
) -> Path:
    """Write PPM images plus a manifest (with stratified folds); returns its path.

    The task, count, size and folds are checked before any directory is made."""
    for name, value in (("count", count), ("size", size)):
        if value < 1:
            raise ConfigError(f"synthetic image {name} must be >= 1, got {value}")
    labels = np.arange(count) % len(_task_kinds(task))  # known before any image is drawn
    folds = None
    if k_folds is not None:
        try:
            folds = stratified_kfold(labels, k_folds, seed)
        except DataError as e:
            raise ConfigError(str(e)) from None
    out_dir = Path(out_dir)
    images_dir = out_dir / "images"
    images_dir.mkdir(parents=True, exist_ok=True)
    records: list[ManifestRecord] = []
    for i, (hwc, label) in enumerate(_task_images(task, count, size, seed, palette)):
        name = f"images/{task}_{i:05d}.ppm"
        write_ppm(out_dir / name, hwc)
        records.append(ManifestRecord(name, label))
    manifest = DatasetManifest(records=tuple(records), root=out_dir)
    if folds is not None:
        manifest = manifest.with_folds(folds)
    manifest_path = out_dir / "manifest.csv"
    save_manifest(manifest, manifest_path)
    return manifest_path
