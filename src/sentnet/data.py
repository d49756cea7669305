"""Dataset manifest, image codecs, preprocessing, views, and fold splits.

Images are decoded to float32 [3,H,W] tensors on the raw 0..255 scale and
squared once at decode time. A set whose squares are all whole bytes (any
8-bit image already at the working size) is held as uint8, a quarter of
the float32 bytes; any other set as float32. ViewSource.views cuts every
training, center and ten-crop view from those squares, as float32 batches
with the per-channel means subtracted; ten_crop returns an image set's ten
crops as one batch.
The only required codec is binary PPM (P6, 8-bit); a raw-tensor sidecar
holds pre-decoded images, and PNG/JPEG decode is available when Pillow is
installed.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .checkpoint import _read_data, _read_extents, _write_tensor
from .errors import CheckpointFormatError, ConfigError, DataError

log = logging.getLogger(__name__)

Array = np.ndarray

RAW_TENSOR_SUFFIX = ".rawt"

_LABEL_TOKENS = {"positive": 1, "negative": 0, "1": 1, "0": 0}


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label: int
    fold: int | None = None


@dataclass(frozen=True)
class DatasetManifest:
    """Parsed manifest plus the directory its relative paths resolve against."""

    records: tuple[ManifestRecord, ...]
    root: Path

    @property
    def labels(self) -> Array:
        return np.array([r.label for r in self.records], dtype=np.int64)

    @property
    def folds(self) -> Array | None:
        if any(r.fold is None for r in self.records):
            return None
        return np.array([r.fold for r in self.records], dtype=np.int64)

    def class_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for r in self.records:
            counts[r.label] = counts.get(r.label, 0) + 1
        return dict(sorted(counts.items()))

    def resolve(self, record: ManifestRecord) -> Path:
        p = Path(record.path)
        return p if p.is_absolute() else self.root / p

    def with_folds(self, folds: Sequence[int]) -> "DatasetManifest":
        if len(folds) != len(self.records):
            raise DataError(f"{len(folds)} fold ids for {len(self.records)} records")
        recs = tuple(
            ManifestRecord(r.path, r.label, int(f)) for r, f in zip(self.records, folds)
        )
        return DatasetManifest(records=recs, root=self.root)


def load_manifest(path: str | Path, allow_multiclass: bool = False) -> DatasetManifest:
    """Parse a CSV manifest with header path,label[,fold].

    Labels accept positive/negative/1/0; with allow_multiclass=True any
    token of decimal digits is accepted (used only for source-task
    pretraining data). Errors carry 1-based line numbers.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path}: unreadable manifest: {e}") from None
    if not rows:
        raise DataError(f"{path}: empty manifest")
    header = [h.strip().lower() for h in rows[0]]
    if header[:2] != ["path", "label"] or (len(header) > 2 and header[2] != "fold"):
        raise DataError(f"{path}: header must be path,label[,fold], got {header}")
    has_fold = len(header) > 2
    records: list[ManifestRecord] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        rec_path = row[0].strip()
        if not rec_path:
            raise DataError(f"{path}:{lineno}: empty image path")
        token = row[1].strip().lower()
        if token in _LABEL_TOKENS:
            label = _LABEL_TOKENS[token]
        elif allow_multiclass and token.isdecimal():
            label = int(token)
        else:
            raise DataError(f"{path}:{lineno}: bad label {row[1]!r}")
        fold: int | None = None
        if has_fold and row[2].strip():
            try:
                fold = int(row[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad fold {row[2]!r}") from None
            if fold < 0:
                raise DataError(f"{path}:{lineno}: negative fold {fold}")
        records.append(ManifestRecord(rec_path, label, fold))
    if not records:
        raise DataError(f"{path}: manifest has no records")
    manifest = DatasetManifest(records=tuple(records), root=path.parent)
    counts = manifest.class_counts()
    log.info(
        "manifest %s: %d records, per-class counts %s",
        path.name,
        len(records),
        " ".join(f"{k}:{v}" for k, v in counts.items()),
    )
    return manifest


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        has_fold = manifest.folds is not None
        writer.writerow(["path", "label", "fold"] if has_fold else ["path", "label"])
        for r in manifest.records:
            row = [r.path, str(r.label)]
            if has_fold:
                row.append(str(r.fold))
            writer.writerow(row)


# -- image codecs -----------------------------------------------------------


def read_ppm(path: str | Path) -> Array:
    """Binary PPM (P6, maxval 255) to uint8 [H,W,3]."""
    data = Path(path).read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated PPM header")
        return data[start:pos]

    if token() != b"P6":
        raise DataError(f"{path}: not a binary PPM (P6) file")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise DataError(f"{path}: malformed PPM header") from None
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit PPM supported, maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height * 3
    raw = data[pos : pos + expected]
    if len(raw) != expected:
        raise DataError(f"{path}: PPM payload has {len(raw)} bytes, expected {expected}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path: str | Path, image: Array) -> None:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise DataError(f"write_ppm expects [H,W,3], got {image.shape}")
    if image.dtype != np.uint8:
        image = np.clip(np.round(image), 0, 255).astype(np.uint8)
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(image.tobytes())


def write_raw_tensor(path: str | Path, tensor: Array) -> None:
    """Sidecar format: one checkpoint tensor, i.e. rank u8, extents u64 LE,
    float32 LE payload."""
    with open(path, "wb") as f:
        _write_tensor(f, tensor)


def read_raw_tensor(path: str | Path) -> Array:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size == 0:
            raise DataError(f"{path}: empty raw tensor file")
        try:
            extents = _read_extents(f, "raw tensor")
            if size - f.tell() != 4 * math.prod(extents):
                raise DataError(f"{path}: raw tensor payload size mismatch")
            return _read_data(f, extents, "raw tensor")
        except CheckpointFormatError:
            raise DataError(f"{path}: malformed raw tensor header") from None


def load_image(path: str | Path) -> Array:
    """Decode one image file to float32 [3,H,W] on the 0..255 scale.

    An image without pixels (zero width or height) is rejected.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ppm":
        chw = np.ascontiguousarray(read_ppm(path).transpose(2, 0, 1)).astype(np.float32)
    elif suffix == RAW_TENSOR_SUFFIX:
        chw = read_raw_tensor(path)
        if chw.ndim != 3 or chw.shape[0] != 3:
            raise DataError(f"{path}: raw tensor image must be [3,H,W], got {chw.shape}")
    elif suffix in (".png", ".jpg", ".jpeg"):
        try:
            from PIL import Image
        except ImportError:
            raise DataError(
                f"{path}: decoding {suffix} needs the optional Pillow dependency "
                "(pip install sentnet[images])"
            ) from None
        with Image.open(path) as im:
            rgb = np.asarray(im.convert("RGB"))
        chw = np.ascontiguousarray(rgb.transpose(2, 0, 1)).astype(np.float32)
    else:
        raise DataError(f"{path}: unsupported image format {suffix!r}")
    if not chw.size:
        raise DataError(f"{path}: image has no pixels ({chw.shape[1]}x{chw.shape[2]})")
    return chw


# -- geometry ---------------------------------------------------------------


def resize_bilinear(image: Array, out_h: int, out_w: int) -> Array:
    """Bilinear resample of [3,H,W] with half-pixel-centered sampling."""
    image = np.asarray(image, dtype=np.float32)
    c, h, w = image.shape
    if out_h < 1 or out_w < 1:
        raise DataError(f"resize target {out_h}x{out_w} invalid")
    if (h, w) == (out_h, out_w):
        return image.copy()

    def axis_coords(n_in: int, n_out: int) -> tuple[Array, Array, Array]:
        scale = n_in / n_out
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * scale - 0.5
        src = np.clip(src, 0, n_in - 1)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = (src - lo).astype(np.float32)
        return lo, hi, frac

    ylo, yhi, yf = axis_coords(h, out_h)
    xlo, xhi, xf = axis_coords(w, out_w)
    top = image[:, ylo][:, :, xlo] * (1 - xf) + image[:, ylo][:, :, xhi] * xf
    bot = image[:, yhi][:, :, xlo] * (1 - xf) + image[:, yhi][:, :, xhi] * xf
    return (top * (1 - yf[None, :, None]) + bot * yf[None, :, None]).astype(np.float32)


def resize_shorter_side(image: Array, target: int) -> Array:
    c, h, w = image.shape
    if h <= w:
        out_h = target
        out_w = max(1, round(w * target / h))
    else:
        out_w = target
        out_h = max(1, round(h * target / w))
    return resize_bilinear(image, out_h, out_w)


def center_square(image: Array, side: int) -> Array:
    c, h, w = image.shape
    if side > h or side > w:
        raise DataError(f"cannot crop {side} square from {h}x{w} image")
    top = (h - side) // 2
    left = (w - side) // 2
    return image[:, top : top + side, left : left + side]


# -- preprocessing ----------------------------------------------------------


@dataclass(frozen=True)
class PreprocessConfig:
    """Square working size, final crop, and optional fixed channel means."""

    resize_to: int = 256
    crop: int = 227
    channel_means: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.resize_to < 1 or self.crop < 1:
            raise ConfigError(f"invalid sizes resize_to={self.resize_to} crop={self.crop}")
        if self.crop > self.resize_to:
            raise ConfigError(f"crop {self.crop} exceeds resize_to {self.resize_to}")


def to_square(image: Array, config: PreprocessConfig) -> Array:
    """Resize the shorter side to resize_to, then take the center square."""
    return center_square(resize_shorter_side(image, config.resize_to), config.resize_to)


# -- channel means ----------------------------------------------------------


def compute_channel_means(squares: Iterable[Array]) -> Array:
    """Per-channel scalar means over a collection of [3,S,S] images, summed
    in float64. Whole numbers sum exactly there, so uint8 images give the
    bits of the same images as float32."""
    total = np.zeros(3, dtype=np.float64)
    count = 0
    for img in squares:
        total += img.reshape(3, -1).sum(axis=1, dtype=np.float64)
        count += img.shape[1] * img.shape[2]
    if count == 0:
        raise DataError("cannot compute channel means of an empty image set")
    return (total / count).astype(np.float32)


def write_means(path: str | Path, means: Array) -> None:
    means = np.asarray(means, dtype=np.float32)
    if means.shape != (3,):
        raise DataError(f"means must have shape (3,), got {means.shape}")
    Path(path).write_text("".join(f"{float(m)!r}\n" for m in means), encoding="utf-8")


def read_means(path: str | Path) -> Array:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: unreadable means file: {e}") from None
    lines = [l for l in text.splitlines() if l.strip()]
    if len(lines) != 3:
        raise DataError(f"{path}: means file must hold three values, found {len(lines)}")
    try:
        values = [float(l) for l in lines]
    except ValueError:
        raise DataError(f"{path}: malformed means file") from None
    with np.errstate(over="ignore"):  # beyond float32's range casts to inf, rejected below
        means = np.array(values, dtype=np.float32)
    if not np.isfinite(means).all():
        raise DataError(f"{path}: means file holds a non-finite value")
    return means


# -- folds ------------------------------------------------------------------


def stratified_kfold(labels: Array, k: int, seed: int) -> Array:
    """Deterministic stratified fold assignment; returns fold ids [n].

    Each class is shuffled with the seed and dealt round-robin, so per-class
    fold counts differ by at most one.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise DataError(f"need at least 2 folds, got {k}")
    rng = np.random.default_rng(seed)
    folds = np.full(len(labels), -1, dtype=np.int64)
    for cls in sorted(set(labels.tolist())):  # np.unique would import numpy.ma
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k:
            raise DataError(f"class {cls} has {len(idx)} samples, fewer than k={k}")
        idx = rng.permutation(idx)
        folds[idx] = np.arange(len(idx)) % k
    return folds


# -- views -----------------------------------------------------------------

EVAL_BATCH = 64  # center views per plain forward pass; it sets the FC rows' bits (README "Evaluation")


class ViewSource:
    """BatchSource over pre-decoded square images, kept as given when uint8
    and as float32 otherwise.

    views() cuts every view the network sees: seeded random crops and flips
    for training batches, center crops for eval batches, and the ten crops
    of oversampling. Mean subtraction happens at view time. With `rows`,
    the source is those rows of squares and labels, in that order, read
    through the index and never copied (a fold's split of a shared set).
    """

    def __init__(
        self, squares: Array, labels: Array, crop: int, means: Array | None = None,
        rows: Sequence[int] | None = None,
    ):
        squares = np.asarray(squares)
        if squares.dtype != np.uint8:
            squares = squares.astype(np.float32, copy=False)
        labels = np.asarray(labels, dtype=np.int64)
        if squares.ndim != 4 or squares.shape[1] != 3:
            raise DataError(f"squares must be [n,3,S,S], got {squares.shape}")
        if len(labels) != len(squares):
            raise DataError(f"{len(labels)} labels for {len(squares)} images")
        side = squares.shape[2]
        if squares.shape[3] != side:
            raise DataError(f"images must be square, got {squares.shape}")
        if crop > side:
            raise DataError(f"crop {crop} exceeds image side {side}")
        self.squares = squares
        self.rows = np.arange(len(squares)) if rows is None else np.asarray(rows, dtype=np.int64)
        self.labels = labels[self.rows]
        self.crop = crop
        self.slack = side - crop  # the largest crop offset
        self.center = self.slack // 2  # the center crop's top and left
        self.means = None if means is None else np.asarray(means, dtype=np.float32)

    @property
    def n(self) -> int:
        return len(self.rows)

    def views(self, indices: Sequence[int], tops: Sequence[int], lefts: Sequence[int], flips: Sequence[bool]) -> Array:
        """The crop at (top, left) of each image, column-reversed where flip is
        set, minus the channel means: float32 [len(indices), 3, crop, crop]."""
        c = self.crop
        out = np.empty((len(indices), 3, c, c), dtype=np.float32)
        for row, (i, top, left, flip) in enumerate(zip(self.rows[indices], tops, lefts, flips)):
            view = self.squares[i, :, top : top + c, left : left + c]
            out[row] = view[:, :, ::-1] if flip else view
        if self.means is not None:
            out -= self.means.reshape(1, 3, 1, 1)
        return out

    def train_batch(self, indices: Array, rng: np.random.Generator) -> tuple[Array, Array]:
        tops = rng.integers(0, self.slack + 1, size=len(indices))
        lefts = rng.integers(0, self.slack + 1, size=len(indices))
        flips = rng.integers(0, 2, size=len(indices))
        return self.views(indices, tops, lefts, flips), self.labels[indices]

    def eval_batches(self, batch_size: int = EVAL_BATCH):
        for start in range(0, self.n, batch_size):
            idx = np.arange(start, min(start + batch_size, self.n))
            offsets = np.full(len(idx), self.center)
            yield self.views(idx, offsets, offsets, np.zeros(len(idx), dtype=bool)), self.labels[idx]


TEN_CROP_CENTER = 4  # the unmirrored center crop's place among an image's ten


def ten_crop(source: ViewSource, indices: Sequence[int]) -> Array:
    """Ten views of each image as one batch [len(indices)·10, 3, crop, crop].

    Per image the order is fixed: tl, tr, bl, br, center, then the same five
    column-reversed.
    """
    last, mid = source.slack, source.center
    tops = np.array([0, 0, last, last, mid] * 2)
    lefts = np.array([0, last, 0, last, mid] * 2)
    flips = np.repeat([False, True], 5)
    n = len(indices)
    return source.views(np.repeat(indices, 10), np.tile(tops, n), np.tile(lefts, n), np.tile(flips, n))


def _whole_bytes(square: Array) -> bool:
    """Whether every value is in [0, 255] and keeps its float32 bits through
    uint8: no fraction, -0.0, NaN or value above 255."""
    if not ((square >= 0) & (square <= 255)).all():
        return False
    return np.array_equal(square.astype(np.uint8).astype(np.float32).view(np.uint32), square.view(np.uint32))


def decode_squares(manifest: DatasetManifest, config: PreprocessConfig) -> Array:
    """Decode and square every manifest image: [n,3,S,S], uint8 when every
    square is whole bytes, else float32. The first square that is not turns
    the set into float32, the squares before it cast exactly."""
    out = np.empty((len(manifest.records), 3, config.resize_to, config.resize_to), dtype=np.uint8)
    for i, rec in enumerate(manifest.records):
        square = to_square(load_image(manifest.resolve(rec)), config)
        if out.dtype == np.uint8 and not _whole_bytes(square):
            out = out.astype(np.float32)
        out[i] = square
    return out
