"""Binary checkpoint serialization.

Layout, all integers little-endian:

    magic "NSRG" | version u32 | entry_count u32
    per entry:  name_len u16 | name utf-8 | tensor_count u8
    per tensor: rank u8 | extents u64[rank] | float32 data
    trailer:    meta_len u32 | utf-8 "key=value\\n" lines

Round trips are bit-identical: tensors are stored as raw little-endian
float32 and metadata keys are written sorted.

Tensors stream between their own buffers and the file: a save writes each
array's memory straight to the file and a load reads into a preallocated
array, so neither holds a second copy of the model. A save writes a
sibling ``<name>.tmp`` and renames it into place, so a failed save leaves
any earlier file at the path untouched. A load checks every tensor's
extents against the bytes left in the file before allocating it.
`read_checkpoint_header` parses the same way but seeks over every payload,
so it checks a file's shapes and metadata without reading its tensors.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Mapping, TypeVar

import numpy as np

from .errors import (
    CheckpointFormatError,
    CheckpointMismatchError,
    CheckpointTruncatedError,
)

MAGIC = b"NSRG"
VERSION = 1

Array = np.ndarray
Shapes = Mapping[str, tuple[tuple[int, ...], tuple[int, ...]]]
T = TypeVar("T")


def _validate_shapes(found: Shapes, shapes: Shapes) -> None:
    """Check entry names and tensor shapes against a spec's parameter table."""
    missing = sorted(set(shapes) - set(found))
    if missing:
        raise CheckpointMismatchError(f"checkpoint is missing entries for {missing}")
    extra = sorted(set(found) - set(shapes))
    if extra:
        raise CheckpointMismatchError(f"checkpoint has entries for unknown layers {extra}")
    for name, (w_shape, b_shape) in shapes.items():
        w, b = found[name]
        if w != w_shape or b != b_shape:
            raise CheckpointMismatchError(
                f"{name}: checkpoint tensors {w}/{b} do not match spec {w_shape}/{b_shape}"
            )


@dataclass
class Checkpoint:
    """Named (weights, bias) tensor pairs plus string metadata."""

    entries: dict[str, tuple[Array, Array]]
    metadata: dict[str, str] = field(default_factory=dict)

    def copy(self) -> "Checkpoint":
        return Checkpoint(
            entries={k: (w.copy(), b.copy()) for k, (w, b) in self.entries.items()},
            metadata=dict(self.metadata),
        )

    def num_parameters(self) -> int:
        return sum(w.size + b.size for w, b in self.entries.values())

    def validate_against(self, shapes: Shapes) -> None:
        """Check entry names and tensor shapes against a spec's parameter table."""
        _validate_shapes({k: (tuple(w.shape), tuple(b.shape)) for k, (w, b) in self.entries.items()}, shapes)


@dataclass
class CheckpointHeader:
    """A checkpoint's entry names, tensor shapes and metadata, without its tensors."""

    shapes: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]
    metadata: dict[str, str]

    def validate_against(self, shapes: Shapes) -> None:
        """Check entry names and tensor shapes against a spec's parameter table."""
        _validate_shapes(self.shapes, shapes)


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointTruncatedError(f"truncated checkpoint while reading {what}")
    return data


def _read_text(f: BinaryIO, n: int, what: str) -> str:
    try:
        return _read_exact(f, n, what).decode("utf-8")
    except UnicodeDecodeError as e:
        raise CheckpointFormatError(f"{what} is not UTF-8: byte {e.start} of {n}") from None


def _bytes_of(arr: Array) -> memoryview:
    """Flat byte view of a C-contiguous array's memory (no copy)."""
    return memoryview(arr.reshape(-1)).cast("B")


def _write_tensor(f: BinaryIO, arr: Array) -> None:
    """rank u8 | extents u64[rank] | float32 LE data, streamed from arr's memory."""
    arr = np.ascontiguousarray(arr, dtype="<f4")
    f.write(struct.pack("<B", arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    f.write(_bytes_of(arr))


def _read_extents(f: BinaryIO, what: str) -> tuple[int, ...]:
    """A tensor header: the extents, with rank >= 1."""
    (rank,) = struct.unpack("<B", _read_exact(f, 1, f"{what} rank"))
    if rank == 0:
        raise CheckpointFormatError(f"{what}: zero-rank tensor")
    return struct.unpack(f"<{rank}Q", _read_exact(f, 8 * rank, f"{what} extents"))


def _payload_bytes(f: BinaryIO, extents: tuple[int, ...], what: str) -> int:
    """A tensor's payload size, checked before anything is allocated: against
    the bytes left in the file, so a corrupt header cannot ask for an
    allocation the file could never fill, and against numpy's limits."""
    nbytes = 4 * math.prod(extents)
    if nbytes > os.fstat(f.fileno()).st_size - f.tell():
        raise CheckpointTruncatedError(f"truncated checkpoint while reading {what} data")
    try:
        np.broadcast_to(np.float32(0), extents)  # the shape alone, without memory
    except ValueError:  # e.g. (2**63, 0): no bytes, but beyond numpy's limits
        raise CheckpointFormatError(f"{what}: extents {extents} do not form a tensor") from None
    return nbytes


def _read_data(f: BinaryIO, extents: tuple[int, ...], what: str) -> Array:
    """The float32 payload of a tensor, read into a fresh array."""
    nbytes = _payload_bytes(f, extents, what)
    arr = np.empty(extents, dtype="<f4")
    if f.readinto(_bytes_of(arr)) != nbytes:
        raise CheckpointTruncatedError(f"truncated checkpoint while reading {what} data")
    return arr.astype(np.float32, copy=False)


def _read_tensor(f: BinaryIO, what: str) -> Array:
    return _read_data(f, _read_extents(f, what), what)


def _skip_tensor(f: BinaryIO, what: str) -> tuple[int, ...]:
    """A tensor's shape, checked as `_read_tensor` checks it; its payload is skipped."""
    extents = _read_extents(f, what)
    f.seek(_payload_bytes(f, extents, what), os.SEEK_CUR)
    return extents


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<I", len(ckpt.entries)))
            for name, tensors in ckpt.entries.items():
                encoded = name.encode("utf-8")
                f.write(struct.pack("<H", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<B", len(tensors)))
                for arr in tensors:
                    _write_tensor(f, arr)
            meta_text = "".join(f"{k}={ckpt.metadata[k]}\n" for k in sorted(ckpt.metadata))
            meta_bytes = meta_text.encode("utf-8")
            f.write(struct.pack("<I", len(meta_bytes)))
            f.write(meta_bytes)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse(
    path: str | Path, tensor: Callable[[BinaryIO, str], T]
) -> tuple[dict[str, tuple[T, T]], dict[str, str]]:
    """Entries (each tensor as `tensor` reads it) and metadata of a checkpoint file."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != MAGIC:
            raise CheckpointFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        (n_entries,) = struct.unpack("<I", _read_exact(f, 4, "entry count"))
        entries: dict[str, tuple[T, T]] = {}
        for i in range(n_entries):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "name length"))
            name = _read_text(f, name_len, "name")
            (n_tensors,) = struct.unpack("<B", _read_exact(f, 1, f"{name} tensor count"))
            if n_tensors != 2:
                raise CheckpointFormatError(f"{name}: expected 2 tensors, found {n_tensors}")
            w = tensor(f, f"{name} weights")
            b = tensor(f, f"{name} bias")
            if name in entries:
                raise CheckpointFormatError(f"duplicate entry {name!r}")
            entries[name] = (w, b)
        (meta_len,) = struct.unpack("<I", _read_exact(f, 4, "metadata length"))
        meta_raw = _read_text(f, meta_len, "metadata")
        if f.read(1):
            raise CheckpointFormatError("trailing bytes after metadata block")
    metadata: dict[str, str] = {}
    for line in meta_raw.splitlines():
        if not line:
            continue
        if "=" not in line:
            raise CheckpointFormatError(f"malformed metadata line {line!r}")
        key, _, value = line.partition("=")
        metadata[key] = value
    return entries, metadata


def load_checkpoint(path: str | Path, spec=None) -> Checkpoint:
    """Read a checkpoint; with a spec, also validate names and shapes."""
    ckpt = Checkpoint(*_parse(path, _read_tensor))
    if spec is not None:
        from .network import parameter_shapes

        ckpt.validate_against(parameter_shapes(spec))
    return ckpt


def read_checkpoint_header(path: str | Path) -> CheckpointHeader:
    """A checkpoint's shapes and metadata, checked as `load_checkpoint` checks
    the file, without reading any tensor's payload."""
    return CheckpointHeader(*_parse(path, _skip_tensor))
