"""File formats used at the tool boundary.

Latent snapshots: a 16-byte header -- the magic ``b"LSN1"`` followed by rows,
cols and step as little-endian uint32 -- then the row-major float64
little-endian payload. Vectors are stored with rows = 1 and read back as a
(1, n) grid.

Masks travel as binary PGM (magic P5, maxval exactly 255). CSV output is
UTF-8 with a header row; floats are serialised with repr so they round-trip
to the exact double.

Every writer fills a temp file beside its target (``<name>.tmp``) and moves
it into place with ``os.replace`` only once it is complete, so a failed write
leaves no partial file: the target keeps whatever it held before.
"""

from __future__ import annotations

import contextlib
import csv
import os
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "SNAPSHOT_MAGIC",
    "write_snapshot",
    "read_snapshot",
    "read_pgm",
    "write_pgm",
    "write_csv",
    "format_cell",
]

SNAPSHOT_MAGIC = b"LSN1"
_HEADER = struct.Struct("<4sIII")


@contextlib.contextmanager
def _replacing(path, mode: str = "wb", **kwargs):
    """A file open on ``<path>.tmp`` that replaces ``path`` once closed; on failure it is removed."""
    path = Path(path)
    temp = path.with_name(f"{path.name}.tmp")
    try:
        with temp.open(mode, **kwargs) as fh:
            yield fh
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def write_snapshot(path, values, step: int) -> None:
    """Write one latent to the binary snapshot format."""
    # a C-ordered little-endian float64 latent is written from its own buffer
    arr = np.asarray(values, dtype="<f8", order="C")
    if arr.ndim == 1:
        rows, cols = 1, arr.shape[0]
    elif arr.ndim == 2:
        rows, cols = arr.shape
    else:
        raise ValueError("snapshots hold 1-D or 2-D latents only")
    if step < 0:
        raise ValueError("step must be non-negative")
    with _replacing(path) as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, rows, cols, step))
        fh.write(arr)


def read_snapshot(path) -> tuple[np.ndarray, int]:
    """Read a binary snapshot back as a (rows, cols) grid plus its step index."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError("snapshot file shorter than its header")
    magic, rows, cols, step = _HEADER.unpack_from(blob)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"bad snapshot magic {magic!r}")
    expected = _HEADER.size + rows * cols * 8
    if len(blob) != expected:
        raise ValueError(f"snapshot payload is {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(rows, cols)
    return values.astype(np.float64), int(step)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) as a uint8 grid of shape (H, W)."""
    blob = Path(path).read_bytes()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(blob):
            raise ValueError("truncated PGM header")
        byte = blob[pos : pos + 1]
        if byte.isspace():
            pos += 1
        elif byte == b"#":
            while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos : pos + 1].isspace():
                pos += 1
            tokens.append(blob[start:pos])
    if tokens[0] != b"P5":
        raise ValueError(f"bad PGM magic {tokens[0]!r}; only binary P5 is supported")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise ValueError("non-numeric PGM dimensions") from exc
    if width < 1 or height < 1:
        raise ValueError(f"bad PGM dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"PGM maxval must be 255, got {maxval}")
    pos += 1  # single whitespace byte separates the header from the payload
    payload = blob[pos:]
    if len(payload) != width * height:
        raise ValueError(f"PGM payload is {len(payload)} bytes, expected {width * height}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path, gray) -> None:
    """Write a uint8 grid as binary PGM with maxval 255."""
    arr = np.asarray(gray)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("PGM output requires a non-empty 2-D grid")
    if arr.dtype != np.uint8:
        if np.any(arr < 0) or np.any(arr > 255):
            raise ValueError("grayscale values must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    height, width = arr.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    with _replacing(path) as fh:
        fh.write(header + arr.tobytes(order="C"))


def format_cell(value) -> str:
    """CSV cell text: floats via repr (round-trip exact), everything else via str."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# csv.writer writes exact floats with repr and exact ints and strs with str,
# the text format_cell gives them, so rows holding only these types skip it.
# Subclasses do not qualify: bool prints as True and np.float64 reprs as
# np.float64(...).
_NATIVE_CELL_TYPES = frozenset((int, float, str))


def write_csv(path, header, rows) -> None:
    """Write a UTF-8 CSV with a header row and full-precision numeric cells."""
    with _replacing(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            if _NATIVE_CELL_TYPES.issuperset(map(type, row)):
                writer.writerow(row)
            else:
                writer.writerow([format_cell(cell) for cell in row])
