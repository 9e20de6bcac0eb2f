"""Binary dump format for scalar fields on periodic grids.

Layout: a 32-byte header followed by the payload.

* bytes 0-7    magic ``b"BLFIELD1"``
* bytes 8-11   ``uint32`` spatial dimension d (1, 2 or 3)
* bytes 12-23  three ``uint32`` per-axis cell counts (unused axes store 1)
* bytes 24-31  reserved, zero
* payload      row-major (C-order) ``float64``, little-endian, one value
               per cell

Everything is little-endian.  The format carries no coefficient semantics;
readers validate the header as laid out above, shape and finiteness only.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"BLFIELD1"
HEADER_BYTES = 32
_HEADER_FMT = "<8s4I8x"  # magic, d, n0, n1, n2, 8 reserved bytes


def write_field_dump(path: str | Path, values: np.ndarray, n: tuple[int, ...]) -> None:
    """Write a flat cell array with grid shape ``n`` to ``path``."""
    n = tuple(int(v) for v in n)
    d = len(n)
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    arr = np.ascontiguousarray(values, dtype="<f8").ravel()
    if arr.size != math.prod(n):
        raise ValueError(f"payload size {arr.size} does not match shape {n}")
    padded = n + (1,) * (3 - d)
    header = struct.pack(_HEADER_FMT, MAGIC, d, *padded)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def read_field_dump(path: str | Path) -> tuple[np.ndarray, tuple[int, ...]]:
    """Read a field dump; returns ``(flat_values, n)``."""
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_BYTES:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, d, n0, n1, n2 = struct.unpack(_HEADER_FMT, raw[:HEADER_BYTES])
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if d not in (1, 2, 3):
        raise ValueError(f"{path}: bad dimension {d}")
    n = (n0, n1, n2)[:d]
    if any(v < 1 for v in n):
        raise ValueError(f"{path}: bad cell counts {n}")
    if any(v != 1 for v in (n0, n1, n2)[d:]):
        raise ValueError(f"{path}: unused axes must store 1, got counts {(n0, n1, n2)}")
    if any(raw[24:HEADER_BYTES]):
        raise ValueError(f"{path}: reserved header bytes 24-31 are not zero")
    count = math.prod(n)  # exact: np.prod wraps int64
    expected = HEADER_BYTES + 8 * count
    if len(raw) != expected:
        raise ValueError(
            f"{path}: payload size mismatch (have {len(raw)} bytes, "
            f"header implies {expected})"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=HEADER_BYTES, count=count)
    values = np.array(values, dtype=np.float64)  # own, native-endian copy
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: payload contains non-finite values")
    return values, n
