"""Flat binary container for named float64 and int64 arrays.

One format serves training checkpoints (float64 parameter arrays) and
split snapshots (int64 sample arrays and scalars, see
`data.save_splits`): little-endian, record-per-array, no compression
and no timestamps, so identical inputs always produce identical bytes.

    magic "MISSARR2\\n"
    u32 record count
    per record: u16 name length, name (utf-8), u8 dtype code
                (0 float64, 1 int64), u8 ndim, ndim x u64 dims,
                row-major payload (8 bytes per element)

A 0-d array is a record with ndim 0 and one element.  The reader
streams each payload straight into its own array and raises a one-line
FormatError naming the path on any input that is not such a file.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"MISSARR2\n"
DTYPES = (np.dtype("<f8"), np.dtype("<i8"))  # indexed by the record's dtype code


def save_arrays(path: str, arrays: dict[str, np.ndarray]) -> None:
    """Integer arrays are stored as int64, everything else as float64."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            a = np.asarray(arr)
            code = int(np.issubdtype(a.dtype, np.integer))
            a = np.asarray(a, dtype=DTYPES[code], order="C")  # 0-d stays 0-d
            raw = name.encode("utf-8")
            fh.write(struct.pack(f"<H{len(raw)}sBB{a.ndim}Q", len(raw), raw, code, a.ndim, *a.shape))
            fh.write(a.data)


def load_arrays(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(fmt: str) -> tuple:
            n = struct.calcsize(fmt)
            raw = fh.read(n)
            if len(raw) != n:
                raise FormatError(f"{path}: truncated container")
            return struct.unpack(fmt, raw)

        if fh.read(len(MAGIC)) != MAGIC:
            raise FormatError(f"{path}: bad magic, not an array container")
        (count,) = take("<I")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = take("<H")
            (raw,) = take(f"{nlen}s")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: record name {raw!r} is not UTF-8") from None
            if name in out:
                raise FormatError(f"{path}: duplicate record {name!r}")
            code, ndim = take("<BB")
            if code >= len(DTYPES):
                raise FormatError(f"{path}: record {name!r} has unknown dtype code {code}")
            shape = take(f"<{ndim}Q")
            if 8 * math.prod(shape) > size - fh.tell():
                raise FormatError(f"{path}: truncated payload for {name!r}")
            try:
                arr = np.empty(shape, dtype=DTYPES[code])
            except ValueError:  # an empty shape with a dim past numpy's limits
                raise FormatError(f"{path}: record {name!r} has dims {shape} out of range") from None
            if fh.readinto(arr) != arr.nbytes:
                raise FormatError(f"{path}: truncated payload for {name!r}")
            out[name] = arr
        if fh.tell() != size:
            raise FormatError(f"{path}: {size - fh.tell()} trailing bytes")
    return out
