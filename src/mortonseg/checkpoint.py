"""Checkpoint container: named float32 arrays in one binary file.

Layout (all integers little-endian):

    magic  b"MSEG"
    u32    format version (currently 1)
    u32    entry count
    entry* u32 name length, name utf-8,
           u32 ndim, u32 extent per axis,
           raw little-endian f32 buffer (prod(extents) values)

Entries are written in sorted name order, so identical state produces
byte-identical files. Readers validate magic, version and every length,
failing on truncation instead of returning partial state.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"MSEG"
VERSION = 1


class CheckpointError(IOError):
    pass


def save_checkpoint(path, entries: dict) -> None:
    """Write entries to path, each straight from its array's buffer."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(entries)))
        for name in sorted(entries):
            arr = np.ascontiguousarray(entries[name], dtype="<f4")
            nb = name.encode()
            fh.write(struct.pack(f"<I{len(nb)}sI{arr.ndim}I", len(nb), nb,
                                 arr.ndim, *arr.shape))
            fh.write(arr.data)


def load_checkpoint(path) -> dict:
    """Read entries from path, each straight into its own array.

    Every length is checked against the file's size before anything of
    that length is allocated or read.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        off = 0

        def need(n):
            if off + n > size:
                raise CheckpointError(f"{path}: truncated at byte {off}")

        def take(n, buf=None):
            """The next n bytes, read into buf if one is given."""
            nonlocal off
            need(n)
            buf = bytearray(n) if buf is None else buf
            if fh.readinto(buf) != n:  # the file shrank since fstat
                raise CheckpointError(f"{path}: truncated at byte {off}")
            off += n
            return buf

        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        off = 4
        version, count = struct.unpack("<II", take(8))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        entries = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4))
            try:
                name = take(name_len).decode()
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"{path}: entry name at byte {off - name_len} is not utf-8"
                ) from None
            (ndim,) = struct.unpack("<I", take(4))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            n = math.prod(shape)  # exact, where an int64 product would wrap
            # numpy refuses any shape whose nonzero extents overflow intp
            # bytes, even one that holds no element
            if math.prod(d for d in shape if d) * 4 > np.iinfo(np.intp).max:
                raise CheckpointError(
                    f"{path}: entry '{name}' extents {shape} exceed the "
                    "address space")
            need(4 * n)  # before allocating what the file does not hold
            arr = np.empty(shape, dtype="<f4")
            take(4 * n, arr.reshape(-1).view(np.uint8))
            entries[name] = arr
    if off != size:
        raise CheckpointError(f"{path}: {size - off} trailing bytes")
    return entries
