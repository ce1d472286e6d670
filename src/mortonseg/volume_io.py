"""Single-volume file format: JSON header, NUL fence, raw buffer.

Layout: one UTF-8 JSON object on the first line holding dims, dtype
("f32" or "u8"), spacing and a free-form name, terminated by b"\\n\\x00",
followed by exactly prod(dims) scalars little-endian in row-major order.
Reads validate the fence, the header fields, the dtype tag and the byte
count, so truncated or foreign files fail loudly, always as
VolumeFormatError, instead of yielding partial data.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

_FENCE = b"\n\x00"
_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


class VolumeFormatError(IOError):
    pass


def write_volume(path, volume: np.ndarray, spacing=(1.0, 1.0, 1.0),
                 name: str = "") -> None:
    volume = np.asarray(volume)
    if volume.ndim != 3:
        raise VolumeFormatError(f"expected a 3-D volume, got {volume.shape}")
    if volume.dtype == np.uint8:
        tag = "u8"
    elif volume.dtype in (np.float32, np.dtype("<f4")):
        tag = "f32"
    else:
        raise VolumeFormatError(f"unsupported dtype {volume.dtype}; "
                                "convert to f32 or u8 first")
    header = json.dumps({
        "dims": list(volume.shape), "dtype": tag,
        "spacing": [float(s) for s in spacing], "name": name},
        sort_keys=True).encode()
    buf = np.ascontiguousarray(volume, dtype=_DTYPES[tag]).tobytes()
    Path(path).write_bytes(header + _FENCE + buf)


def read_volume(path) -> tuple[np.ndarray, dict]:
    raw = Path(path).read_bytes()
    cut = raw.find(_FENCE)
    if cut < 0:
        raise VolumeFormatError(f"{path}: missing header fence")
    try:
        meta = json.loads(raw[:cut].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise VolumeFormatError(f"{path}: bad header ({e})") from None
    if not isinstance(meta, dict):
        raise VolumeFormatError(f"{path}: header is not a JSON object")
    for key in ("dims", "dtype", "spacing", "name"):
        if key not in meta:
            raise VolumeFormatError(f"{path}: header lacks '{key}'")
    dt = _DTYPES.get(meta["dtype"]) if isinstance(meta["dtype"], str) else None
    if dt is None:
        raise VolumeFormatError(f"{path}: unknown dtype tag {meta['dtype']!r}")
    dims = meta["dims"]
    if not (isinstance(dims, list) and len(dims) == 3
            and all(type(d) is int and d >= 0 for d in dims)):
        raise VolumeFormatError(f"{path}: dims {dims!r} are not three "
                                "non-negative integers")
    # numpy refuses any shape whose nonzero extents overflow intp bytes,
    # even one that holds no element
    if math.prod(d for d in dims if d) * dt.itemsize > np.iinfo(np.intp).max:
        raise VolumeFormatError(f"{path}: dims {dims!r} exceed the "
                                "address space")
    body = raw[cut + len(_FENCE):]
    expected = math.prod(dims) * dt.itemsize
    if len(body) != expected:
        raise VolumeFormatError(
            f"{path}: buffer holds {len(body)} bytes, header implies "
            f"{expected}")
    vol = np.frombuffer(body, dtype=dt).reshape(dims)
    return vol.copy(), meta
