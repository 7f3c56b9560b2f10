"""File formats: the binary container of models and measurements, and CSV.

Container layout (all integers little-endian):

====== ======= ====================================================
offset size    field
====== ======= ====================================================
0      8       magic ``b"MMPINH1\\0"``
8      1       payload kind: 3 model, 4 measurements
9      1       directionality: 0 unidirectional, 1 bidirectional
10     2       reserved (zero)
12     4       T (rows / measurement count), uint32
16     4       N (scene points), uint32
20     4       reserved (zero)
24     16      config fingerprint, ASCII hex
40     32      sha256 of the payload
72     ...     payload
====== ======= ====================================================

Both kinds share this layout; only the payload's element type differs.  The
model ``B`` (T x N) is row-major complex128 (re/im float64 pairs), 16 T N
bytes, so it reads back bit for bit.  The measurements ``y`` (T) are
complex64 (re/im float32 pairs), 8 T bytes; finite values beyond the float32
range raise ``NumericError`` before the file is opened.  A file whose
payload length disagrees with its header raises ``ShapeError``; one whose
payload disagrees with its digest raises ``DataFileError``; one with
non-zero reserved bytes, another magic or an unknown kind or directionality
code raises ``ParameterError``.  Kind codes 1 (a complex64 model) and 2
(measurements without a digest) are retired and read as unknown.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFileError, NumericError, ParameterError, ShapeError

MAGIC = b"MMPINH1\x00"
_KINDS = {"measurements": 4, "model": 3}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}
_DTYPES = {"measurements": np.dtype("<c8"), "model": np.dtype("<c16")}
_DIRS = {"unidirectional": 0, "bidirectional": 1}
_DIR_NAMES = {v: k for k, v in _DIRS.items()}
_HEADER = struct.Struct("<8sBBHIII16s")
_DIGEST_SIZE = hashlib.sha256().digest_size


@dataclass
class ContainerPayload:
    kind: str
    directionality: str
    fingerprint: str
    arrays: dict


def write_container(path, kind: str, *, fingerprint: str, directionality: str,
                    arrays: dict) -> None:
    """Serialize one payload; see module docstring for the expected arrays."""
    if kind not in _KINDS:
        raise ParameterError(f"unknown container kind {kind!r}")
    if directionality not in _DIRS:
        raise ParameterError(f"unknown directionality {directionality!r}")
    fp = fingerprint.encode()
    if len(fp) != 16:
        raise ParameterError("fingerprint must be 16 hex characters")
    if kind == "model":
        data = arrays["B"]
        T, N = data.shape
    else:
        data = arrays["y"]
        T, N = data.size, int(arrays.get("n_points", 0))
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(data, dtype=_DTYPES[kind])
    if (kind == "measurements" and not np.all(np.isfinite(payload))
            and np.all(np.isfinite(data))):
        raise NumericError("values exceed the float32 range of the container")
    header = _HEADER.pack(MAGIC, _KINDS[kind], _DIRS[directionality], 0, T, N, 0, fp)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(hashlib.sha256(payload).digest())
        fh.write(payload)


def _header(raw: bytes, path) -> tuple:
    if len(raw) < _HEADER.size or raw[:8] != MAGIC:
        raise ParameterError(f"{path} is not a recognized container file")
    magic, kind_code, dir_code, reserved_a, T, N, reserved_b, fp = _HEADER.unpack_from(raw)
    if reserved_a or reserved_b:
        raise ParameterError(f"{path} has non-zero reserved header bytes")
    kind = _KIND_NAMES.get(kind_code)
    if kind is None or dir_code not in _DIR_NAMES:
        raise ParameterError(f"unknown container kind or directionality code "
                             f"({kind_code}, {dir_code})")
    return kind, _DIR_NAMES[dir_code], T, N, fp.decode(errors="replace")


def read_header(path) -> tuple:
    """``(kind, directionality, T, N, fingerprint)`` of a container file.

    Only the header is read, not the payload.
    """
    with open(path, "rb") as fh:
        return _header(fh.read(_HEADER.size), path)


def read_container(path) -> ContainerPayload:
    with open(path, "rb") as fh:
        raw = fh.read()
    kind, directionality, T, N, fingerprint = _header(raw, path)
    shape = (T, N) if kind == "model" else (T,)
    body = memoryview(raw)[_HEADER.size:]
    size = _DIGEST_SIZE + _DTYPES[kind].itemsize * math.prod(shape)
    if len(body) != size:
        raise ShapeError(f"{path} holds {len(body)} payload bytes; its header "
                         f"(T={T}, N={N}) needs {size}")
    digest, body = body[:_DIGEST_SIZE], body[_DIGEST_SIZE:]
    if hashlib.sha256(body).digest() != digest:
        raise DataFileError(f"{path} payload does not match its sha256 digest")
    data = np.frombuffer(body, dtype=_DTYPES[kind]).astype(np.complex128).reshape(shape)
    arrays = {"B": data} if kind == "model" else {"y": data, "n_points": N}
    return ContainerPayload(kind=kind, directionality=directionality,
                            fingerprint=fingerprint, arrays=arrays)


def write_csv(path, rows) -> None:
    """Write ``rows``, the header first, in the toolkit's one CSV dialect.

    RFC 4180 with CRLF line ends: a float (numpy too) as ``repr(float(v))``,
    ``None`` as an empty cell, anything else through ``str``, quoted if needed.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            for row in rows)
