"""Binary container for sensing matrices and measurement vectors.

Layout (all integers little-endian):

====== ======= ====================================================
offset size    field
====== ======= ====================================================
0      8       magic ``b"MMPINH1\\0"``
8      1       payload kind: 1 model, 2 measurements
9      1       directionality: 0 unidirectional, 1 bidirectional
10     2       reserved (zero)
12     4       T (rows / measurement count), uint32
16     4       N (scene points), uint32
20     4       reserved (zero)
24     16      config fingerprint, ASCII hex
40     ...     payload
====== ======= ====================================================

The payload is interleaved re/im float32 pairs: the model ``B`` (T x N)
row major, 8 T N bytes, or the measurements ``y`` (T), 8 T bytes.  Finite
values beyond the float32 range raise ``NumericError`` before the file is
opened.  A file whose payload length disagrees with its header raises
``ShapeError``; one with non-zero reserved bytes raises ``ParameterError``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError

MAGIC = b"MMPINH1\x00"
_KINDS = {"model": 1, "measurements": 2}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}
_DIRS = {"unidirectional": 0, "bidirectional": 1}
_DIR_NAMES = {v: k for k, v in _DIRS.items()}
_HEADER = struct.Struct("<8sBBHIII16s")


@dataclass
class ContainerPayload:
    kind: str
    directionality: str
    fingerprint: str
    arrays: dict


def _complex_to_f32(arr: np.ndarray) -> bytes:
    with np.errstate(over="ignore"):
        flat = np.ascontiguousarray(arr, dtype=np.complex64).view(np.float32)
    if not np.all(np.isfinite(flat)) and np.all(np.isfinite(arr)):
        raise NumericError("values exceed the float32 range of the container")
    return flat.astype("<f4", copy=False).tobytes()


def _f32_to_complex(buf: bytes) -> np.ndarray:
    flat = np.frombuffer(buf, dtype="<f4")
    return flat.view(np.complex64).astype(np.complex128)


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
        B = arrays["B"]
        T, N = B.shape
        payload = _complex_to_f32(B)
    else:
        y = arrays["y"]
        T, N = y.size, int(arrays.get("n_points", 0))
        payload = _complex_to_f32(y)
    header = _HEADER.pack(MAGIC, _KINDS[kind], _DIRS[directionality], 0, T, N, 0, fp)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_container(path) -> ContainerPayload:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:8] != MAGIC:
        raise ParameterError(f"{path} is not a recognized container file")
    magic, kind_code, dir_code, reserved_a, T, N, reserved_b, fp = _HEADER.unpack_from(raw)
    body = raw[_HEADER.size:]
    if reserved_a or reserved_b:
        raise ParameterError(f"{path} has non-zero reserved header bytes")
    kind = _KIND_NAMES.get(kind_code)
    if kind is None or dir_code not in _DIR_NAMES:
        raise ParameterError(f"unknown container kind or directionality code "
                             f"({kind_code}, {dir_code})")
    count = T * N if kind == "model" else T
    if len(body) != 8 * count:
        raise ShapeError(f"{path} holds {len(body)} payload bytes; its header "
                         f"(T={T}, N={N}) needs {8 * count}")
    if kind == "model":
        arrays = {"B": _f32_to_complex(body).reshape(T, N)}
    else:
        arrays = {"y": _f32_to_complex(body), "n_points": N}
    return ContainerPayload(kind=kind, directionality=_DIR_NAMES[dir_code],
                            fingerprint=fp.decode(errors="replace"), arrays=arrays)


def measurements_to_csv(path, y: np.ndarray) -> None:
    """Small-case CSV form: one row per sample with re/im columns."""
    with open(path, "w", newline="") as fh:
        fh.write("sample,re,im\r\n")
        for t, v in enumerate(np.asarray(y)):
            fh.write(f"{t},{float(v.real)!r},{float(v.imag)!r}\r\n")
