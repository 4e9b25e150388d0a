"""Bit-exact file formats: binary field snapshots and trace CSV.

Field files carry a 17-byte header (magic "VPF1", grid size as 32-bit
little-endian unsigned, box length as 64-bit little-endian float, one kind
byte) followed by the n x n payload as row-major 64-bit little-endian
floats. Masks are stored with cells as exactly 0.0 or 1.0. All writes go
through a temporary file in the target directory followed by an atomic
rename, so a failed run never leaves a partial file behind.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .evolution import EvolutionTrace
from .shapes import Mask
from .spectral import Grid, RealField

__all__ = [
    "FieldFileError",
    "FieldHeader",
    "KIND_NAMES",
    "read_field",
    "read_header",
    "write_field",
    "write_trace_csv",
    "read_trace_csv",
    "atomic_write_bytes",
    "TRACE_COLUMNS",
]

MAGIC = b"VPF1"
_HEADER = struct.Struct("<4sIdB")

KIND_NAMES = ("omega", "profile", "mask")
_KIND_CODE = {name: code for code, name in enumerate(KIND_NAMES)}

TRACE_COLUMNS = ("t", "sup_norm", "integral", "l2_norm", "qform")


class FieldFileError(ValueError):
    """Malformed or inconsistent field file."""


@dataclass(frozen=True)
class FieldHeader:
    n: int
    box_length: float
    kind: str


def atomic_write_bytes(path: str | os.PathLike, payload: bytes) -> None:
    """Write payload to path via a same-directory temp file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_field(path: str | os.PathLike, field: RealField | Mask,
                kind: str | None = None) -> None:
    """Serialize a field or mask; kind defaults to omega for fields.

    Masks always use the mask kind. Non-finite fields are refused so that
    every file on disk round-trips bit-exactly through read_field.
    """
    if isinstance(field, Mask):
        if kind not in (None, "mask"):
            raise ValueError(f"a mask must use kind 'mask', got {kind!r}")
        kind = "mask"
        values = field.indicator.astype(np.float64)
        grid = field.grid
    elif isinstance(field, RealField):
        if kind is None:
            kind = "omega"
        if kind not in ("omega", "profile"):
            raise ValueError(f"a field must use kind 'omega' or 'profile', got {kind!r}")
        if not np.all(np.isfinite(field.values)):
            raise ValueError("refusing to write a non-finite field")
        values = field.values
        grid = field.grid
    else:
        raise TypeError(f"expected RealField or Mask, got {type(field).__name__}")
    header = _HEADER.pack(MAGIC, grid.n, grid.box_length, _KIND_CODE[kind])
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    atomic_write_bytes(path, header + payload)


def _parse_header(raw: bytes, path: str) -> FieldHeader:
    if len(raw) < _HEADER.size:
        raise FieldFileError(f"{path}: header short ({len(raw)} bytes)")
    magic, n, box_length, kind_code = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FieldFileError(f"{path}: bad magic {magic!r}")
    if n < 16 or n & (n - 1):
        raise FieldFileError(f"{path}: header n = {n} is not a power of two >= 16")
    if not (np.isfinite(box_length) and box_length > 0):
        raise FieldFileError(f"{path}: header box length {box_length} is not positive and finite")
    if kind_code >= len(KIND_NAMES):
        raise FieldFileError(f"{path}: unknown kind code {kind_code}")
    return FieldHeader(n=int(n), box_length=float(box_length), kind=KIND_NAMES[kind_code])


def read_header(path: str | os.PathLike) -> FieldHeader:
    path = os.fspath(path)
    with open(path, "rb") as handle:
        raw = handle.read(_HEADER.size)
    return _parse_header(raw, path)


def read_field(path: str | os.PathLike) -> RealField | Mask:
    """Read a field file back into a RealField, or a Mask for mask kind."""
    path = os.fspath(path)
    with open(path, "rb") as handle:
        raw = handle.read()
    header = _parse_header(raw, path)
    expected = header.n * header.n * 8
    body = raw[_HEADER.size:]
    if len(body) < expected:
        raise FieldFileError(
            f"{path}: payload short ({len(body)} bytes, expected {expected})"
        )
    if len(body) > expected:
        raise FieldFileError(
            f"{path}: payload long ({len(body)} bytes, expected {expected})"
        )
    values = np.frombuffer(body, dtype="<f8").reshape(header.n, header.n)
    values = values.astype(np.float64)  # native-endian writable copy
    grid = Grid(header.n, header.box_length)
    if header.kind == "mask":
        if not np.all((values == 0.0) | (values == 1.0)):
            raise FieldFileError(f"{path}: mask payload not boolean (values beyond 0/1)")
        return Mask(grid, values == 1.0)
    if not np.all(np.isfinite(values)):
        raise FieldFileError(f"{path}: {header.kind} payload holds NaN or inf")
    return RealField(grid, values)


def _write_csv(path: str | os.PathLike, header: tuple[str, ...], rows) -> None:
    """Write rows of numbers under a header line, each number as a float at
    shortest round-trip precision, so the file reproduces them exactly."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def write_trace_csv(path: str | os.PathLike, trace: EvolutionTrace) -> None:
    """Write a trace as CSV with the fixed column order t, sup_norm,
    integral, l2_norm, qform."""
    _write_csv(path, TRACE_COLUMNS, zip(trace.times, trace.sup_norm, trace.integral,
                                        trace.l2_norm, trace.qform))


def read_trace_csv(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a trace CSV back as column arrays keyed by column name."""
    with open(os.fspath(path), "r", encoding="ascii") as handle:
        header = handle.readline().strip()
        names = tuple(header.split(","))
        if names != TRACE_COLUMNS:
            raise FieldFileError(f"unexpected trace columns {names}")
        data = [[] for _ in names]
        for line in handle:
            parts = line.strip().split(",")
            if len(parts) != len(names):
                raise FieldFileError(f"trace row has {len(parts)} columns")
            for slot, part in zip(data, parts):
                try:
                    value = float(part)
                except ValueError:
                    raise FieldFileError(f"trace cell {part!r} is not a number") from None
                slot.append(value)
    return {name: np.array(column) for name, column in zip(names, data)}
