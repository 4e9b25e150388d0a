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
import stat
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .evolution import EvolutionTrace
from .shapes import Mask
from .spectral import Grid, RealField, _blocks, _is_power_of_two

__all__ = [
    "FieldFileError",
    "read_field",
    "write_field",
    "write_trace_csv",
    "read_trace_csv",
    "atomic_write_bytes",
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


@dataclass(frozen=True, eq=False)
class _FieldPayload:
    """The bytes of a field file, produced in pieces as they are written:
    the header, then the values in row blocks (spectral._blocks) as
    little-endian floats. A C-contiguous float64 block goes out as a view
    of the values; any other block, a mask's booleans or the rows of a
    non-contiguous field, is converted one block at a time. ``len`` is
    the file's size."""

    header: bytes
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.header) + 8 * self.values.size

    def __iter__(self):
        yield self.header
        for rows in _blocks(len(self.values)):
            yield np.ascontiguousarray(self.values[rows], dtype="<f8")


def atomic_write_bytes(path: str | os.PathLike,
                       payload: bytes | bytearray | _FieldPayload) -> None:
    """Write payload to path via a same-directory temp file and rename.

    A field file's payload is written piece by piece as it is produced,
    so its bytes are never held whole: ``writelines`` drops each piece
    before it asks for the next. A failure on the way removes the temp
    file, as any other does."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(payload if isinstance(payload, _FieldPayload) else (payload,))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_field(path: str | os.PathLike, field: RealField | Mask,
                kind: str | None = None) -> None:
    """Serialize a field or mask; kind defaults to omega for fields.

    Masks always use the mask kind. Non-finite fields are refused so that
    every file on disk round-trips bit-exactly through read_field. The
    header is written first, then the values in row blocks: the rows of
    a C-contiguous float64 field go out as views, with no copy, and a
    mask's cells (or a non-contiguous field's rows) are converted to
    little-endian floats, 0.0 and 1.0 for a mask, one block at a time, so
    a write holds at most an eighth of the n x n payload beside its input.
    """
    if isinstance(field, Mask):
        if kind not in (None, "mask"):
            raise ValueError(f"a mask must use kind 'mask', got {kind!r}")
        kind = "mask"
        values = field.indicator
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
    atomic_write_bytes(path, _FieldPayload(header, values))


def _parse_header(raw: bytes, path: str) -> FieldHeader:
    if len(raw) < _HEADER.size:
        raise FieldFileError(f"{path}: header short ({len(raw)} bytes)")
    magic, n, box_length, kind_code = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FieldFileError(f"{path}: bad magic {magic!r}")
    if not (_is_power_of_two(n) and n >= 16):
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
    """Read a field file back into a RealField, or a Mask for mask kind.

    A regular file's payload length is checked against the file's size
    before the payload is read, so a file of the wrong length is refused
    without holding its payload. The payload is read straight into the
    result's n x n array, so a read holds no second copy of it, and only
    the n * n * 8 payload bytes are read from a regular file. A pipe has
    no size to check: its payload is read into the array, and whatever
    follows is read to count the bytes of a payload that is too long.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        header = _parse_header(handle.read(_HEADER.size), path)
        expected = header.n * header.n * 8
        info = os.fstat(handle.fileno())
        regular = stat.S_ISREG(info.st_mode)
        size = info.st_size - _HEADER.size
        if size == expected or not regular:
            values = np.empty((header.n, header.n), dtype="<f8")
            # a file that shrank since fstat reads short
            size = handle.readinto(values)
            if not regular and size == expected:
                size += len(handle.read())
    if size < expected:
        raise FieldFileError(f"{path}: payload short ({size} bytes, expected {expected})")
    if size > expected:
        raise FieldFileError(f"{path}: payload long ({size} bytes, expected {expected})")
    # native byte order: a copy only on a big-endian host
    values = values.astype(np.float64, copy=False)
    grid = Grid(header.n, header.box_length)
    if header.kind == "mask":
        if not np.all((values == 0.0) | (values == 1.0)):
            raise FieldFileError(f"{path}: mask payload not boolean (values beyond 0/1)")
        if not values.any():
            raise FieldFileError(f"{path}: mask payload has no cells")
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
    """Read a trace CSV back as column arrays keyed by column name. A
    non-ASCII byte reads as U+FFFD, which no column name or number holds."""
    with open(os.fspath(path), "r", encoding="ascii", errors="replace") as handle:
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
