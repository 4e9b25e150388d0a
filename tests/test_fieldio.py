"""Serialization tests.

The on-disk layout is pinned byte for byte against an independently packed
header, and every roundtrip is checked bitwise, minus signs on zeros
included.
"""

import os
import struct

import numpy as np
import pytest

from z11sim import (
    Disk,
    EvolutionTrace,
    FieldFileError,
    FieldHeader,
    Mask,
    RealField,
    make_grid,
    rasterize,
    read_field,
    read_header,
    read_trace_csv,
    write_field,
    write_trace_csv,
)
from z11sim.fieldio import MAGIC, TRACE_COLUMNS, atomic_write_bytes


@pytest.fixture()
def grid():
    return make_grid(32, 8.0)


def awkward_field(grid):
    """A field exercising the corners of float64: signed zeros, subnormals,
    huge magnitudes, and long-mantissa values."""
    rng = np.random.default_rng(81)
    values = rng.standard_normal((grid.n, grid.n)) * np.pi
    values[0, 0] = -0.0
    values[0, 1] = 5e-324
    values[1, 0] = -1e308
    values[2, 3] = 1.0 / 3.0
    return RealField(grid, values)


class TestFieldRoundtrip:
    def test_field_bitwise(self, grid, tmp_path):
        f = awkward_field(grid)
        path = tmp_path / "field.vpf"
        write_field(path, f)
        back = read_field(path)
        assert isinstance(back, RealField)
        assert back.grid == grid
        assert back.values.tobytes() == f.values.tobytes()

    def test_profile_kind(self, grid, tmp_path):
        f = awkward_field(grid)
        path = tmp_path / "profile.vpf"
        write_field(path, f, kind="profile")
        assert read_header(path).kind == "profile"
        assert read_field(path).values.tobytes() == f.values.tobytes()

    def test_mask_roundtrip(self, grid, tmp_path):
        mask = rasterize(Disk((0.0, 0.0), 1.0), grid)
        path = tmp_path / "mask.vpf"
        write_field(path, mask)
        back = read_field(path)
        assert isinstance(back, Mask)
        assert back.grid == grid
        np.testing.assert_array_equal(back.indicator, mask.indicator)

    def test_written_bytes_are_stable(self, grid, tmp_path):
        f = awkward_field(grid)
        p1, p2 = tmp_path / "a.vpf", tmp_path / "b.vpf"
        write_field(p1, f)
        write_field(p2, f)
        assert p1.read_bytes() == p2.read_bytes()


class TestLayout:
    def test_header_packed_little_endian(self, grid, tmp_path):
        """First 17 bytes are magic, uint32 cell count per side, float64
        box length, one kind byte, all little-endian; the payload follows
        row-major."""
        f = awkward_field(grid)
        path = tmp_path / "field.vpf"
        write_field(path, f)
        raw = path.read_bytes()
        expected_header = (b"VPF1" + (32).to_bytes(4, "little")
                           + struct.pack("<d", 8.0) + bytes([0]))
        assert raw[:17] == expected_header
        assert len(raw) == 17 + 32 * 32 * 8
        assert raw[17:] == f.values.astype("<f8").tobytes(order="C")

    def test_kind_codes(self, grid, tmp_path):
        f = awkward_field(grid)
        mask = rasterize(Disk((0.0, 0.0), 1.0), grid)
        for obj, kind, code in ((f, "omega", 0), (f, "profile", 1), (mask, None, 2)):
            path = tmp_path / f"k{code}.vpf"
            write_field(path, obj, kind=kind)
            assert path.read_bytes()[16] == code

    def test_read_header(self, grid, tmp_path):
        path = tmp_path / "field.vpf"
        write_field(path, awkward_field(grid))
        header = read_header(path)
        assert header == FieldHeader(n=32, box_length=8.0, kind="omega")


class TestWriteErrors:
    def test_non_finite_refused_and_nothing_written(self, grid, tmp_path):
        field = RealField(grid, np.zeros((32, 32)))
        field.values[4, 4] = np.nan  # a finite field mutated in place
        path = tmp_path / "bad.vpf"
        with pytest.raises(ValueError, match="non-finite"):
            write_field(path, field)
        assert not path.exists()
        assert os.listdir(tmp_path) == []

    def test_non_finite_refusal_preserves_existing_file(self, grid, tmp_path):
        path = tmp_path / "field.vpf"
        good = awkward_field(grid)
        write_field(path, good)
        original = path.read_bytes()
        field = RealField(grid, np.zeros((32, 32)))
        field.values[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            write_field(path, field)
        assert path.read_bytes() == original

    def test_kind_mismatch(self, grid, tmp_path):
        f = awkward_field(grid)
        mask = rasterize(Disk((0.0, 0.0), 1.0), grid)
        with pytest.raises(ValueError, match="kind 'mask'"):
            write_field(tmp_path / "x.vpf", mask, kind="omega")
        with pytest.raises(ValueError, match="'omega' or 'profile'"):
            write_field(tmp_path / "x.vpf", f, kind="mask")
        with pytest.raises(ValueError, match="'omega' or 'profile'"):
            write_field(tmp_path / "x.vpf", f, kind="bogus")

    def test_no_temp_files_left_behind(self, grid, tmp_path):
        path = tmp_path / "field.vpf"
        write_field(path, awkward_field(grid))
        assert os.listdir(tmp_path) == ["field.vpf"]


class TestReadErrors:
    def _valid_bytes(self, grid):
        values = np.arange(32 * 32, dtype=np.float64).reshape(32, 32)
        header = MAGIC + struct.pack("<IdB", 32, 8.0, 0)
        return header + values.astype("<f8").tobytes()

    def test_payload_short(self, grid, tmp_path):
        path = tmp_path / "short.vpf"
        path.write_bytes(self._valid_bytes(grid)[:-8])
        with pytest.raises(FieldFileError, match="payload short"):
            read_field(path)

    def test_payload_long(self, grid, tmp_path):
        path = tmp_path / "long.vpf"
        path.write_bytes(self._valid_bytes(grid) + b"\x00" * 4)
        with pytest.raises(FieldFileError, match="payload long"):
            read_field(path)

    def test_header_short(self, tmp_path):
        path = tmp_path / "stub.vpf"
        path.write_bytes(b"VPF1\x20")
        with pytest.raises(FieldFileError, match="header short"):
            read_field(path)

    def test_bad_magic(self, grid, tmp_path):
        raw = bytearray(self._valid_bytes(grid))
        raw[0] = ord(b"X")
        path = tmp_path / "magic.vpf"
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldFileError, match="bad magic"):
            read_field(path)

    def test_unknown_kind_code(self, grid, tmp_path):
        raw = bytearray(self._valid_bytes(grid))
        raw[16] = 3
        path = tmp_path / "kind.vpf"
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldFileError, match="unknown kind code"):
            read_field(path)

    @pytest.mark.parametrize("n", [20, 8, 0])
    def test_bad_grid_size(self, n, tmp_path):
        header = MAGIC + struct.pack("<IdB", n, 8.0, 0)
        path = tmp_path / "size.vpf"
        path.write_bytes(header + b"\x00" * (max(n, 1) ** 2 * 8))
        with pytest.raises(FieldFileError, match="power of two"):
            read_field(path)

    def test_mask_payload_not_boolean(self, grid, tmp_path):
        values = np.zeros((32, 32))
        values[5, 5] = 0.5
        header = MAGIC + struct.pack("<IdB", 32, 8.0, 2)
        path = tmp_path / "mask.vpf"
        path.write_bytes(header + values.astype("<f8").tobytes())
        with pytest.raises(FieldFileError, match="mask payload not boolean"):
            read_field(path)


def _vpf_bytes(box_length: float, kind: int, payload_value: float) -> bytes:
    values = np.zeros((32, 32))
    values[7, 3] = payload_value
    header = MAGIC + struct.pack("<IdB", 32, box_length, kind)
    return header + values.astype("<f8").tobytes()


_TRACE_HEADER = b"t,sup_norm,integral,l2_norm,qform\n"


@pytest.mark.parametrize("reader, raw, match", [
    pytest.param(read_field, _vpf_bytes(0.0, 0, 1.0), "box length", id="box-zero"),
    pytest.param(read_field, _vpf_bytes(-8.0, 0, 1.0), "box length", id="box-negative"),
    pytest.param(read_field, _vpf_bytes(float("nan"), 0, 1.0), "box length", id="box-nan"),
    pytest.param(read_header, _vpf_bytes(float("inf"), 0, 1.0), "box length",
                 id="header-box-inf"),
    pytest.param(read_header, _vpf_bytes(0.0, 2, 1.0), "box length", id="header-mask-box-zero"),
    pytest.param(read_field, _vpf_bytes(8.0, 0, float("nan")),
                 "omega payload holds NaN or inf", id="omega-nan"),
    pytest.param(read_field, _vpf_bytes(8.0, 1, float("-inf")),
                 "profile payload holds NaN or inf", id="profile-inf"),
    pytest.param(read_trace_csv, _TRACE_HEADER + b"0.0,1.0,x,1.0,1.0\n",
                 "'x' is not a number", id="trace-non-numeric"),
])
def test_invalid_values_raise_typed_error(reader, raw, match, tmp_path):
    """Values that the writers never produce make a malformed file, not a
    bare ValueError from the grid or field constructors or from float()."""
    path = tmp_path / "bad"
    path.write_bytes(raw)
    with pytest.raises(FieldFileError, match=match):
        reader(path)


class TestTraceCsv:
    def _trace(self):
        times = np.array([0.0, 0.1, np.pi / 10, 0.5])
        return EvolutionTrace(
            times=times,
            sup_norm=np.array([1.0, 1.5, 1.0 / 3.0, 7.25]),
            integral=np.array([0.25, 0.3, 0.31, 1e-17]),
            l2_norm=np.array([0.5, 0.6, 0.7, 0.8]),
            qform=np.array([0.1, 0.2, 0.3, 0.4]),
            support_cells=np.array([4, 4, 4, 4]),
            terminated="horizon",
        )

    def test_roundtrip_exact(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        back = read_trace_csv(path)
        assert tuple(back) == TRACE_COLUMNS
        np.testing.assert_array_equal(back["t"], trace.times)
        np.testing.assert_array_equal(back["sup_norm"], trace.sup_norm)
        np.testing.assert_array_equal(back["integral"], trace.integral)
        np.testing.assert_array_equal(back["l2_norm"], trace.l2_norm)
        np.testing.assert_array_equal(back["qform"], trace.qform)

    def test_column_order_pinned(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, self._trace())
        first = path.read_text().splitlines()[0]
        assert first == "t,sup_norm,integral,l2_norm,qform"

    def test_floats_written_with_full_precision(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, self._trace())
        text = path.read_text()
        assert repr(np.pi / 10) in text
        assert repr(1.0 / 3.0) in text

    def test_rejects_foreign_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,sup_norm,integral,l2_norm,energy\n0.0,1.0,1.0,1.0,1.0\n")
        with pytest.raises(FieldFileError, match="unexpected trace columns"):
            read_trace_csv(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,sup_norm,integral,l2_norm,qform\n0.0,1.0\n")
        with pytest.raises(FieldFileError, match="columns"):
            read_trace_csv(path)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"first")
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"
        assert os.listdir(tmp_path) == ["blob.bin"]
