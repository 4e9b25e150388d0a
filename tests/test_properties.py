"""Property-based tests: laws checked over masks that hypothesis draws,
and the file readers checked over damaged files.

Every test is derandomized, so a run draws the same examples each time,
and keeps no example database.
"""

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from z11sim import (
    Disk,
    EvolutionTrace,
    FieldFileError,
    Grid,
    Mask,
    RealField,
    Rectangle,
    RestrictedOperator,
    ShapeUnion,
    estimate_coercivity,
    rasterize,
    read_field,
    read_trace_csv,
    solve_profile,
    write_field,
    write_trace_csv,
)
from z11sim.evolution import rhs
from z11sim.fieldio import MAGIC
from z11sim.profile import dense_L_matrix

# Masks of at most this many cells are left to the tiny-mask tests of
# test_profile.py.
_TINY_CELLS = 40
_SETTINGS = settings(max_examples=25, derandomize=True, database=None, deadline=None)

_coordinate = st.floats(-1.0, 1.0)
_disks = st.builds(lambda c1, c2, radius: Disk((c1, c2), radius),
                   _coordinate, _coordinate, st.floats(0.25, 1.0))
_rectangles = st.builds(lambda c1, c2, w1, w2: Rectangle((c1, c2), (w1, w2)),
                        _coordinate, _coordinate, st.floats(0.25, 2.0), st.floats(0.25, 2.0))


@st.composite
def _masks(draw):
    """A union of one to three disks or rectangles on a grid with h = 1/8,
    of 41 to 1500 cells, so above the tiny masks and small enough for the
    dense spectrum, and within a quarter of the box."""
    grid = draw(st.sampled_from([Grid(64, 8.0), Grid(128, 16.0)]))
    parts = draw(st.lists(st.one_of(_disks, _rectangles), min_size=1, max_size=3))
    try:
        mask = rasterize(ShapeUnion(tuple(parts)), grid)
    except ValueError:  # no cell, or wider than a quarter of the box
        assume(False)
    assume(_TINY_CELLS < mask.cell_count <= 1500)
    return mask


@_SETTINGS
@given(mask=_masks(), shift=st.tuples(st.integers(0, 127), st.integers(0, 127)))
def test_coercivity_matches_dense_and_ignores_translation(mask, shift):
    """The Davidson estimate is the dense operator's smallest eigenvalue
    within 1e-6 relative, and a whole-cell roll of the mask leaves it
    bitwise equal when the roll keeps the cells' row-major order. A roll
    across a periodic edge permutes the packed cells, and with them the
    start vector's Weyl sequence, so there the estimate moves within its
    tolerance."""
    delta = estimate_coercivity(RestrictedOperator(mask))
    lowest = np.linalg.eigvalsh(dense_L_matrix(RestrictedOperator(mask)))[0]
    assert abs(delta - lowest) <= 1e-6 * lowest
    rolled = Mask(mask.grid, np.roll(mask.indicator, shift, axis=(0, 1)))
    rolled_delta = estimate_coercivity(RestrictedOperator(rolled))
    order = np.arange(mask.cell_count, dtype=float)
    if np.array_equal(rolled.pack(np.roll(mask.unpack(order), shift, axis=(0, 1))), order):
        assert rolled_delta == delta
    else:
        assert abs(rolled_delta - lowest) <= 1e-6 * lowest


def _reflect(values, axis):
    """values at the cell index (-i) mod n along axis: x -> -x on the grid,
    whose coordinates run from -L/2 in steps of h."""
    n = values.shape[axis]
    return np.take(values, -np.arange(n) % n, axis=axis)


_axes = st.sampled_from([0, 1])


@_SETTINGS
@given(mask=_masks(), axis=_axes)
def test_reflection_commutes_with_rhs(mask, axis):
    """Z11's symbol is even in k1 and in k2, so rhs of the reflected
    field is the reflected rhs, to roundoff (3.8e-16 of max |rhs| at
    most over these draws)."""
    values = np.random.default_rng(3).standard_normal(mask.indicator.shape) * mask.indicator
    rate = rhs(RealField(mask.grid, values)).values
    reflected = rhs(RealField(mask.grid, _reflect(values, axis))).values
    np.testing.assert_allclose(reflected, _reflect(rate, axis),
                               rtol=0, atol=1e-15 * np.max(np.abs(rate)))


@_SETTINGS
@given(mask=_masks(), axis=_axes)
def test_reflection_commutes_with_the_profile_solve(mask, axis):
    """The reflected mask's operator is the reflected operator, so the two
    have the same δ to roundoff: the packed cells run in reverse order, so
    only the order of the sums changes. That order moves CG's residuals at
    roundoff, so the two solves may stop an iteration apart. Solved to
    tol 1e-11 they give the reflected Q within 1e-8 of max Q (6.9e-11 at
    most over 1000 draws, of 206 masks; at the default tol 1e-8 the gap
    reaches 2.3e-8)."""
    op = RestrictedOperator(mask)
    reflected_op = RestrictedOperator(Mask(mask.grid, _reflect(mask.indicator, axis)))
    solution = solve_profile(op, tol=1e-11)
    reflected = solve_profile(reflected_op, tol=1e-11)
    assert abs(reflected.iterations - solution.iterations) <= 1
    delta = estimate_coercivity(op)
    assert abs(estimate_coercivity(reflected_op) - delta) <= 2e-13 * delta
    q = solution.q.values
    np.testing.assert_allclose(reflected.q.values, _reflect(q, axis),
                               rtol=0, atol=1e-8 * np.max(np.abs(q)))


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The bytes of a valid file of each kind, written by the writers."""
    grid = Grid(16, 4.0)
    field = RealField(grid, np.random.default_rng(4).standard_normal((16, 16)))
    rows = np.linspace(1.0, 2.0, 6)
    trace = EvolutionTrace(times=rows - 1.0, sup_norm=rows, integral=rows / 3,
                           l2_norm=rows / 7, qform=rows**2, support_cells=np.ones(6, int),
                           terminated="horizon")
    directory = tmp_path_factory.mktemp("pristine")
    write_field(directory / "omega", field)
    write_field(directory / "mask", rasterize(Disk((0.0, 0.0), 0.5), grid))
    write_trace_csv(directory / "trace", trace)
    return {kind: (directory / kind).read_bytes() for kind in ("omega", "mask", "trace")}


@st.composite
def _damaged(draw, raw, kind):
    """raw cut short, with one bit flipped, or behind an oversized header:
    a field header with any n, box length and kind byte, or a trace header
    line padded to up to 100 000 characters."""
    match draw(st.sampled_from(["truncate", "flip", "header"])):
        case "truncate":
            return raw[:draw(st.integers(0, len(raw) - 1))]
        case "flip":
            bit = draw(st.integers(0, 8 * len(raw) - 1))
            damaged = bytearray(raw)
            damaged[bit // 8] ^= 1 << bit % 8
            return bytes(damaged)
    if kind == "trace":
        header, body = raw.split(b"\n", 1)
        padding = draw(st.sampled_from([b",", b"x", b" "])) * draw(st.integers(1, 100_000))
        return header + padding + b"\n" + body
    n = draw(st.one_of(st.sampled_from([2**k for k in range(4, 32)]),
                       st.integers(0, 2**32 - 1)))
    header = MAGIC + struct.pack("<IdB", n, draw(st.floats()), draw(st.integers(0, 255)))
    return header + raw[len(header):]


@pytest.mark.parametrize("kind", ["omega", "mask", "trace"])
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_damaged_files_read_or_raise_field_file_error(pristine, tmp_path_factory, kind, data):
    """A damaged file reads back as a value or raises FieldFileError; no
    other error escapes the readers."""
    raw = data.draw(_damaged(pristine[kind], kind))
    path = tmp_path_factory.getbasetemp() / f"damaged-{kind}"
    path.write_bytes(raw)
    reader = read_trace_csv if kind == "trace" else read_field
    try:
        value = reader(path)
    except FieldFileError:
        return
    assert isinstance(value, dict if kind == "trace" else (RealField, Mask))
