"""Property-based tests: laws checked over masks that hypothesis draws.

Every test is derandomized, so a run draws the same examples each time,
and keeps no example database.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from z11sim import (
    Disk,
    Grid,
    Mask,
    Rectangle,
    RestrictedOperator,
    ShapeUnion,
    dense_L_matrix,
    estimate_coercivity,
    rasterize,
)
from z11sim.profile import _DIRECT_CELLS

_SETTINGS = settings(max_examples=25, derandomize=True, database=None, deadline=None)

_coordinate = st.floats(-1.0, 1.0)
_disks = st.builds(lambda c1, c2, radius: Disk((c1, c2), radius),
                   _coordinate, _coordinate, st.floats(0.25, 1.0))
_rectangles = st.builds(lambda c1, c2, w1, w2: Rectangle((c1, c2), (w1, w2)),
                        _coordinate, _coordinate, st.floats(0.25, 2.0), st.floats(0.25, 2.0))


@st.composite
def _masks(draw):
    """A union of one to three disks or rectangles on a grid with h = 1/8,
    of 41 to 1500 cells, so above the direct route and small enough for
    the dense spectrum, and within a quarter of the box."""
    grid = draw(st.sampled_from([Grid(64, 8.0), Grid(128, 16.0)]))
    parts = draw(st.lists(st.one_of(_disks, _rectangles), min_size=1, max_size=3))
    try:
        mask = rasterize(ShapeUnion(tuple(parts)), grid)
    except ValueError:  # no cell, or wider than a quarter of the box
        assume(False)
    assume(_DIRECT_CELLS < mask.cell_count <= 1500)
    return mask


@_SETTINGS
@given(mask=_masks(), shift=st.tuples(st.integers(0, 127), st.integers(0, 127)))
def test_coercivity_matches_dense_and_ignores_translation(mask, shift):
    """The Davidson estimate is the dense operator's smallest eigenvalue
    within 1e-6 relative, and a whole-cell roll of the mask leaves it
    bitwise equal when the roll keeps the cells' row-major order. A roll
    across a periodic edge permutes the packed cells, and with them the
    start vector's seeded Gaussian, so there the estimate moves within
    its tolerance."""
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
