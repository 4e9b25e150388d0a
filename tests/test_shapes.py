"""Shape membership, rasterization, and mask bookkeeping tests."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import z11sim
from z11sim import (
    Annulus,
    Disk,
    Ellipse,
    Grid,
    Mask,
    Rectangle,
    ShapeDifference,
    ShapeUnion,
    mask_area,
    rasterize,
)
from z11sim.shapes import shape_contains


class TestShapeValidation:
    def test_disk_radius(self):
        with pytest.raises(ValueError, match="radius"):
            Disk((0.0, 0.0), 0.0)

    def test_ellipse_axes(self):
        with pytest.raises(ValueError, match="semi-axes"):
            Ellipse((0.0, 0.0), (1.0, -2.0))

    def test_rectangle_widths(self):
        with pytest.raises(ValueError, match="widths"):
            Rectangle((0.0, 0.0), (0.0, 1.0))

    def test_annulus_ordering(self):
        with pytest.raises(ValueError, match="inner_radius < outer_radius"):
            Annulus((0.0, 0.0), 2.0, 1.0)
        with pytest.raises(ValueError, match="inner radius"):
            Annulus((0.0, 0.0), -1.0, 2.0)

    def test_union_needs_parts(self):
        with pytest.raises(ValueError, match="at least one"):
            ShapeUnion(())


class TestShapeContains:
    def test_disk_closed_boundary(self):
        d = Disk((1.0, 0.0), 2.0)
        x1 = np.array([1.0, 3.0, 3.0 + 1e-9, -1.0])
        x2 = np.array([0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            shape_contains(d, x1, x2), [True, True, False, True]
        )

    def test_ellipse(self):
        e = Ellipse((0.0, 0.0), (2.0, 1.0))
        x1 = np.array([2.0, 0.0, 2.0])
        x2 = np.array([0.0, 1.0, 1.0])
        np.testing.assert_array_equal(shape_contains(e, x1, x2), [True, True, False])

    def test_rectangle_closed_on_all_sides(self):
        r = Rectangle((-1.0, -2.0), (2.0, 4.0))
        x1 = np.array([-1.0, 1.0, 1.0 + 1e-12, 0.0])
        x2 = np.array([-2.0, 2.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            shape_contains(r, x1, x2), [True, True, False, True]
        )

    def test_annulus_both_circles_closed(self):
        a = Annulus((0.0, 0.0), 1.0, 2.0)
        x1 = np.array([1.0, 2.0, 0.5, 2.5, 1.5])
        x2 = np.zeros(5)
        np.testing.assert_array_equal(
            shape_contains(a, x1, x2), [True, True, False, False, True]
        )

    def test_union_and_difference(self):
        two = ShapeUnion((Disk((-2.0, 0.0), 1.0), Disk((2.0, 0.0), 1.0)))
        x1 = np.array([-2.0, 2.0, 0.0])
        x2 = np.zeros(3)
        np.testing.assert_array_equal(shape_contains(two, x1, x2), [True, True, False])

        ring = ShapeDifference(Disk((0.0, 0.0), 2.0), Disk((0.0, 0.0), 1.0))
        x1 = np.array([0.0, 1.5, 1.0])
        np.testing.assert_array_equal(
            shape_contains(ring, x1, np.zeros(3)), [False, True, False]
        )

    def test_rejects_non_shape(self):
        with pytest.raises(TypeError, match="not a shape"):
            shape_contains("disk", np.zeros(1), np.zeros(1))


class TestRasterize:
    def test_unit_disk_cell_count_arithmetic(self):
        """Count lattice points with (i h)^2 + (j h)^2 <= 1 by hand.

        With h = 1/4 the condition is i^2 + j^2 <= 16: per column
        |i| = 0, 1, 2, 3, 4 there are 9, 7, 7, 5, 1 admissible j, so the
        total is 9 + 2*(7 + 7 + 5 + 1) = 49.
        """
        g = Grid(32, 8.0)
        mask = rasterize(Disk((0.0, 0.0), 1.0), g)
        assert mask.cell_count == 49
        np.testing.assert_allclose(mask_area(mask), 49 * 0.25**2, rtol=1e-14)

    def test_unit_disk_diameter_exact(self):
        """Cell centers (+-1, 0) lie exactly on the closed boundary."""
        g = Grid(32, 8.0)
        mask = rasterize(Disk((0.0, 0.0), 1.0), g)
        assert mask.diameter == 2.0

    def test_membership_is_by_cell_center(self):
        g = Grid(32, 8.0)
        # centered between cell centers, radius below half a cell: no center inside
        with pytest.raises(ValueError, match="zero cells"):
            rasterize(Disk((0.125, 0.125), 0.05), g)

    def test_single_cell_shape(self):
        g = Grid(32, 8.0)
        mask = rasterize(Disk((0.25, -0.5), 0.05), g)
        assert mask.cell_count == 1
        assert mask.diameter == 0.0

    def test_diameter_limit_enforced(self):
        g = Grid(32, 8.0)
        with pytest.raises(ValueError, match="exceeds box_length/4"):
            rasterize(Disk((0.0, 0.0), 1.3), g)

    def test_diameter_exactly_at_limit_allowed(self):
        # diameter 2.0 equals box_length/4 for the unit disk in a box of 8
        g = Grid(32, 8.0)
        mask = rasterize(Disk((0.0, 0.0), 1.0), g)
        assert mask.diameter == g.box_length / 4.0

    def test_composite_shape(self):
        g = Grid(64, 8.0)
        ring = ShapeDifference(Disk((0.0, 0.0), 1.0), Disk((0.0, 0.0), 0.5))
        mask = rasterize(ring, g)
        disk_cells = rasterize(Disk((0.0, 0.0), 1.0), g).cell_count
        hole_cells = rasterize(Disk((0.0, 0.0), 0.5), g).cell_count
        assert mask.cell_count == disk_cells - hole_cells

    @pytest.mark.parametrize("spec", [
        Disk((0.013, -0.007), 1.0),
        Ellipse((-0.21, 0.33), (1.3, 0.45)),
        Rectangle((-0.6, -0.9), (1.25, 1.5)),
        Annulus((0.05, 0.11), 0.4, 0.95),
        ShapeUnion((Disk((-0.5, 0.2), 0.4), Ellipse((0.5, -0.1), (0.3, 0.6)))),
        ShapeDifference(Rectangle((-1.0, -1.0), (2.0, 2.0)), Disk((0.25, 0.0), 0.5)),
    ], ids=["disk", "ellipse", "rectangle", "annulus", "union", "difference"])
    def test_broadcast_axes_match_the_mesh(self, spec):
        """Rasterization evaluates the shape in row blocks on the broadcast
        axes x[:, None] and x[None, :]: the indicator is that of one call on
        the two n x n coordinate meshes, cell for cell, at n = 16 (blocks
        of two rows, on a box small enough to hold a few cells of each
        shape) as at n = 128."""
        for n, box_length in ((16, 10.0), (128, 16.0)):
            g = Grid(n, box_length)
            expected = shape_contains(spec, *g.coords())
            assert expected.shape == (n, n) and expected.any()
            np.testing.assert_array_equal(rasterize(spec, g).indicator, expected)


class TestMask:
    def test_indicator_shape_validation(self):
        g = Grid(32, 8.0)
        with pytest.raises(ValueError, match="shape"):
            Mask(g, np.ones((16, 16), dtype=bool))

    def test_empty_mask_rejected(self):
        g = Grid(32, 8.0)
        with pytest.raises(ValueError, match="at least one cell"):
            Mask(g, np.zeros((32, 32), dtype=bool))

    def test_pack_unpack_roundtrip(self):
        g = Grid(32, 8.0)
        mask = rasterize(Disk((0.0, 0.0), 1.0), g)
        rng = np.random.default_rng(5)
        packed = rng.standard_normal(mask.cell_count)
        full = mask.unpack(packed)
        assert np.array_equal(mask.pack(full), packed)
        assert np.all(full[~mask.indicator] == 0.0)

    def test_pack_is_row_major(self):
        g = Grid(32, 8.0)
        ind = np.zeros((32, 32), dtype=bool)
        ind[2, 5] = ind[2, 9] = ind[7, 1] = True
        mask = Mask(g, ind)
        full = np.zeros((32, 32))
        full[2, 5], full[2, 9], full[7, 1] = 10.0, 20.0, 30.0
        np.testing.assert_array_equal(mask.pack(full), [10.0, 20.0, 30.0])

    def test_diameter_of_large_mask(self):
        # ~1800 member cells; built directly since this set is wider than
        # the solver's box margin
        g = Grid(128, 8.0)
        ind = shape_contains(Disk((0.0, 0.0), 1.5), *g.coords())
        mask = Mask(g, ind)
        assert mask.cell_count > 1000
        assert mask.diameter == 3.0

    def test_diameter_of_collinear_cells(self):
        # a full row and a full column of cells: the ends are (n - 1) h apart
        g = Grid(32, 8.0)
        ind = np.zeros((32, 32), dtype=bool)
        ind[3, :] = True
        assert Mask(g, ind).diameter == 7.75
        assert Mask(g, ind.T).diameter == 7.75

    def test_full_grid_mask_defers_its_diameter(self):
        """A mask works out its diameter on first use, so the full-grid
        mask of an evolving field with no zeros, at n = 1024, builds in
        next to no memory; the row-pair pass would peak near 35 MB."""
        g = Grid(1024, 16.0)
        ind = np.ones((1024, 1024), dtype=bool)
        tracemalloc.start()
        try:
            mask = Mask(g, ind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert mask.cell_count == 1024 * 1024
        assert "diameter" not in vars(mask)

    def test_large_mask_loads_no_scipy_spatial(self):
        # a fresh interpreter, so no other test has imported scipy.spatial
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import z11sim.cli\n"
            "from z11sim import Grid, Mask\n"
            "ind = np.zeros((64, 64), dtype=bool)\n"
            "ind[8:56, 8:56] = True\n"
            "assert Mask(Grid(64, 8.0), ind).cell_count > 1000\n"
            "print('scipy.spatial' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(z11sim.__file__))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        assert result.stdout.strip() == "False"
