"""Measure the cost of the coercivity estimate on a fixed family of masks.

For each grid size and each mask of the family the script builds the
restricted operator on a box of length 16, builds its preconditioner's
symbol (a solve builds it before the estimate), and runs
``estimate_coercivity`` once. It prints the mask's cells and x1-chords
(the columns of the estimate's coarse space), delta, the operator applies
and the circulant-preconditioner applies the estimate made, and its wall
time in ms. An iteration of the estimate is one apply and one
preconditioner apply, and the start vector takes one more apply, so the
two counts differ by one.

The family is the centred unit disk and the masks that the tests hold to
the dense spectrum: two ellipses, two rectangles tiled by whole cells, an
annulus, a 16-cell column, three disks in a row along x1, a disk with an
off-centre hole, and two disks side by side along x1 and along x2.

Run from the repository root:

    python tools/coercivity_cost.py [n ...]        (default: 256 512 1024 2048)

n = 2048 takes about a minute on a 2-core host.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from z11sim import (Annulus, Disk, Ellipse, Grid, Mask, RestrictedOperator,  # noqa: E402
                    ShapeDifference, ShapeUnion, estimate_coercivity, profile, rasterize)


def cell_block(grid: Grid, w1: float, w2: float) -> Mask:
    """The w1/h x w2/h block of cells at the origin: every x1-chord is
    exactly w1 long."""
    k1, k2 = round(w1 / (2 * grid.h)), round(w2 / (2 * grid.h))
    indicator = np.zeros((grid.n, grid.n), dtype=bool)
    indicator[grid.n // 2 - k1:grid.n // 2 + k1, grid.n // 2 - k2:grid.n // 2 + k2] = True
    return Mask(grid, indicator)


def one_column(grid: Grid) -> Mask:
    """16 cells of one column."""
    indicator = np.zeros((grid.n, grid.n), dtype=bool)
    indicator[grid.n // 2 - 8:grid.n // 2 + 8, grid.n // 2] = True
    return Mask(grid, indicator)


def two_disks(axis: int):
    """Two disks of radius 0.6, centres 1.8 apart along x1 (0) or x2 (1)."""
    c = (0.9, 0.0) if axis == 0 else (0.0, 0.9)
    return lambda g: rasterize(ShapeUnion((Disk((-c[0], -c[1]), 0.6), Disk(c, 0.6))), g)


MASKS = {
    "disk": lambda g: rasterize(Disk((0.0, 0.0), 1.0), g),
    "ellipse-0.5x1": lambda g: rasterize(Ellipse((0.0, 0.0), (0.5, 1.0)), g),
    "ellipse-1.5x1": lambda g: rasterize(Ellipse((0.0, 0.0), (1.5, 1.0)), g),
    "rectangle-1x2": lambda g: cell_block(g, 1.0, 2.0),
    "rectangle-2x1": lambda g: cell_block(g, 2.0, 1.0),
    "annulus": lambda g: rasterize(Annulus((0.0, 0.0), 0.5, 1.0), g),
    "one-column": one_column,
    "three-lobes": lambda g: rasterize(
        ShapeUnion(tuple(Disk((c, 0.0), 0.4) for c in (-1.0, 0.0, 1.0))), g),
    "cut-disk": lambda g: rasterize(ShapeDifference(Disk((0.0, 0.0), 1.0),
                                                    Disk((0.2, 0.0), 0.4)), g),
    "two-disks-x1": two_disks(0),
    "two-disks-x2": two_disks(1),
}

COUNTED = ("apply_packed", "precondition")


def measure(op: RestrictedOperator) -> tuple[float, int, int, float]:
    """delta, applies, preconditioner applies and wall ms of one estimate."""
    counts = dict.fromkeys(COUNTED, 0)
    methods = {name: getattr(RestrictedOperator, name) for name in COUNTED}
    for name, method in methods.items():
        def counting(self, x, name=name, method=method):
            counts[name] += 1
            return method(self, x)
        setattr(RestrictedOperator, name, counting)
    try:
        start = time.perf_counter()
        delta = estimate_coercivity(op)
        wall = time.perf_counter() - start
    finally:
        for name, method in methods.items():
            setattr(RestrictedOperator, name, method)
    return delta, counts["apply_packed"], counts["precondition"], 1e3 * wall


def main(argv: list[str]) -> int:
    sizes = [int(arg) for arg in argv[1:]] or [256, 512, 1024, 2048]
    print(f"{'mask':<15}{'n':>6}{'cells':>8}{'chords':>8}{'delta':>24}"
          f"{'applies':>9}{'precond':>9}{'ms':>10}")
    for n in sizes:
        for name, build in MASKS.items():
            op = RestrictedOperator(build(Grid(n, 16.0)))
            op.precondition(np.ones(op.mask.cell_count))
            chords = profile._x1_runs(op)[2].size
            delta, applies, preconditions, ms = measure(op)
            print(f"{name:<15}{n:>6}{op.mask.cell_count:>8}{chords:>8}{delta!r:>24}"
                  f"{applies:>9}{preconditions:>9}{ms:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
