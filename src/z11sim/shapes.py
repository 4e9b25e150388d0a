"""Shape primitives and their rasterization onto a grid mask.

Shapes are described in the physical coordinates of the box (origin at the
center). Rasterization is by cell center: a cell belongs to the mask iff
its center lies inside the shape. Membership is closed (boundary centers
count as inside); for the annulus both circles are closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .spectral import Grid, _blocks

__all__ = [
    "Disk",
    "Ellipse",
    "Rectangle",
    "Annulus",
    "ShapeUnion",
    "ShapeDifference",
    "Mask",
    "rasterize",
    "mask_area",
]


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]
    semi_axes: tuple[float, float]

    def __post_init__(self) -> None:
        if not (self.semi_axes[0] > 0 and self.semi_axes[1] > 0):
            raise ValueError(f"ellipse semi-axes must be positive, got {self.semi_axes}")


@dataclass(frozen=True)
class Rectangle:
    corner: tuple[float, float]
    widths: tuple[float, float]

    def __post_init__(self) -> None:
        if not (self.widths[0] > 0 and self.widths[1] > 0):
            raise ValueError(f"rectangle widths must be positive, got {self.widths}")


@dataclass(frozen=True)
class Annulus:
    center: tuple[float, float]
    inner_radius: float
    outer_radius: float

    def __post_init__(self) -> None:
        if not self.inner_radius > 0:
            raise ValueError(f"annulus inner radius must be positive, got {self.inner_radius}")
        if not self.inner_radius < self.outer_radius:
            raise ValueError(
                f"annulus needs inner_radius < outer_radius, got {self.inner_radius} >= {self.outer_radius}"
            )


@dataclass(frozen=True)
class ShapeUnion:
    parts: tuple["ShapeSpec", ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 1:
            raise ValueError("union needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class ShapeDifference:
    base: "ShapeSpec"
    cut: "ShapeSpec"


ShapeSpec = Union[Disk, Ellipse, Rectangle, Annulus, ShapeUnion, ShapeDifference]


def shape_contains(spec: ShapeSpec, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Vectorized membership test of points (x1, x2) in the shape."""
    match spec:
        case Disk(center=(c1, c2), radius=r):
            return (x1 - c1) ** 2 + (x2 - c2) ** 2 <= r**2
        case Ellipse(center=(c1, c2), semi_axes=(a1, a2)):
            return ((x1 - c1) / a1) ** 2 + ((x2 - c2) / a2) ** 2 <= 1.0
        case Rectangle(corner=(p1, p2), widths=(w1, w2)):
            return (x1 >= p1) & (x1 <= p1 + w1) & (x2 >= p2) & (x2 <= p2 + w2)
        case Annulus(center=(c1, c2), inner_radius=ri, outer_radius=ro):
            d2 = (x1 - c1) ** 2 + (x2 - c2) ** 2
            return (d2 >= ri**2) & (d2 <= ro**2)
        case ShapeUnion(parts=parts):
            out = shape_contains(parts[0], x1, x2)
            for part in parts[1:]:
                out = out | shape_contains(part, x1, x2)
            return out
        case ShapeDifference(base=base, cut=cut):
            return shape_contains(base, x1, x2) & ~shape_contains(cut, x1, x2)
    raise TypeError(f"not a shape spec: {spec!r}")


def _row_extent_diameter(x: np.ndarray, indicator: np.ndarray) -> float:
    """Largest distance between the cell centers of a nonempty indicator.

    Every vertex of the convex hull is the leftmost or rightmost cell of
    its row, so the diameter is the largest distance between the row
    extents. Rounded subtraction is monotone, so this is bitwise the
    maximum over all pairs of cells.
    """
    n = len(x)
    rows = np.flatnonzero(indicator.any(axis=1))
    row_cells = indicator[rows]
    lo = x[row_cells.argmax(axis=1)]
    hi = x[n - 1 - row_cells[:, ::-1].argmax(axis=1)]
    y = x[rows]
    dy = y[:, None] - y[None, :]
    dx = np.maximum(np.abs(hi[:, None] - lo[None, :]), np.abs(lo[:, None] - hi[None, :]))
    return float(np.sqrt((dy**2 + dx**2).max()))


@dataclass(frozen=True, eq=False)
class Mask:
    """Rasterized indicator of a bounded set on a grid.

    ``cell_count`` and ``diameter`` (max distance between member cell
    centers, worked out on first use) are derived. A mask always has at
    least one cell; the solver additionally requires diameter <=
    box_length / 4 at solve time so the periodic box dominates the set.
    """

    grid: Grid
    indicator: np.ndarray

    def __post_init__(self) -> None:
        ind = np.asarray(self.indicator, dtype=bool)
        if ind.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"indicator shape {ind.shape} does not match grid ({self.grid.n}, {self.grid.n})")
        count = int(ind.sum())
        if count < 1:
            raise ValueError("mask must contain at least one cell")
        object.__setattr__(self, "indicator", ind)
        object.__setattr__(self, "cell_count", count)

    @cached_property
    def diameter(self) -> float:
        """Largest distance between member cell centers."""
        return _row_extent_diameter(self.grid.x, self.indicator)

    def pack(self, values: np.ndarray) -> np.ndarray:
        """Gather the member-cell entries of a full-grid array, in row-major
        order, by boolean selection: no index array is built."""
        return values[self.indicator]

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Scatter a member-cell vector into a full-grid array (zeros off mask)."""
        full = np.zeros((self.grid.n, self.grid.n))
        full[self.indicator] = packed
        return full


def rasterize(spec: ShapeSpec, grid: Grid) -> Mask:
    """Rasterize a shape by cell centers, enforcing the box-margin constraint.

    Raises if no cell center falls inside the shape or if the rasterized
    diameter exceeds box_length / 4.

    Membership is evaluated in row blocks (spectral._blocks) on broadcast
    axes, so no n x n coordinate mesh is built and each block's float
    temporaries hold an eighth of an n x n array; each cell sees the same
    coordinate pair as on the mesh, so the indicator is bitwise that of
    one call of shape_contains on the whole grid.
    """
    x = grid.x
    ind = np.empty((grid.n, grid.n), dtype=bool)
    for rows in _blocks(grid.n):
        ind[rows] = shape_contains(spec, x[rows, None], x[None, :])
    if not ind.any():
        raise ValueError("shape rasterizes to zero cells (smaller than a grid cell?)")
    mask = Mask(grid, ind)
    limit = grid.box_length / 4.0
    if mask.diameter > limit:
        raise ValueError(
            f"shape diameter {mask.diameter:.6g} exceeds box_length/4 = {limit:.6g}; use a larger box"
        )
    return mask


def mask_area(mask: Mask) -> float:
    """Cell-counting area, cell_count * h^2."""
    return mask.cell_count * mask.grid.h**2
