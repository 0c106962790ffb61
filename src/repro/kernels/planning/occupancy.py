"""Workspaces for planning: circular-obstacle worlds and occupancy grids.

:class:`CircleWorld` is the continuous-space environment used by the
sampling-based planners and the closed-loop missions; :class:`OccupancyGrid`
is its rasterized counterpart used by grid search and by mapping kernels.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


class CircleWorld:
    """A d-dimensional world with hyperspherical obstacles.

    Attributes:
        lower, upper: Axis-aligned workspace bounds.
        centers: ``(n_obstacles, dim)`` obstacle centers.
        radii: ``(n_obstacles,)`` obstacle radii.
    """

    def __init__(self, lower, upper, centers=None, radii=None):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ConfigurationError(
                "CircleWorld bounds must be 1-D arrays of equal length"
            )
        if np.any(self.upper <= self.lower):
            raise ConfigurationError("upper bounds must exceed lower bounds")
        self.dim = self.lower.shape[0]
        if centers is None:
            centers = np.zeros((0, self.dim))
        self.centers = np.asarray(centers, dtype=float).reshape(-1, self.dim)
        if radii is None:
            radii = np.zeros(self.centers.shape[0])
        self.radii = np.asarray(radii, dtype=float).reshape(-1)
        if self.radii.shape[0] != self.centers.shape[0]:
            raise ConfigurationError(
                f"{self.centers.shape[0]} centers but"
                f" {self.radii.shape[0]} radii"
            )
        if np.any(self.radii < 0):
            raise ConfigurationError("obstacle radii must be >= 0")

    @property
    def n_obstacles(self) -> int:
        return self.centers.shape[0]

    def fingerprint_spec(self) -> dict:
        """Identity for :func:`repro.engine.fingerprint.fingerprint`:
        bounds and obstacles fully determine the world."""
        return {"kind": type(self).__name__, "lower": self.lower,
                "upper": self.upper, "centers": self.centers,
                "radii": self.radii}

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Whether each point lies inside the workspace bounds."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((points >= self.lower) & (points <= self.upper),
                      axis=1)

    def clearance(self, point: np.ndarray) -> float:
        """Distance from ``point`` to the nearest obstacle surface
        (negative inside an obstacle); ``inf`` with no obstacles."""
        if self.n_obstacles == 0:
            return float("inf")
        point = np.asarray(point, dtype=float)
        dists = np.linalg.norm(self.centers - point, axis=1) - self.radii
        return float(dists.min())

    def sample_free(self, rng: np.random.Generator,
                    max_tries: int = 1000) -> np.ndarray:
        """Rejection-sample a collision-free point."""
        for _ in range(max_tries):
            point = rng.uniform(self.lower, self.upper)
            if self.clearance(point) > 0:
                return point
        raise ConfigurationError(
            f"could not sample a free point in {max_tries} tries;"
            " is the world almost fully blocked?"
        )

    @staticmethod
    def random(dim: int = 2, n_obstacles: int = 30,
               extent: float = 10.0, radius_range: Tuple[float, float]
               = (0.3, 0.8), seed: int = 0,
               keep_corners_free: float = 1.0) -> "CircleWorld":
        """A reproducible random world.

        ``keep_corners_free`` carves obstacle-free balls around the lower
        and upper corners so start/goal queries are well-posed.
        """
        rng = np.random.default_rng(seed)
        lower = np.zeros(dim)
        upper = np.full(dim, extent)
        centers = rng.uniform(0.0, extent, size=(n_obstacles, dim))
        radii = rng.uniform(*radius_range, size=n_obstacles)
        if keep_corners_free > 0:
            for corner in (lower, upper):
                dist = np.linalg.norm(centers - corner, axis=1)
                keep = dist - radii > keep_corners_free
                centers, radii = centers[keep], radii[keep]
        return CircleWorld(lower, upper, centers, radii)


class OccupancyGrid:
    """A 2-D occupancy grid with world-coordinate conversion.

    Cells hold 1 (occupied) or 0 (free).  ``resolution`` is meters/cell.
    """

    def __init__(self, width: int, height: int, resolution: float = 0.1,
                 origin: Tuple[float, float] = (0.0, 0.0)):
        if width < 1 or height < 1:
            raise ConfigurationError("grid needs width, height >= 1")
        if resolution <= 0:
            raise ConfigurationError("grid resolution must be > 0")
        self.cells = np.zeros((height, width), dtype=np.uint8)
        self.resolution = resolution
        self.origin = np.asarray(origin, dtype=float)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.cells.shape  # (rows, cols)

    def world_to_cell(self, point) -> Tuple[int, int]:
        """(row, col) of a world (x, y) point; raises if out of bounds."""
        point = np.asarray(point, dtype=float)
        col = int((point[0] - self.origin[0]) / self.resolution)
        row = int((point[1] - self.origin[1]) / self.resolution)
        rows, cols = self.cells.shape
        if not (0 <= row < rows and 0 <= col < cols):
            raise ConfigurationError(
                f"point {point.tolist()} outside grid"
            )
        return row, col

    def cell_to_world(self, row: int, col: int) -> np.ndarray:
        """World (x, y) of a cell center."""
        return self.origin + (np.array([col, row]) + 0.5) * self.resolution

    def is_free(self, row: int, col: int) -> bool:
        rows, cols = self.cells.shape
        if not (0 <= row < rows and 0 <= col < cols):
            return False
        return self.cells[row, col] == 0

    def occupancy_fraction(self) -> float:
        return float(self.cells.mean())

    def add_circle(self, center, radius: float) -> None:
        """Rasterize a circular obstacle into the grid.

        A cell is occupied when its center lies within ``radius`` of
        ``center`` (``dx*dx + dy*dy <= r*r``).  Only the cells of a
        bounding box one cell wider than the circle on every side are
        tested, which is conservative against the rounding of the
        squared test.
        """
        if radius < 0:
            raise ConfigurationError("radius must be >= 0")
        rows, cols = self.cells.shape
        row_lo, row_hi = self._span(center[1] - self.origin[1], radius,
                                    rows)
        col_lo, col_hi = self._span(center[0] - self.origin[0], radius,
                                    cols)
        if row_lo >= row_hi or col_lo >= col_hi:
            return
        ys = (self.origin[1]
              + (np.arange(row_lo, row_hi) + 0.5) * self.resolution)
        xs = (self.origin[0]
              + (np.arange(col_lo, col_hi) + 0.5) * self.resolution)
        dx = xs[None, :] - center[0]
        dy = ys[:, None] - center[1]
        self.cells[row_lo:row_hi, col_lo:col_hi][
            dx * dx + dy * dy <= radius * radius] = 1

    def _span(self, offset: float, radius: float, n: int
              ) -> Tuple[int, int]:
        """Index range ``[lo, hi)`` of the cells along one axis whose
        centers may lie within ``radius`` of a point ``offset`` meters
        past the origin; the whole axis when the bounds are not
        finite."""
        lo = (offset - radius) / self.resolution - 0.5
        hi = (offset + radius) / self.resolution - 0.5
        if not (np.isfinite(lo) and np.isfinite(hi)):
            return 0, n
        return (max(0, int(np.floor(lo)) - 1),
                min(n, int(np.ceil(hi)) + 2))

    def inflate(self, radius: float) -> "OccupancyGrid":
        """Return a copy with obstacles dilated by ``radius`` (meters) —
        the standard robot-radius inflation before grid planning."""
        steps = int(np.ceil(radius / self.resolution))
        out = OccupancyGrid(self.cells.shape[1], self.cells.shape[0],
                            self.resolution, tuple(self.origin))
        occupied = self.cells.astype(bool)
        result = occupied.copy()
        for dr in range(-steps, steps + 1):
            for dc in range(-steps, steps + 1):
                if dr * dr + dc * dc > steps * steps:
                    continue
                shifted = np.zeros_like(occupied)
                src = occupied[
                    max(0, -dr):occupied.shape[0] - max(0, dr),
                    max(0, -dc):occupied.shape[1] - max(0, dc),
                ]
                shifted[
                    max(0, dr):occupied.shape[0] - max(0, -dr),
                    max(0, dc):occupied.shape[1] - max(0, -dc),
                ] = src
                result |= shifted
        out.cells = result.astype(np.uint8)
        return out

    @staticmethod
    def from_world(world: CircleWorld, resolution: float = 0.1
                   ) -> "OccupancyGrid":
        """Rasterize a 2-D :class:`CircleWorld`."""
        if world.dim != 2:
            raise ConfigurationError(
                "OccupancyGrid.from_world needs a 2-D world"
            )
        extent = world.upper - world.lower
        grid = OccupancyGrid(
            int(np.ceil(extent[0] / resolution)),
            int(np.ceil(extent[1] / resolution)),
            resolution,
            origin=tuple(world.lower),
        )
        for center, radius in zip(world.centers, world.radii):
            grid.add_circle(center, radius)
        return grid
