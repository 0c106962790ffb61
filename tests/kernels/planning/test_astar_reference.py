"""The flat-index A* and bounding-box rasterization against their
references.

:func:`repro.kernels.planning.astar.astar` must return the identical
path, cost and expansion count as the scalar reference planner
(``reference_astar.py``, the planner it replaced, kept verbatim), and
charge the same :class:`OpCounter` totals.
:meth:`OccupancyGrid.add_circle` must mark exactly the cells the
full-grid formula marks.
"""

import numpy as np
import pytest

from repro.core.profile import OpCounter
from repro.errors import PlanningError
from repro.kernels.planning import CircleWorld, GridPlanner, OccupancyGrid
from repro.kernels.planning.astar import astar
from tests.kernels.planning.reference_astar import astar as reference


def _totals(counter: OpCounter):
    return (counter.int_ops, counter.bytes_read, counter.bytes_written,
            counter.working_set_bytes)


def _assert_same_search(grid, start, goal):
    new_counter, ref_counter = OpCounter("new"), OpCounter("ref")
    got = astar(grid, start, goal, counter=new_counter)
    want = reference(grid, start, goal, counter=ref_counter)
    assert got.path == want.path
    assert got.cost == want.cost
    assert got.expanded == want.expanded
    assert _totals(new_counter) == _totals(ref_counter)
    return got


def _grid(cells) -> OccupancyGrid:
    cells = np.asarray(cells, dtype=np.uint8)
    grid = OccupancyGrid(cells.shape[1], cells.shape[0], resolution=1.0)
    grid.cells = cells
    return grid


class TestAstarMatchesReference:
    def test_random_grids(self):
        rng = np.random.default_rng(2024)
        found = missing = 0
        for _ in range(60):
            rows, cols = rng.integers(1, 40, size=2)
            density = rng.uniform(0.0, 0.45)
            grid = _grid(rng.random((rows, cols)) < density)
            free = np.argwhere(grid.cells == 0)
            if len(free) == 0:
                continue
            start, goal = (tuple(int(v) for v in free[i])
                           for i in rng.integers(len(free), size=2))
            result = _assert_same_search(grid, start, goal)
            found += result.found
            missing += not result.found
        # The sample exercises both outcomes.
        assert found >= 20 and missing >= 1

    @pytest.mark.parametrize("rows,start,goal", [
        (("...", ".#.", "..."), (2, 2), (0, 0)),
        (("...", ".#.", "..."), (2, 1), (0, 1)),
        (("....", ".#..", "...."), (1, 3), (1, 0)),
        (("...", "...", ".#.", "..."), (2, 2), (2, 0)),
        (("...", ".#.", ".#.", "...", "...", "..."), (5, 1), (0, 1)),
    ])
    def test_equal_cost_detours(self, rows, start, goal):
        # Two detours round the obstacle cost the same; which one is
        # returned is fixed by the neighbour order and the heap's tie
        # counter, so these cases pin both.
        cells = [[c == "#" for c in row] for row in rows]
        _assert_same_search(_grid(cells), start, goal)

    def test_no_path(self):
        cells = np.zeros((9, 9))
        cells[4, :] = 1
        result = _assert_same_search(_grid(cells), (0, 0), (8, 8))
        assert not result.found

    def test_start_equals_goal(self):
        result = _assert_same_search(_grid(np.zeros((5, 7))),
                                     (2, 3), (2, 3))
        assert result.path == [(2, 3)] and result.cost == 0.0
        assert result.expanded == 1

    def test_single_cell_corridor_with_corners(self):
        # A zigzag corridor one cell wide: every turn offers a diagonal
        # that would cut an occupied corner.
        cells = np.ones((7, 7))
        cells[1, 1:6] = 0
        cells[1:6, 5] = 0
        cells[5, 1:6] = 0
        result = _assert_same_search(_grid(cells), (1, 1), (5, 1))
        assert result.found
        assert len(result.path) == 13

    def test_diagonal_gap_is_not_cut(self):
        cells = np.array([[0, 1], [1, 0]])
        result = _assert_same_search(_grid(cells), (0, 0), (1, 1))
        assert not result.found

    @pytest.mark.parametrize("start,goal", [
        ((0, 0), (11, 14)), ((11, 14), (0, 0)), ((0, 14), (11, 0)),
        ((0, 7), (11, 7)), ((5, 0), (5, 14)),
    ])
    def test_border_endpoints(self, start, goal):
        rng = np.random.default_rng(7)
        cells = rng.random((12, 15)) < 0.2
        cells[start] = cells[goal] = 0
        _assert_same_search(_grid(cells), start, goal)

    def test_mission_world(self):
        world = CircleWorld.random(dim=2, n_obstacles=24, extent=30.0,
                                   radius_range=(1.0, 2.5), seed=5,
                                   keep_corners_free=3.0)
        planner = GridPlanner(OccupancyGrid.from_world(world, 0.2),
                              robot_radius=0.3)
        start = planner.grid.world_to_cell([1.0, 1.0])
        goal = planner.grid.world_to_cell([28.0, 28.0])
        assert _assert_same_search(planner.grid, start, goal).found

    @pytest.mark.parametrize("start,goal", [
        ((0, 0), (3, 3)), ((3, 3), (0, 0)), ((-1, 0), (3, 3)),
        ((0, 0), (3, 4)),
    ])
    def test_occupied_or_outside_endpoints_raise(self, start, goal):
        grid = _grid(np.zeros((4, 4)))
        grid.cells[0, 0] = 1
        for planner in (astar, reference):
            with pytest.raises(PlanningError):
                planner(grid, start, goal)


def _full_grid_circle(grid: OccupancyGrid, center, radius) -> np.ndarray:
    """The occupancy the full-grid formula gives one circle."""
    rows, cols = grid.cells.shape
    ys = grid.origin[1] + (np.arange(rows) + 0.5) * grid.resolution
    xs = grid.origin[0] + (np.arange(cols) + 0.5) * grid.resolution
    dx = xs[None, :] - center[0]
    dy = ys[:, None] - center[1]
    return (dx * dx + dy * dy <= radius * radius).astype(np.uint8)


class TestBoundingBoxRaster:
    def test_random_circles(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            resolution = float(rng.choice([0.05, 0.1, 0.2, 0.3, 1.0]))
            origin = tuple(rng.uniform(-5.0, 5.0, size=2))
            grid = OccupancyGrid(int(rng.integers(1, 60)),
                                 int(rng.integers(1, 60)),
                                 resolution, origin)
            extent = np.array(grid.shape[::-1]) * resolution
            # Centers range past the edges so circles overhang them.
            center = np.asarray(origin) + rng.uniform(
                -0.3, 1.3, size=2) * extent
            radius = float(rng.choice([0.0, rng.uniform(0.0, 4.0)]))
            grid.add_circle(center, radius)
            np.testing.assert_array_equal(
                grid.cells, _full_grid_circle(grid, center, radius))

    def test_radius_zero_on_a_cell_center(self):
        grid = OccupancyGrid(10, 10, resolution=0.5)
        grid.add_circle([1.25, 2.75], 0.0)
        assert grid.cells.sum() == 1 and grid.cells[5, 2] == 1

    def test_circle_wholly_outside(self):
        grid = OccupancyGrid(10, 10, resolution=1.0)
        grid.add_circle([-50.0, 4.0], 3.0)
        assert grid.cells.sum() == 0

    def test_circle_covering_the_grid(self):
        grid = OccupancyGrid(6, 4, resolution=1.0)
        grid.add_circle([3.0, 2.0], 100.0)
        assert grid.cells.all()

    def test_exact_boundary_cells(self):
        # Cell centers exactly at distance r are occupied.
        grid = OccupancyGrid(11, 11, resolution=1.0)
        grid.add_circle([5.5, 5.5], 3.0)
        np.testing.assert_array_equal(
            grid.cells, _full_grid_circle(grid, [5.5, 5.5], 3.0))
        assert grid.cells[5, 8] == 1 and grid.cells[5, 9] == 0

    def test_from_world_matches_full_grid(self):
        world = CircleWorld.random(dim=2, n_obstacles=40, extent=60.0,
                                   radius_range=(1.0, 3.0), seed=3)
        grid = OccupancyGrid.from_world(world, resolution=0.2)
        expected = np.zeros_like(grid.cells)
        for center, radius in zip(world.centers, world.radii):
            expected |= _full_grid_circle(grid, center, radius)
        np.testing.assert_array_equal(grid.cells, expected)
