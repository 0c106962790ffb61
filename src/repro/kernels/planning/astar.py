"""Grid A* search.

The classic 8-connected occupancy-grid planner: optimal up to grid
resolution, and the standard software baseline autonomy stacks ship (e.g.
ROS ``nav2``).  Instrumented so its expand/heap work shows up as
``op_class="search"`` — the divergent, pointer-heavy class accelerators
struggle with (§2.5).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.profile import DivergenceClass, OpCounter, WorkloadProfile
from repro.errors import PlanningError
from repro.kernels.planning.occupancy import OccupancyGrid

_SQRT2 = float(np.sqrt(2.0))
_INF = float("inf")

#: ``state`` bytes of the padded flat grid :func:`astar` searches.
_OPEN, _BLOCKED, _CLOSED = 0, 1, 2


@dataclass
class AstarResult:
    """Outcome of one A* query.

    Attributes:
        path: Cell path from start to goal (inclusive); empty if no path.
        cost: Path cost in cells (diagonals cost sqrt(2)); ``inf`` if none.
        expanded: Nodes popped from the open list.
        found: Whether a path was found.
    """

    path: List[Tuple[int, int]]
    cost: float
    expanded: int

    @property
    def found(self) -> bool:
        return bool(self.path)


def astar(grid: OccupancyGrid, start: Tuple[int, int],
          goal: Tuple[int, int],
          counter: Optional[OpCounter] = None) -> AstarResult:
    """A* over an occupancy grid with the octile-distance heuristic.

    The search runs on a flat index of the grid padded with one blocked
    cell on every side, so a neighbour is an integer offset and the
    bounds test disappears.  One ``bytearray`` holds each cell's state
    (open, blocked or closed).  Neighbours are tried in a fixed order
    (the four orthogonal moves, then the four diagonals) and heap ties
    break on a push counter, which fixes the pop order and so the
    returned path.  The octile heuristic is evaluated only for pushed
    cells, from per-row and per-column distances to the goal.

    Args:
        grid: The (already inflated) occupancy grid.
        start, goal: ``(row, col)`` cells; both must be free.
        counter: Optional op instrumentation.

    Raises:
        PlanningError: If start or goal is occupied/out of bounds.
    """
    if not grid.is_free(*start):
        raise PlanningError(f"start cell {start} is not free")
    if not grid.is_free(*goal):
        raise PlanningError(f"goal cell {goal} is not free")

    rows, cols = grid.shape
    width = cols + 2
    padded = np.ones((rows + 2, width), dtype=np.uint8)
    padded[1:-1, 1:-1] = grid.cells != 0
    state = bytearray(padded.tobytes())
    size = len(state)
    goal_r, goal_c = int(goal[0]), int(goal[1])
    source = (int(start[0]) + 1) * width + int(start[1]) + 1
    target = (goal_r + 1) * width + goal_c + 1
    # Distances to the goal by padded row and by padded column.
    row_gap = [abs(row - 1 - goal_r) for row in range(rows + 2)]
    col_gap = [abs(col - 1 - goal_c) for col in range(width)]
    # Octile distance is max(dr, dc) + extra * min(dr, dc).
    extra = _SQRT2 - 1.0
    # Moves are (offset, step, row move, column move); diagonals add
    # the two orthogonal cells whose occupancy forbids cutting the
    # corner.
    orthogonal = ((-width, 1.0, -1, 0), (width, 1.0, 1, 0),
                  (-1, 1.0, 0, -1), (1, 1.0, 0, 1))
    diagonal = tuple((dr * width + dc, _SQRT2, dr, dc, dr * width, dc)
                     for dr, dc in ((-1, -1), (-1, 1), (1, -1), (1, 1)))

    g_cost = [_INF] * size
    parent = [0] * size
    g_cost[source] = 0.0
    parent[source] = source
    dr, dc = row_gap[source // width], col_gap[source % width]
    open_heap: List[Tuple[float, int, int]] = [
        (max(dr, dc) + extra * min(dr, dc), 0, source)]
    push, pop = heapq.heappush, heapq.heappop
    tie = 0
    expanded = 0

    while open_heap:
        node = pop(open_heap)[2]
        if state[node] == _CLOSED:
            continue
        state[node] = _CLOSED
        expanded += 1
        if node == target:
            break
        base = g_cost[node]
        row, col = divmod(node, width)
        for offset, step, move_r, move_c in orthogonal:
            nxt = node + offset
            if state[nxt]:
                continue
            tentative = base + step
            if tentative < g_cost[nxt]:
                g_cost[nxt] = tentative
                parent[nxt] = node
                tie += 1
                dr, dc = row_gap[row + move_r], col_gap[col + move_c]
                if dr >= dc:
                    estimate = dr + extra * dc
                else:
                    estimate = dc + extra * dr
                push(open_heap, (tentative + estimate, tie, nxt))
        for offset, step, move_r, move_c, side_r, side_c in diagonal:
            nxt = node + offset
            if (state[nxt] or state[node + side_r] == _BLOCKED
                    or state[node + side_c] == _BLOCKED):
                continue
            tentative = base + step
            if tentative < g_cost[nxt]:
                g_cost[nxt] = tentative
                parent[nxt] = node
                tie += 1
                dr, dc = row_gap[row + move_r], col_gap[col + move_c]
                if dr >= dc:
                    estimate = dr + extra * dc
                else:
                    estimate = dc + extra * dr
                push(open_heap, (tentative + estimate, tie, nxt))
    if counter is not None:
        # ~8 neighbor evaluations per expansion, ~12 int ops each, plus
        # O(log n) heap compares.
        counter.add_int_ops(expanded * (8 * 12.0 + 2.0 * np.log2(expanded + 2)))
        counter.add_read(8.0 * expanded * 10)
        counter.add_write(8.0 * expanded * 4)
        counter.note_working_set(8.0 * (size - g_cost.count(_INF)) * 4)

    if state[target] != _CLOSED:
        return AstarResult(path=[], cost=_INF, expanded=expanded)

    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    cells = []
    for index in path:
        row, col = divmod(index, width)
        cells.append((row - 1, col - 1))
    return AstarResult(path=cells, cost=g_cost[target], expanded=expanded)


class GridPlanner:
    """Convenience wrapper: world-coordinate A* over an inflated grid."""

    def __init__(self, grid: OccupancyGrid, robot_radius: float = 0.0):
        self.grid = grid.inflate(robot_radius) if robot_radius > 0 else grid
        self.counter = OpCounter(name="astar")

    def plan(self, start_xy, goal_xy) -> AstarResult:
        """Plan between world-frame points."""
        start = self.grid.world_to_cell(start_xy)
        goal = self.grid.world_to_cell(goal_xy)
        return astar(self.grid, start, goal, counter=self.counter)

    def path_to_world(self, result: AstarResult) -> np.ndarray:
        """Convert a cell path to an ``(n, 2)`` world-frame polyline."""
        if not result.found:
            return np.zeros((0, 2))
        return np.array([self.grid.cell_to_world(r, c)
                         for r, c in result.path])

    def profile(self) -> WorkloadProfile:
        """Measured profile of all queries so far (search class)."""
        return self.counter.profile(parallel_fraction=0.2,
                                    divergence=DivergenceClass.HIGH,
                                    op_class="search")
