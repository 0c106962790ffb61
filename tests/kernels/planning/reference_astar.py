"""Reference A*: the scalar, tuple-keyed planner the flat-index
:func:`repro.kernels.planning.astar.astar` replaced, kept verbatim as a
test oracle.

The production planner must pop the same nodes in the same order, so it
returns the identical path, cost and expansion count, and charges the
same :class:`~repro.core.profile.OpCounter` totals, as this one.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.core.profile import OpCounter
from repro.errors import PlanningError
from repro.kernels.planning.astar import AstarResult
from repro.kernels.planning.occupancy import OccupancyGrid

_SQRT2 = float(np.sqrt(2.0))
_NEIGHBORS: Tuple[Tuple[int, int, float], ...] = (
    (-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
    (-1, -1, _SQRT2), (-1, 1, _SQRT2), (1, -1, _SQRT2), (1, 1, _SQRT2),
)


def _octile(a: Tuple[int, int], b: Tuple[int, int]) -> float:
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    return max(dr, dc) + (_SQRT2 - 1.0) * min(dr, dc)


def astar(grid: OccupancyGrid, start: Tuple[int, int],
          goal: Tuple[int, int],
          counter: Optional[OpCounter] = None) -> AstarResult:
    """A* over an occupancy grid with the octile-distance heuristic.

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

    open_heap: List[Tuple[float, int, Tuple[int, int]]] = []
    g_cost = {start: 0.0}
    parent = {start: start}
    closed = set()
    tie = 0
    heapq.heappush(open_heap, (_octile(start, goal), tie, start))
    expanded = 0

    while open_heap:
        _, __, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        closed.add(node)
        expanded += 1
        if node == goal:
            break
        for dr, dc, step in _NEIGHBORS:
            nxt = (node[0] + dr, node[1] + dc)
            if nxt in closed or not grid.is_free(*nxt):
                continue
            # Forbid diagonal moves that cut an occupied corner.
            if dr != 0 and dc != 0:
                if (not grid.is_free(node[0] + dr, node[1])
                        or not grid.is_free(node[0], node[1] + dc)):
                    continue
            tentative = g_cost[node] + step
            if tentative < g_cost.get(nxt, float("inf")):
                g_cost[nxt] = tentative
                parent[nxt] = node
                tie += 1
                heapq.heappush(
                    open_heap, (tentative + _octile(nxt, goal), tie, nxt)
                )
    if counter is not None:
        # ~8 neighbor evaluations per expansion, ~12 int ops each, plus
        # O(log n) heap compares.
        counter.add_int_ops(expanded * (8 * 12.0 + 2.0 * np.log2(expanded + 2)))
        counter.add_read(8.0 * expanded * 10)
        counter.add_write(8.0 * expanded * 4)
        counter.note_working_set(8.0 * len(g_cost) * 4)

    if goal not in closed:
        return AstarResult(path=[], cost=float("inf"), expanded=expanded)

    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return AstarResult(path=path, cost=g_cost[goal], expanded=expanded)
