"""The process-wide course store: plan each mission course once.

Rasterizing a world and running A* over it is the one expensive step of
a mission that no compute tier, battery, payload, sensor or workload
perturbation changes.  :func:`ensure_course` is the single place a
course is resolved: missions (:func:`~repro.system.mission.run_mission`
and :func:`~repro.system.mission.sweep_compute_tiers` without an
explicit course), fleet populations and studies, the mission objective
and the benchmark runners all go through it.

Courses are keyed by a content fingerprint
(:func:`repro.engine.fingerprint.fingerprint`) of the planning inputs:
the world's arrays, start, goal, inflation radius, lap count and grid
resolution.  Two separately built but equal worlds therefore share one
entry, and a garbage-collected world can never alias another's course.
The store is bounded (:data:`COURSE_STORE_SIZE`, least recently used
entry dropped first) and lock-guarded, and its courses are read-only:
every array of a stored :class:`~repro.system.mission.Course` has
``writeable = False``, so no caller can corrupt a course another study
shares.

A content key costs a fraction of a millisecond, far less than
planning, but far more than one rollout of the fleet engine.  Callers
resolving many configs therefore pass a per-call *memo*: a dict keyed
by the identity of ``(world, start, goal)`` plus radius and laps.
Configs derived with :func:`dataclasses.replace` share those objects,
so a study asks the store once per distinct key.  Each memo entry pins
the objects whose ids form its key, so a recycled id cannot alias a
stale course while the memo lives.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.engine.fingerprint import fingerprint
from repro.system.mission import (
    PLAN_RESOLUTION_M,
    Course,
    MissionConfig,
    plan_course,
)

__all__ = ["COURSE_STORE_SIZE", "ensure_course", "lookup_course"]

#: Courses the store keeps; past this bound the least recently used
#: one is dropped.
COURSE_STORE_SIZE = 16

_STORE: Dict[str, Course] = {}
_LOCK = threading.Lock()


def _content_key(config: MissionConfig) -> str:
    """Fingerprint of everything that determines the planned course."""
    return fingerprint({
        "world": config.world,
        "start": np.asarray(config.start, dtype=float),
        "goal": np.asarray(config.goal, dtype=float),
        "robot_radius_m": float(config.robot_radius_m),
        "laps": int(config.laps),
        "resolution_m": PLAN_RESOLUTION_M,
    })


def _stored_course(config: MissionConfig) -> Tuple[Course, bool]:
    """The store's course for ``config``, planning it on a miss.

    Returns ``(course, planned)``.  Planning runs outside the lock; if
    two threads plan the same key at once, the first insert wins and
    both return that course.
    """
    key = _content_key(config)
    with _LOCK:
        course = _STORE.pop(key, None)
        if course is not None:
            _STORE[key] = course
            return course, False
    planned = plan_course(config)
    for array in (planned.waypoints, planned.start, planned.cumulative_m):
        array.flags.writeable = False
    with _LOCK:
        course = _STORE.setdefault(key, planned)
        while len(_STORE) > COURSE_STORE_SIZE:
            del _STORE[next(iter(_STORE))]
    return course, True


def _memo_key(config: MissionConfig) -> Tuple:
    return (id(config.world), id(config.start), id(config.goal),
            config.robot_radius_m, config.laps)


def lookup_course(config: MissionConfig, memo: Optional[Dict] = None
                  ) -> Tuple[Course, Optional[bool]]:
    """The course of ``config``, through the identity ``memo`` if given.

    Returns ``(course, planned)``: ``planned`` is ``None`` when the
    memo answered, otherwise whether the store had to plan the course
    (``False`` means it was found in the store).
    """
    if memo is None:
        return _stored_course(config)
    key = _memo_key(config)
    entry = memo.get(key)
    if entry is not None:
        return entry[-1], None
    course, planned = _stored_course(config)
    memo[key] = (config.world, config.start, config.goal, course)
    return course, planned


def ensure_course(config: MissionConfig,
                  memo: Optional[Dict] = None) -> Course:
    """The planned course of ``config``, planned at most once per
    process for equal planning inputs.

    Args:
        config: The mission whose course is wanted.
        memo: Optional per-call identity memo (see the module
            docstring); pass the same dict while resolving many configs
            that share a world, so the content key is computed once.

    Raises:
        ConfigurationError: For non-2-D worlds.
        SimulationError: When no path exists through the world.
    """
    return lookup_course(config, memo)[0]
