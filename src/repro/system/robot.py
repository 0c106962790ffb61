"""UAV vehicle physics: mass, hover power, battery.

The physical couplings §2.4 is about live here: every gram of compute
raises hover power superlinearly (actuator-disk ``P ∝ m^1.5``), and every
watt of compute TDP drains the same battery the rotors use.  Calibrated to
small-quadrotor numbers (~1 kg, ~100 W hover).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

GRAVITY = 9.81
AIR_DENSITY = 1.225


@dataclass(frozen=True)
class BatteryModel:
    """A LiPo-class battery.

    Attributes:
        capacity_wh: Nameplate energy.
        mass_kg: Pack mass.
        usable_fraction: Depth-of-discharge limit (LiPo packs are not
            drained past ~80-90%).
    """

    capacity_wh: float = 50.0
    mass_kg: float = 0.35
    usable_fraction: float = 0.85

    def __post_init__(self) -> None:
        if self.capacity_wh <= 0 or self.mass_kg <= 0:
            raise ConfigurationError(
                "battery capacity and mass must be > 0"
            )
        if not 0.0 < self.usable_fraction <= 1.0:
            raise ConfigurationError(
                "usable_fraction must be in (0, 1]"
            )

    @property
    def usable_energy_j(self) -> float:
        return self.capacity_wh * 3600.0 * self.usable_fraction

    @staticmethod
    def from_capacity(capacity_wh: float,
                      specific_energy_wh_per_kg: float = 150.0
                      ) -> "BatteryModel":
        """Size a pack by capacity at LiPo-class specific energy."""
        if capacity_wh <= 0 or specific_energy_wh_per_kg <= 0:
            raise ConfigurationError("capacity and density must be > 0")
        return BatteryModel(
            capacity_wh=capacity_wh,
            mass_kg=capacity_wh / specific_energy_wh_per_kg,
        )


@dataclass(frozen=True)
class UavPhysics:
    """A small multirotor airframe.

    Attributes:
        frame_mass_kg: Airframe + motors + avionics (no battery/compute).
        rotor_disk_area_m2: Total actuator disk area.
        figure_of_merit: Rotor+ESC efficiency (ideal power / real power).
        max_speed_m_s: Structural/controller speed limit.
        max_accel_m_s2: Braking deceleration available for stopping.
        avionics_power_w: Always-on base electronics power.
    """

    frame_mass_kg: float = 0.8
    rotor_disk_area_m2: float = 0.13
    figure_of_merit: float = 0.6
    max_speed_m_s: float = 15.0
    max_accel_m_s2: float = 5.0
    avionics_power_w: float = 3.0

    def __post_init__(self) -> None:
        if self.frame_mass_kg <= 0 or self.rotor_disk_area_m2 <= 0:
            raise ConfigurationError("mass and disk area must be > 0")
        if not 0.0 < self.figure_of_merit <= 1.0:
            raise ConfigurationError("figure_of_merit must be in (0, 1]")
        if self.max_speed_m_s <= 0 or self.max_accel_m_s2 <= 0:
            raise ConfigurationError("speed and accel limits must be > 0")

    def hover_power_w(self, total_mass_kg: float) -> float:
        """Momentum-theory hover power at the given all-up mass."""
        if total_mass_kg <= 0:
            raise ConfigurationError(
                f"total mass must be > 0, got {total_mass_kg}"
            )
        thrust = total_mass_kg * GRAVITY
        ideal = thrust ** 1.5 / math.sqrt(
            2.0 * AIR_DENSITY * self.rotor_disk_area_m2
        )
        return ideal / self.figure_of_merit + self.avionics_power_w

    def hover_power_column(self, total_mass_kg: np.ndarray,
                           out: Optional[np.ndarray] = None
                           ) -> np.ndarray:
        """:meth:`hover_power_w` over a 1-D column of all-up masses,
        bit for bit.

        The same operations in the same association order, as numpy
        column operations, except ``thrust ** 1.5``: that stays a
        CPython ``pow`` per element, because numpy's SIMD power rounds
        differently from it on a few per mille of inputs.  A mass
        ``<= 0`` raises the scalar method's error for the first such
        element; NaN passes through, as it does there.
        """
        masses = np.asarray(total_mass_kg, dtype=float)
        invalid = np.flatnonzero(masses <= 0)
        if len(invalid):
            self.hover_power_w(masses[invalid[0]].item())  # raises
        if out is None:
            out = np.empty(len(masses))
        out[:] = [thrust ** 1.5 for thrust in (masses * GRAVITY).tolist()]
        np.divide(out, math.sqrt(2.0 * AIR_DENSITY
                                 * self.rotor_disk_area_m2), out=out)
        np.divide(out, self.figure_of_merit, out=out)
        np.add(out, self.avionics_power_w, out=out)
        return out

    def safe_speed_m_s(self, sensing_range_m: float,
                       response_latency_s: float) -> float:
        """Max speed at which the vehicle can stop inside its sensing
        horizon given its perception-to-action latency.

        The vehicle travels ``v * t_lat`` before reacting, then brakes
        over ``v^2 / (2 a)``; both must fit inside ``sensing_range``::

            v t + v^2 / 2a <= d   =>   v = a (sqrt(t^2 + 2 d / a) - t)

        This is the latency-to-velocity coupling at the heart of the
        §2.4 experiment: faster compute → shorter ``t`` → higher safe
        speed, with diminishing returns once braking dominates.
        """
        if sensing_range_m <= 0:
            raise ConfigurationError("sensing_range_m must be > 0")
        if response_latency_s < 0:
            raise ConfigurationError("response_latency_s must be >= 0")
        a = self.max_accel_m_s2
        t = response_latency_s
        v = a * (math.sqrt(t * t + 2.0 * sensing_range_m / a) - t)
        return min(v, self.max_speed_m_s)

    def flight_time_s(self, battery: BatteryModel,
                      compute_mass_kg: float,
                      compute_power_w: float) -> float:
        """Hover endurance with the given compute payload installed."""
        if compute_mass_kg < 0 or compute_power_w < 0:
            raise ConfigurationError(
                "compute mass and power must be >= 0"
            )
        total_mass = (self.frame_mass_kg + battery.mass_kg
                      + compute_mass_kg)
        power = self.hover_power_w(total_mass) + compute_power_w
        return battery.usable_energy_j / power
