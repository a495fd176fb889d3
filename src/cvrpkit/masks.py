"""Spherical masks: full sphere, caps, rectangular windows.

A mask carries its analytic solid angle. Grid membership is tested at
node centers; caps use the great-circle distance to the cap center.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .grid import ANGLE_TOL_DEG, AngularGrid, Convention, Direction, angular_distance_deg

FOUR_PI = 4.0 * math.pi


class MaskKind(enum.Enum):
    FULL_SPHERE = "full_sphere"
    CAP = "cap"
    WINDOW = "window"


@dataclass(frozen=True)
class SphericalMask:
    kind: MaskKind
    center: Direction | None = None
    half_angle_deg: float | None = None
    theta_min_deg: float | None = None
    theta_max_deg: float | None = None
    phi_min_deg: float | None = None
    phi_max_deg: float | None = None
    solid_angle_sr: float = 0.0

    @classmethod
    def full_sphere(cls) -> "SphericalMask":
        return cls(MaskKind.FULL_SPHERE, solid_angle_sr=FOUR_PI)

    @classmethod
    def cap(cls, center: Direction, half_angle_deg: float) -> "SphericalMask":
        if not 0.0 < half_angle_deg <= 180.0:
            raise ValueError("cap half-angle must be in (0, 180] degrees")
        if half_angle_deg == 180.0:
            sr = FOUR_PI
        else:
            sr = 2.0 * math.pi * (1.0 - math.cos(math.radians(half_angle_deg)))
        return cls(MaskKind.CAP, center=center, half_angle_deg=half_angle_deg,
                   solid_angle_sr=sr)

    @classmethod
    def window(cls, theta_min_deg: float, theta_max_deg: float,
               phi_min_deg: float, phi_max_deg: float) -> "SphericalMask":
        tmin = min(max(theta_min_deg, 0.0), 180.0)
        tmax = min(max(theta_max_deg, 0.0), 180.0)
        if not tmin < tmax:
            raise ValueError("window requires theta_min < theta_max after clamping")
        extent = phi_max_deg - phi_min_deg
        if not 0.0 < extent <= 360.0:
            raise ValueError("window phi extent must be in (0, 360] degrees")
        pmin = phi_min_deg % 360.0
        sr = (math.radians(extent)
              * (math.cos(math.radians(tmin)) - math.cos(math.radians(tmax))))
        return cls(MaskKind.WINDOW, theta_min_deg=tmin, theta_max_deg=tmax,
                   phi_min_deg=pmin, phi_max_deg=pmin + extent, solid_angle_sr=sr)

    @property
    def phi_extent_deg(self) -> float:
        if self.kind is not MaskKind.WINDOW:
            raise ValueError("phi extent only defined for window masks")
        return self.phi_max_deg - self.phi_min_deg


def _cap_distance_deg(center: Direction, grid: AngularGrid) -> np.ndarray:
    """Great-circle distance (degrees) from center to every grid node."""
    return angular_distance_deg(grid.theta_deg[:, None], grid.phi_deg[None, :],
                                center.theta_deg, center.phi_deg)


def membership(m: SphericalMask, grid: AngularGrid) -> np.ndarray:
    """Boolean node-center membership matrix on a standard grid."""
    if grid.convention is not Convention.STANDARD:
        raise ValueError("masks operate on standard-convention grids")
    if m.kind is MaskKind.FULL_SPHERE:
        return np.ones((grid.n_theta, grid.n_phi), dtype=bool)
    if m.kind is MaskKind.CAP:
        return _cap_distance_deg(m.center, grid) <= m.half_angle_deg + ANGLE_TOL_DEG
    # A window is separable: test theta on the theta axis, phi on the phi axis.
    t = grid.theta_deg[:, None]
    in_theta = (t >= m.theta_min_deg - ANGLE_TOL_DEG) & (t <= m.theta_max_deg + ANGLE_TOL_DEG)
    rel = (grid.phi_deg - m.phi_min_deg) % 360.0  # in [0, 360): every node when the extent is 360
    in_phi = (rel <= m.phi_extent_deg + ANGLE_TOL_DEG) | (rel >= 360.0 - ANGLE_TOL_DEG)
    return in_theta & in_phi
