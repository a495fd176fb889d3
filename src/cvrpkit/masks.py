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
from .pattern import PolarizedPattern

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


def window_bounds(center: Direction, theta_fov_deg: float,
                  phi_fov_deg: float) -> SphericalMask:
    """Rectangular window of the given angular extents around a center."""
    if not 0.0 <= theta_fov_deg <= 360.0 or not 0.0 <= phi_fov_deg <= 360.0:
        raise ValueError("FoV extents must be in [0, 360] degrees")
    tmin = center.theta_deg - theta_fov_deg / 2.0
    tmax = center.theta_deg + theta_fov_deg / 2.0
    pmin = center.phi_deg - phi_fov_deg / 2.0
    pmax = center.phi_deg + phi_fov_deg / 2.0
    return SphericalMask.window(tmin, tmax, pmin, pmax)


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
    tt, pp = np.meshgrid(grid.theta_deg, grid.phi_deg, indexing="ij")
    in_theta = ((tt >= m.theta_min_deg - ANGLE_TOL_DEG)
                & (tt <= m.theta_max_deg + ANGLE_TOL_DEG))
    extent = m.phi_extent_deg
    if extent >= 360.0 - ANGLE_TOL_DEG:
        in_phi = np.ones_like(in_theta)
    else:
        rel = (pp - m.phi_min_deg) % 360.0
        in_phi = (rel <= extent + ANGLE_TOL_DEG) | (rel >= 360.0 - ANGLE_TOL_DEG)
    return in_theta & in_phi


def apply_mask(p: PolarizedPattern, m: SphericalMask) -> PolarizedPattern:
    """Zero both polarizations outside the mask; inside values unchanged."""
    if m.kind is MaskKind.FULL_SPHERE:
        return p
    member = membership(m, p.grid)
    et = np.where(member, p.eirp_theta_mw, 0.0)
    ep = np.where(member, p.eirp_phi_mw, 0.0)
    return PolarizedPattern(p.grid, et, ep, p.frequency_hz, p.label, p.measured)
