"""Spherical masks: caps and rectangular windows.

A mask holds only its geometry; its analytic solid angle derives from
it. The full sphere is the 180 deg cap. Grid membership is tested at
node centers; caps use the great-circle distance to the cap center.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import ANGLE_TOL_DEG, AngularGrid, Direction, angular_distance_deg


class MaskKind(enum.Enum):
    CAP = "cap"
    WINDOW = "window"


_GEOMETRY = {MaskKind.CAP: ("center", "half_angle_deg"),
             MaskKind.WINDOW: ("theta_min_deg", "theta_max_deg", "phi_min_deg", "phi_extent_deg")}


@dataclass(frozen=True)
class SphericalMask:
    """A cap (center, half-angle) or a window (theta range, clamped to
    [0, 180]; phi start, taken modulo 360; phi extent)."""

    kind: MaskKind
    center: Direction | None = None
    half_angle_deg: float | None = None
    theta_min_deg: float | None = None
    theta_max_deg: float | None = None
    phi_min_deg: float | None = None
    phi_extent_deg: float | None = None

    def __post_init__(self):
        names = _GEOMETRY[self.kind]
        if {f.name for f in fields(self)[1:] if getattr(self, f.name) is not None} != set(names):
            raise ValueError(f"a {self.kind.value} mask takes exactly {', '.join(names)}")
        if self.kind is MaskKind.CAP:
            if not 0.0 < self.half_angle_deg <= 180.0:  # NaN fails too
                raise ValueError("cap half-angle must be in (0, 180] degrees")
            return
        tmin = min(max(self.theta_min_deg, 0.0), 180.0)
        tmax = min(max(self.theta_max_deg, 0.0), 180.0)
        if not tmin < tmax:
            raise ValueError("window requires theta_min < theta_max after clamping")
        if not 0.0 < self.phi_extent_deg <= 360.0:
            raise ValueError("window phi extent must be in (0, 360] degrees")
        if not math.isfinite(self.phi_min_deg):
            raise ValueError("window phi_min must be finite")
        object.__setattr__(self, "theta_min_deg", tmin)
        object.__setattr__(self, "theta_max_deg", tmax)
        object.__setattr__(self, "phi_min_deg", self.phi_min_deg % 360.0)

    @classmethod
    def full_sphere(cls) -> "SphericalMask":
        return cls.cap(Direction(0.0, 0.0), 180.0)

    @classmethod
    def cap(cls, center: Direction, half_angle_deg: float) -> "SphericalMask":
        return cls(MaskKind.CAP, center=center, half_angle_deg=half_angle_deg)

    @classmethod
    def window(cls, theta_min_deg: float, theta_max_deg: float,
               phi_min_deg: float, phi_max_deg: float) -> "SphericalMask":
        return cls(MaskKind.WINDOW, theta_min_deg=theta_min_deg, theta_max_deg=theta_max_deg,
                   phi_min_deg=phi_min_deg, phi_extent_deg=phi_max_deg - phi_min_deg)

    @property
    def solid_angle_sr(self) -> float:
        """Analytic solid angle of the region (4*pi for the 180 deg cap)."""
        if self.kind is MaskKind.CAP:
            return 2.0 * math.pi * (1.0 - math.cos(math.radians(self.half_angle_deg)))
        return (math.radians(self.phi_extent_deg)
                * (math.cos(math.radians(self.theta_min_deg))
                   - math.cos(math.radians(self.theta_max_deg))))


def _cap_distance_deg(center: Direction, grid: AngularGrid) -> np.ndarray:
    """Great-circle distance (degrees) from center to every grid node."""
    return angular_distance_deg(grid.theta_deg[:, None], grid.phi_deg[None, :],
                                center.theta_deg, center.phi_deg)


def membership(m: SphericalMask, grid: AngularGrid) -> np.ndarray:
    """Boolean node-center membership matrix on a grid."""
    if m.kind is MaskKind.CAP:
        return _cap_distance_deg(m.center, grid) <= m.half_angle_deg + ANGLE_TOL_DEG
    # A window is separable: test theta on the theta axis, phi on the phi axis.
    t = grid.theta_deg[:, None]
    in_theta = (t >= m.theta_min_deg - ANGLE_TOL_DEG) & (t <= m.theta_max_deg + ANGLE_TOL_DEG)
    rel = (grid.phi_deg - m.phi_min_deg) % 360.0  # in [0, 360): every node when the extent is 360
    in_phi = (rel <= m.phi_extent_deg + ANGLE_TOL_DEG) | (rel >= 360.0 - ANGLE_TOL_DEG)
    return in_theta & in_phi
