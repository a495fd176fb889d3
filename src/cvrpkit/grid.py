"""Spherical sampling grids and directions.

A grid is always the full sphere of its steps, in one of two axis
conventions:

* standard: theta 0..180 and phi 0..360-dphi, with steps that divide
  180 and 360 degrees
* distributed: roll-over-turntable axes, theta -180..180-dtheta and
  phi 0..180, with both steps dividing 180 degrees; only remapping
  reads these
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

ANGLE_TOL_DEG = 1e-9

# The most cells a grid may have; 0.05 deg steps still fit.
_MAX_CELLS = 2 ** 25


class Convention(enum.Enum):
    STANDARD = "standard"
    DISTRIBUTED = "distributed"


def _axes(dtheta_deg: float, dphi_deg: float,
          convention: Convention) -> tuple[np.ndarray, np.ndarray]:
    """The theta and phi axes of the full sphere with these steps."""
    if not (0 < dtheta_deg < np.inf and 0 < dphi_deg < np.inf):  # NaN fails too
        raise ValueError(f"grid steps must be positive and finite "
                         f"(dtheta_deg={dtheta_deg:g}, dphi_deg={dphi_deg:g})")
    standard = convention is Convention.STANDARD
    phi_span = 360.0 if standard else 180.0
    n_t, n_p = 180.0 / dtheta_deg, phi_span / dphi_deg
    cells = (n_t + 1) * n_p if standard else 2 * n_t * (n_p + 1)
    if not cells <= _MAX_CELLS:  # before anything is rounded or allocated
        raise ValueError(f"a {dtheta_deg:g} x {dphi_deg:g} deg grid has {cells:.0f} cells, "
                         f"more than the limit of {_MAX_CELLS}")
    n_t, n_p = round(n_t), round(n_p)
    if abs(n_t * dtheta_deg - 180.0) > ANGLE_TOL_DEG:
        raise ValueError(f"dtheta_deg={dtheta_deg:g} must divide 180 degrees")
    if abs(n_p * dphi_deg - phi_span) > ANGLE_TOL_DEG:
        raise ValueError(f"dphi_deg={dphi_deg:g} must divide {phi_span:g} degrees")
    if standard:
        if n_p < 2:
            raise ValueError("phi axis needs at least two samples")
        return np.arange(n_t + 1) * dtheta_deg, np.arange(n_p) * dphi_deg
    return np.arange(2 * n_t) * dtheta_deg - 180.0, np.arange(n_p + 1) * dphi_deg


@dataclass(frozen=True)
class AngularGrid:
    """Equispaced theta/phi sample axes in degrees: the full sphere of the
    steps in the convention (see the module docstring)."""

    theta_deg: np.ndarray
    phi_deg: np.ndarray
    dtheta_deg: float
    dphi_deg: float
    convention: Convention = Convention.STANDARD

    def __post_init__(self):
        theta, phi = _axes(self.dtheta_deg, self.dphi_deg, self.convention)
        for axis, given in ((theta, self.theta_deg), (phi, self.phi_deg)):
            given = np.asarray(given, dtype=float)
            if given.shape != axis.shape or not (np.abs(given - axis) <= ANGLE_TOL_DEG).all():
                span = ("theta 0..180 and phi 0..360-dphi" if self.convention is Convention.STANDARD
                        else "theta -180..180-dtheta and phi 0..180")
                raise ValueError(f"{self.convention.value} convention requires the full sphere: "
                                 f"{span}")
        theta.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "theta_deg", theta)
        object.__setattr__(self, "phi_deg", phi)

    @property
    def n_theta(self) -> int:
        return self.theta_deg.size

    @property
    def n_phi(self) -> int:
        return self.phi_deg.size

    @classmethod
    def standard(cls, dtheta_deg: float = 1.5, dphi_deg: float = 1.5) -> "AngularGrid":
        """The standard grid: theta 0..180, phi 0..360-dphi."""
        return cls(*_axes(dtheta_deg, dphi_deg, Convention.STANDARD), dtheta_deg, dphi_deg)


@dataclass(frozen=True)
class Direction:
    """Observation direction, normalized to the standard convention."""

    theta_deg: float
    phi_deg: float

    def __post_init__(self):
        theta, phi = float(self.theta_deg), float(self.phi_deg)
        if not (-ANGLE_TOL_DEG <= theta <= 180.0 + ANGLE_TOL_DEG and np.isfinite(phi)):
            raise ValueError(f"direction needs theta in [0, 180] deg and a finite phi, "
                             f"got ({theta:g}, {phi:g})")
        object.__setattr__(self, "theta_deg", min(max(theta, 0.0), 180.0))
        object.__setattr__(self, "phi_deg", phi % 360.0)


def angular_distance_deg(theta1, phi1, theta2, phi2):
    """Great-circle angle in degrees between directions given in degrees."""
    t1 = np.radians(theta1)
    t2 = np.radians(theta2)
    dp = np.radians(np.asarray(phi1, dtype=float) - np.asarray(phi2, dtype=float))
    # In place: grid-sized temporaries freed on every call cost page faults.
    c = np.asarray(np.sin(t1) * np.sin(t2) * np.cos(dp))
    c += np.cos(t1) * np.cos(t2)
    np.arccos(np.clip(c, -1.0, 1.0, out=c), out=c)
    return np.degrees(c, out=c)[()]
