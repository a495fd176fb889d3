"""Spherical sampling grids and directions.

A grid is always the full sphere of its steps, in one of two axis
conventions:

* standard: theta 0..180 and phi 0..360-dphi, with steps that divide
  180 and 360 degrees
* distributed: roll-over-turntable axes, theta -180..180-dtheta and
  phi 0..180, with both steps dividing 180 degrees; only remapping
  reads these

Every metric is one quadrature on a standard grid's nodes: numpy sums
the integrand along phi within each theta ring, and one math.fsum reduces
the ring sums weighted by sin(theta) (exactly 0 on the pole rings) and
scaled by the cell solid angle dOmega.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

ANGLE_TOL_DEG = 1e-9
FOUR_PI = 4.0 * math.pi

# The most cells a grid may have; 0.05 deg steps still fit.
_MAX_CELLS = 2 ** 25


class Convention(enum.Enum):
    STANDARD = "standard"
    DISTRIBUTED = "distributed"


@dataclass(frozen=True)
class AngularGrid:
    """Equispaced theta/phi sample axes in degrees, derived from the steps:
    the full sphere of the steps in the convention (see the module
    docstring). Grids compare and hash by steps and convention."""

    dtheta_deg: float
    dphi_deg: float
    convention: Convention = Convention.STANDARD
    theta_deg: np.ndarray = field(init=False, repr=False, compare=False)
    phi_deg: np.ndarray = field(init=False, repr=False, compare=False)
    _ring_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dtheta_deg, dphi_deg = self.dtheta_deg, self.dphi_deg
        if not (0 < dtheta_deg < np.inf and 0 < dphi_deg < np.inf):  # NaN fails too
            raise ValueError(f"grid steps must be positive and finite "
                             f"(dtheta_deg={dtheta_deg:g}, dphi_deg={dphi_deg:g})")
        standard = self.convention is Convention.STANDARD
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
            theta, phi = np.arange(n_t + 1) * dtheta_deg, np.arange(n_p) * dphi_deg
        else:
            theta, phi = np.arange(2 * n_t) * dtheta_deg - 180.0, np.arange(n_p + 1) * dphi_deg
        s = np.sin(np.radians(theta))
        s[[0, -1]] = 0.0  # the pole rings of a standard grid
        for name, axis in (("theta_deg", theta), ("phi_deg", phi), ("_ring_weights", s)):
            axis.flags.writeable = False
            object.__setattr__(self, name, axis)

    @property
    def n_theta(self) -> int:
        return self.theta_deg.size

    @property
    def n_phi(self) -> int:
        return self.phi_deg.size

    @classmethod
    def standard(cls, dtheta_deg: float = 1.5, dphi_deg: float = 1.5) -> "AngularGrid":
        """The standard grid: theta 0..180, phi 0..360-dphi."""
        return cls(dtheta_deg, dphi_deg)

    def integrate(self, ring_sums) -> float:
        """The grid quadrature (see the module docstring) of a field given
        its per-ring sums along phi."""
        if self.convention is not Convention.STANDARD:
            raise ValueError("the quadrature needs a standard-convention grid")
        domega = math.radians(self.dtheta_deg) * math.radians(self.dphi_deg)
        return domega * math.fsum((self._ring_weights * ring_sums).tolist())


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
