"""Spherical sampling grids and directions.

Two axis conventions are supported:

* standard: always the full sphere, theta 0..180 and phi 0..360-dphi,
  with steps that divide 180 and 360 degrees
* distributed: roll-over-turntable axes, any equispaced sub-range of
  theta in [-180, 180), phi in [0, 180]; only remapping reads these
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

ANGLE_TOL_DEG = 1e-9


class Convention(enum.Enum):
    STANDARD = "standard"
    DISTRIBUTED = "distributed"


def _check_equispaced(values: np.ndarray, step: float, name: str) -> None:
    if values.ndim != 1 or values.size < 2:
        raise ValueError(f"{name} axis needs at least two samples")
    diffs = np.diff(values)
    if np.any(np.abs(diffs - step) > ANGLE_TOL_DEG):
        raise ValueError(f"{name} axis is not equispaced with step {step} deg")
    if step <= 0:
        raise ValueError(f"{name} step must be positive")


def _standard_counts(dtheta_deg: float, dphi_deg: float) -> tuple[int, int]:
    """Theta intervals and phi nodes of the full-sphere grid with these steps."""
    if not (0 < dtheta_deg < np.inf and 0 < dphi_deg < np.inf):  # NaN fails too
        raise ValueError(f"grid steps must be positive and finite "
                         f"(dtheta_deg={dtheta_deg:g}, dphi_deg={dphi_deg:g})")
    n_t = round(180.0 / dtheta_deg)
    n_p = round(360.0 / dphi_deg)
    if abs(n_t * dtheta_deg - 180.0) > ANGLE_TOL_DEG:
        raise ValueError(f"dtheta_deg={dtheta_deg:g} must divide 180 degrees")
    if abs(n_p * dphi_deg - 360.0) > ANGLE_TOL_DEG:
        raise ValueError(f"dphi_deg={dphi_deg:g} must divide 360 degrees")
    return n_t, n_p


def _outside_distributed(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Where theta leaves [-180, 180) or phi leaves [0, 180] degrees."""
    return ((theta < -180.0 - ANGLE_TOL_DEG) | (theta >= 180.0 - ANGLE_TOL_DEG)
            | (phi < -ANGLE_TOL_DEG) | (phi > 180.0 + ANGLE_TOL_DEG))


@dataclass(frozen=True)
class AngularGrid:
    """Equispaced theta/phi sample axes in degrees."""

    theta_deg: np.ndarray
    phi_deg: np.ndarray
    dtheta_deg: float
    dphi_deg: float
    convention: Convention = Convention.STANDARD

    def __post_init__(self):
        theta = np.asarray(self.theta_deg, dtype=float)
        phi = np.asarray(self.phi_deg, dtype=float)
        _check_equispaced(theta, self.dtheta_deg, "theta")
        _check_equispaced(phi, self.dphi_deg, "phi")
        if self.convention is Convention.STANDARD:
            n_t, n_p = _standard_counts(self.dtheta_deg, self.dphi_deg)
            if (theta.size != n_t + 1 or phi.size != n_p
                    or abs(theta[0]) > ANGLE_TOL_DEG or abs(phi[0]) > ANGLE_TOL_DEG):
                raise ValueError("standard convention requires the full sphere: "
                                 "theta 0..180 and phi 0..360-dphi")
        elif _outside_distributed(theta[[0, -1]], phi[[0, -1]]).any():
            raise ValueError("distributed convention requires theta in [-180, 180) "
                             "and phi in [0, 180]")
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
        n_t, n_p = _standard_counts(dtheta_deg, dphi_deg)
        return cls(np.arange(n_t + 1) * dtheta_deg, np.arange(n_p) * dphi_deg,
                   dtheta_deg, dphi_deg)


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
