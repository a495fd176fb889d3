"""Spherical sampling grids and directions.

Two axis conventions are supported:

* standard: theta in [0, 180], phi in [0, 360)
* distributed: roll-over-turntable axes, theta in [-180, 180), phi in [0, 180]
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
            if theta[0] < -ANGLE_TOL_DEG or theta[-1] > 180 + ANGLE_TOL_DEG:
                raise ValueError("standard convention requires theta in [0, 180]")
            if phi[0] < -ANGLE_TOL_DEG or phi[-1] >= 360 - ANGLE_TOL_DEG:
                raise ValueError("standard convention requires phi in [0, 360)")
        else:
            if theta[0] < -180 - ANGLE_TOL_DEG or theta[-1] >= 180 - ANGLE_TOL_DEG:
                raise ValueError("distributed convention requires theta in [-180, 180)")
            if phi[0] < -ANGLE_TOL_DEG or phi[-1] > 180 + ANGLE_TOL_DEG:
                raise ValueError("distributed convention requires phi in [0, 180]")
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

    @property
    def phi_spans_circle(self) -> bool:
        return abs(self.n_phi * self.dphi_deg - 360.0) <= 1e-6

    @classmethod
    def standard(cls, dtheta_deg: float = 1.5, dphi_deg: float = 1.5) -> "AngularGrid":
        """Full-sphere standard grid: theta 0..180, phi 0..360-dphi."""
        if not (dtheta_deg > 0 and dphi_deg > 0):
            raise ValueError("grid steps must be positive")
        n_t = round(180.0 / dtheta_deg)
        n_p = round(360.0 / dphi_deg)
        if abs(n_t * dtheta_deg - 180.0) > ANGLE_TOL_DEG:
            raise ValueError("dtheta must divide 180 degrees")
        if abs(n_p * dphi_deg - 360.0) > ANGLE_TOL_DEG:
            raise ValueError("dphi must divide 360 degrees")
        theta = np.arange(n_t + 1) * dtheta_deg
        phi = np.arange(n_p) * dphi_deg
        return cls(theta, phi, dtheta_deg, dphi_deg, Convention.STANDARD)


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


def sph_to_unit(theta_deg, phi_deg):
    """Unit vectors for (theta, phi) in degrees; broadcasts."""
    t = np.radians(theta_deg)
    p = np.radians(phi_deg)
    st = np.sin(t)
    return np.stack([st * np.cos(p), st * np.sin(p), np.cos(t)], axis=-1)


def unit_to_sph(u):
    """(theta, phi) in degrees from unit vectors; phi in [0, 360)."""
    u = np.asarray(u, dtype=float)
    z = np.clip(u[..., 2], -1.0, 1.0)
    theta = np.degrees(np.arccos(z))
    phi = np.degrees(np.arctan2(u[..., 1], u[..., 0])) % 360.0
    return theta, phi


def angular_distance_deg(theta1, phi1, theta2, phi2):
    """Great-circle angle in degrees between directions given in degrees."""
    t1 = np.radians(theta1)
    t2 = np.radians(theta2)
    dp = np.radians(np.asarray(phi1, dtype=float) - np.asarray(phi2, dtype=float))
    c = np.cos(t1) * np.cos(t2) + np.sin(t1) * np.sin(t2) * np.cos(dp)
    return np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))
