"""Numpy-only reference values for checking cvrpkit's outputs.

Written without the library's integration paths: cap membership comes
from unit-vector dot products, sums are plain ``np.sum`` over sin(theta)
weights, and interpolation is spelled out from the grid step. Only grid
axes and pattern arrays are read from library objects.
"""

from __future__ import annotations

import math

import numpy as np

FOUR_PI = 4.0 * math.pi
TOL_DEG = 1e-9  # node-centre membership tolerance, as documented by the library


class GridOracle:
    """Quadrature weights and unit vectors of one standard grid."""

    def __init__(self, theta_deg, phi_deg):
        self.theta = np.asarray(theta_deg, dtype=float)
        self.phi = np.asarray(phi_deg, dtype=float)
        self.dtheta = float(self.theta[1] - self.theta[0])
        self.dphi = float(self.phi[1] - self.phi[0])
        t = np.radians(self.theta)[:, None]
        p = np.radians(self.phi)[None, :]
        self.unit = np.stack(np.broadcast_arrays(
            np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)), axis=-1)
        s = np.sin(np.radians(self.theta))
        s[(self.theta <= TOL_DEG) | (self.theta >= 180.0 - TOL_DEG)] = 0.0
        self.weight = np.broadcast_to(s[:, None], (self.theta.size, self.phi.size))
        self.domega = math.radians(self.dtheta) * math.radians(self.dphi)

    def cap_member(self, theta_deg: float, phi_deg: float, half_deg: float) -> np.ndarray:
        t, p = math.radians(theta_deg), math.radians(phi_deg)
        c = np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])
        return self.unit @ c >= math.cos(math.radians(min(half_deg + TOL_DEG, 180.0)))

    def window_member(self, tmin: float, tmax: float, pmin: float, extent: float) -> np.ndarray:
        in_t = (self.theta >= tmin - TOL_DEG) & (self.theta <= tmax + TOL_DEG)
        rel = (self.phi - pmin % 360.0) % 360.0
        in_p = (rel <= extent + TOL_DEG) | (rel >= 360.0 - TOL_DEG)
        return in_t[:, None] & in_p[None, :]

    def trp(self, total_mw: np.ndarray) -> float:
        return self.domega * float(np.sum(total_mw * self.weight)) / FOUR_PI

    def cvrp(self, total_mw: np.ndarray, member: np.ndarray) -> float:
        """Mean EIRP over the member cells, scaled like the library's TRP."""
        w = self.weight * member
        full = float(np.sum(self.weight))
        return (float(np.sum(total_mw * w)) / float(np.sum(w))
                * self.domega * full / FOUR_PI)

    def prp(self, total_mw: np.ndarray, theta1: float, theta2: float) -> float:
        lo = np.maximum(self.theta - self.dtheta / 2.0, theta1)
        hi = np.minimum(self.theta + self.dtheta / 2.0, theta2)
        frac = np.clip((hi - lo) / self.dtheta, 0.0, 1.0)
        return self.domega * float(np.sum(total_mw * self.weight * frac[:, None])) / FOUR_PI

    def point(self, total_mw: np.ndarray, theta_deg: float, phi_deg: float) -> float:
        """Bilinear value at an interior direction (theta strictly inside the axis)."""
        x = (theta_deg - self.theta[0]) / self.dtheta
        y = (phi_deg % 360.0 - self.phi[0]) / self.dphi
        i, j = int(math.floor(x)), int(math.floor(y))
        fx, fy = x - i, y - j
        n_p = self.phi.size
        j0, j1 = j % n_p, (j + 1) % n_p
        return ((1 - fx) * ((1 - fy) * total_mw[i, j0] + fy * total_mw[i, j1])
                + fx * ((1 - fy) * total_mw[i + 1, j0] + fy * total_mw[i + 1, j1]))

    def isotropic_mw(self, eirp_mw: float) -> float:
        """What the grid's quadrature makes of a flat pattern: eirp * (h/2) cot(h/2)."""
        h = math.radians(self.dtheta)
        return eirp_mw * (h / 2.0) / math.tan(h / 2.0)


def read_pattern_csv(path: str) -> tuple[GridOracle, np.ndarray]:
    """Oracle and total EIRP (mW) of a pattern file that lists every cell."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh
                if not line.startswith(("#", "theta_deg")) and line.strip()]
    a = np.array(rows, dtype=float)
    theta, phi = np.unique(a[:, 0]), np.unique(a[:, 1])
    total = np.zeros((theta.size, phi.size))
    total[np.searchsorted(theta, a[:, 0]), np.searchsorted(phi, a[:, 1])] = (
        10.0 ** (a[:, 2] / 10.0) + 10.0 ** (a[:, 3] / 10.0))
    return GridOracle(theta, phi), total


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def ulps_apart(a: float, b: float) -> int:
    """Number of representable doubles between two positive floats."""
    ia = int(np.array(a, dtype=np.float64).view(np.int64))
    ib = int(np.array(b, dtype=np.float64).view(np.int64))
    return abs(ia - ib)


def dbm(mw: float) -> float:
    """10 log10(mW), floored at -200 dBm as the library prints it."""
    return max(10.0 * math.log10(mw), -200.0) if mw > 0 else -200.0
