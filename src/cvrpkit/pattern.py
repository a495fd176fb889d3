"""Polarized EIRP patterns: filling, sampling, rotation.

All power values are linear (mW). Interpolation is bilinear in (theta, phi)
over linear power; dB conversion happens only at I/O boundaries. A pattern
is always on the standard grid of its steps: roll-over ("distributed")
axes are a file layout, which patternio.read_pattern places on that grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ANGLE_TOL_DEG, AngularGrid, Direction


@dataclass(frozen=True)
class PolarizedPattern:
    """EIRP samples (mW) in two orthogonal polarizations on an angular grid."""

    grid: AngularGrid
    eirp_theta_mw: np.ndarray
    eirp_phi_mw: np.ndarray
    frequency_hz: float = 28e9
    label: str = ""
    measured: np.ndarray | None = None  # False marks cells absent in source data

    def __post_init__(self):
        shape = (self.grid.n_theta, self.grid.n_phi)
        et = np.ascontiguousarray(self.eirp_theta_mw, dtype=float)
        ep = np.ascontiguousarray(self.eirp_phi_mw, dtype=float)
        if et.shape != shape or ep.shape != shape:
            raise ValueError(f"EIRP matrices must have shape {shape}")
        # NaN fails both comparisons, so it is rejected with -inf and +inf.
        if not (((et >= 0) & (et < np.inf)).all() and ((ep >= 0) & (ep < np.inf)).all()):
            raise ValueError("EIRP values must be finite, non-negative linear power")
        if not 0 < self.frequency_hz < math.inf:
            raise ValueError("frequency_hz must be positive and finite")
        meas = self.measured
        if meas is not None:
            meas = np.ascontiguousarray(meas, dtype=bool)
            if meas.shape != shape:
                raise ValueError(f"measured mask must have shape {shape}")
            if meas.all():
                meas = None
            else:
                meas.flags.writeable = False
        et.flags.writeable = False
        ep.flags.writeable = False
        object.__setattr__(self, "eirp_theta_mw", et)
        object.__setattr__(self, "eirp_phi_mw", ep)
        object.__setattr__(self, "measured", meas)

    @property
    def total_mw(self) -> np.ndarray:
        return self.eirp_theta_mw + self.eirp_phi_mw


def isotropic(eirp_mw: float = 1.0, grid: AngularGrid | None = None,
              frequency_hz: float = 28e9, label: str = "isotropic") -> PolarizedPattern:
    """Isotropic pattern with the power split evenly between polarizations."""
    if grid is None:
        grid = AngularGrid.standard()
    half = np.full((grid.n_theta, grid.n_phi), eirp_mw / 2.0)
    return PolarizedPattern(grid, half, half.copy(), frequency_hz, label)


def remap_to_standard(p: PolarizedPattern) -> PolarizedPattern:
    """Return p unchanged: every pattern is already on the standard grid,
    because read_pattern places a roll-over file's rows there as it reads
    them. Kept so that remap_to_standard(read_pattern(path)) still works."""
    return p


def fill_unmeasured(p: PolarizedPattern, fill_mw: float = 0.0) -> PolarizedPattern:
    """Set every unmeasured cell to fill_mw in both polarizations."""
    if not 0 <= fill_mw < math.inf:  # NaN fails too
        raise ValueError("fill power must be finite and non-negative")
    if p.measured is None:
        return p
    hole = ~p.measured
    et = p.eirp_theta_mw.copy()
    ep = p.eirp_phi_mw.copy()
    et[hole] = fill_mw
    ep[hole] = fill_mw
    return PolarizedPattern(p.grid, et, ep, p.frequency_hz, p.label, None)


def _axis_nodes(q, step: float, n: int, wrap: bool):
    """Bracketing node indices (k0, k1) and the fraction toward k1 of each
    query on the axis 0, step, ..., (n - 1) * step. Queries within 1e-9 deg
    of a node snap to it. phi wraps modulo 360; theta lies in [0, 180], and
    its last ring is its own upper neighbour."""
    q = np.asarray(q, dtype=float)
    x = (q % 360.0 if wrap else q) / step
    k0 = np.floor(x).astype(int)
    frac = x - k0
    snap = ANGLE_TOL_DEG / step
    hi = frac > 1.0 - snap
    k0 += hi
    frac[hi | (frac < snap)] = 0.0
    if wrap:
        k0 = k0 % n
        return k0, (k0 + 1) % n, frac
    return k0, np.minimum(k0 + 1, n - 1), frac


def _sample(grid: AngularGrid, theta_deg, phi_deg, *fields) -> tuple[np.ndarray, ...]:
    """Vectorized bilinear samples of each field on a grid; the
    bracketing nodes and fractions are computed once for all of them."""
    i0, i1, ft = _axis_nodes(theta_deg, grid.dtheta_deg, grid.n_theta, wrap=False)
    j0, j1, fp = _axis_nodes(phi_deg, grid.dphi_deg, grid.n_phi, wrap=True)
    return tuple((1 - ft) * ((1 - fp) * v[i0, j0] + fp * v[i0, j1])
                 + ft * ((1 - fp) * v[i1, j0] + fp * v[i1, j1])
                 for v in fields)


def sample_bilinear(p: PolarizedPattern, d: Direction) -> tuple[float, float]:
    """Bilinear-interpolated (EIRP_theta, EIRP_phi) in mW at a direction.

    Exact grid-node queries (within 1e-9 deg) return stored values; phi
    wraps modulo 360.
    """
    et, ep = _sample(p.grid, [d.theta_deg], [d.phi_deg], p.eirp_theta_mw, p.eirp_phi_mw)
    return float(et[0]), float(ep[0])


def rotate_about_y(p: PolarizedPattern, alpha_deg: float) -> PolarizedPattern:
    """Rotate a pattern about the y-axis by alpha_deg, resampled on its grid.

    Each output direction is mapped through the inverse rotation and the
    source is sampled bilinearly; per-polarization power is transported as
    a scalar (no polarization-basis re-projection). An output cell is
    measured only if every source node with a nonzero weight is measured.
    """
    if not math.isfinite(alpha_deg):
        raise ValueError(f"rotation angle alpha_deg must be finite, got {alpha_deg:g}")
    if alpha_deg == 0.0:
        return p
    g = p.grid
    t, phi = np.radians(g.theta_deg)[:, None], np.radians(g.phi_deg)
    st = np.sin(t)
    ux, uy, uz = st * np.cos(phi), st * np.sin(phi), np.cos(t)
    beta = np.radians(-alpha_deg)
    cb, sb = np.cos(beta), np.sin(beta)
    x = ux * cb + uz * sb
    z = -ux * sb + uz * cb
    ts = np.degrees(np.arccos(np.clip(z, -1.0, 1.0)))
    ps = np.degrees(np.arctan2(uy, x)) % 360.0
    fields = (p.eirp_theta_mw, p.eirp_phi_mw)
    if p.measured is not None:
        # Weights are non-negative, so the sampled blind indicator is exactly
        # zero only where no blind node carries weight.
        fields += ((~p.measured).astype(float),)
    et, ep, *blind = (v.reshape(x.shape) for v in _sample(g, ts.ravel(), ps.ravel(), *fields))
    label = f"{p.label} (rotated {alpha_deg:g} deg about y)" if p.label else ""
    return PolarizedPattern(g, et, ep, p.frequency_hz, label,
                            blind[0] == 0.0 if blind else None)
