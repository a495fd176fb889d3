"""Polarized EIRP patterns: remapping, filling, sampling, rotation.

All power values are linear (mW). Interpolation is bilinear in (theta, phi)
over linear power; dB conversion happens only at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ANGLE_TOL_DEG, AngularGrid, Convention, Direction

_REL_TOL = 1e-9


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

    def measured_mask(self) -> np.ndarray:
        if self.measured is None:
            return np.ones((self.grid.n_theta, self.grid.n_phi), dtype=bool)
        return self.measured.copy()


def isotropic(eirp_mw: float = 1.0, grid: AngularGrid | None = None,
              frequency_hz: float = 28e9, label: str = "isotropic") -> PolarizedPattern:
    """Isotropic pattern with the power split evenly between polarizations."""
    if grid is None:
        grid = AngularGrid.standard()
    half = np.full((grid.n_theta, grid.n_phi), eirp_mw / 2.0)
    return PolarizedPattern(grid, half, half.copy(), frequency_hz, label)


def _rel_diff(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return np.abs(a - b) / scale


def remap_to_standard(p: PolarizedPattern) -> PolarizedPattern:
    """Remap a distributed-axes pattern onto the standard grid of its steps.

    A sample at distributed (theta < 0, phi) lands at standard
    (-theta, phi + 180); non-negative theta samples land unchanged. Both
    grids are the full sphere of the same steps, so distributed row i
    lands on standard row |i - 180/dtheta|, and column j on j, or on
    (j + n_phi/2) mod n_phi for rows behind the pole.
    Directions never measured stay zero-filled and flagged unmeasured.
    Samples landing on one standard cell must agree to a relative 1e-9;
    the first in row-major source order is kept.
    """
    g = p.grid
    if g.convention is not Convention.DISTRIBUTED:
        raise ValueError("remap_to_standard expects a distributed-axes pattern")
    dt, dp = g.dtheta_deg, g.dphi_deg
    out_grid = AngularGrid.standard(dt, dp)
    n_t, n_p = out_grid.n_theta, out_grid.n_phi

    rows, cols = np.nonzero(p.measured_mask())  # measured cells, row-major
    back = rows < n_t - 1  # theta < 0
    target = np.abs(rows - (n_t - 1)) * n_p + (cols + back * (n_p // 2)) % n_p
    vt = p.eirp_theta_mw[rows, cols]
    vp = p.eirp_phi_mw[rows, cols]
    cells, first, group = np.unique(target, return_index=True, return_inverse=True)
    clash = ((_rel_diff(vt[first][group], vt) > _REL_TOL)
             | (_rel_diff(vp[first][group], vp) > _REL_TOL))
    if clash.any():
        i, j = divmod(int(target[clash.argmax()]), n_p)
        raise ValueError(f"conflicting duplicate samples at standard "
                         f"(theta={i * dt}, phi={j * dp}) deg")
    et = np.zeros((n_t, n_p))
    ep = np.zeros((n_t, n_p))
    meas = np.zeros((n_t, n_p), dtype=bool)
    et.flat[cells] = vt[first]
    ep.flat[cells] = vp[first]
    meas.flat[cells] = True

    # Poles are single physical directions: broadcast across phi.
    for i in (0, n_t - 1):
        pole_cols = np.flatnonzero(meas[i])
        if pole_cols.size == 0:
            continue
        for arr in (et, ep):
            ref = arr[i, pole_cols[0]]
            if (_rel_diff(arr[i, pole_cols], ref) > _REL_TOL).any():
                raise ValueError(f"conflicting duplicate samples at pole theta={i * dt} deg")
            arr[i, :] = ref
        meas[i, :] = True

    return PolarizedPattern(out_grid, et, ep, p.frequency_hz, p.label, meas)


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
    """Vectorized bilinear samples of each field on a standard grid; the
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
    if p.grid.convention is not Convention.STANDARD:
        raise ValueError("sample_bilinear expects a standard-convention pattern")
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
    if p.grid.convention is not Convention.STANDARD:
        raise ValueError("rotate_about_y expects a standard-convention pattern")
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
