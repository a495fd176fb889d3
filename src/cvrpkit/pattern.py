"""Polarized EIRP patterns: remapping, filling, sampling, rotation.

All power values are linear (mW). Interpolation is bilinear in (theta, phi)
over linear power; dB conversion happens only at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    ANGLE_TOL_DEG,
    AngularGrid,
    Convention,
    Direction,
    sph_to_unit,
    unit_to_sph,
)

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
    if eirp_mw < 0:
        raise ValueError("EIRP must be non-negative")
    if grid is None:
        grid = AngularGrid.standard()
    half = np.full((grid.n_theta, grid.n_phi), eirp_mw / 2.0)
    return PolarizedPattern(grid, half, half.copy(), frequency_hz, label)


def _rel_diff(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return np.abs(a - b) / scale


def remap_to_standard(p: PolarizedPattern) -> PolarizedPattern:
    """Remap a distributed-axes pattern onto the standard grid.

    A sample at distributed (theta < 0, phi) lands at standard
    (-theta, phi + 180); non-negative theta samples land unchanged.
    Directions never measured stay zero-filled and flagged unmeasured.
    Samples landing on one standard cell must agree to a relative 1e-9;
    the first in row-major source order is kept.
    """
    g = p.grid
    if g.convention is not Convention.DISTRIBUTED:
        raise ValueError("remap_to_standard expects a distributed-axes pattern")
    dt, dp = g.dtheta_deg, g.dphi_deg
    if abs(round(180.0 / dp) * dp - 180.0) > ANGLE_TOL_DEG:
        raise ValueError("phi step must divide 180 degrees for remapping")
    out_grid = AngularGrid.standard(dt, dp)
    n_t, n_p = out_grid.n_theta, out_grid.n_phi

    back = g.theta_deg < -ANGLE_TOL_DEG
    t_std = np.where(back, -g.theta_deg, g.theta_deg)
    it = np.rint(t_std / dt).astype(np.intp)
    off = (it >= n_t) | (np.abs(it * dt - t_std) > ANGLE_TOL_DEG)
    if off.any():
        theta = float(g.theta_deg[off.argmax()])
        raise ValueError(f"theta={theta} deg does not land on the standard grid")

    rows, cols = np.nonzero(p.measured_mask())  # measured cells, row-major
    p_std = (g.phi_deg[cols] + np.where(back[rows], 180.0, 0.0)) % 360.0
    jt = np.rint(p_std / dp).astype(np.intp) % n_p
    off = np.abs((jt * dp - p_std + 180.0) % 360.0 - 180.0) > ANGLE_TOL_DEG
    if off.any():
        phi = float(g.phi_deg[cols[off.argmax()]])
        raise ValueError(f"phi={phi} deg does not land on the standard grid")

    target = it[rows] * n_p + jt
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


def _axis_nodes(q, axis: np.ndarray, step: float, wrap: bool):
    """Bracketing node indices (k0, k1) and the fraction toward k1 of each
    query on an equispaced axis. Queries within 1e-9 deg of a node snap to
    it; off-axis queries wrap modulo 360 if wrap, else clamp to the ends."""
    q = np.asarray(q, dtype=float)
    if wrap:
        x = ((q - axis[0]) % 360.0) / step
    else:
        x = (np.clip(q, axis[0], axis[-1]) - axis[0]) / step
    k0 = np.floor(x).astype(int)
    frac = x - k0
    snap = ANGLE_TOL_DEG / step
    hi = frac > 1.0 - snap
    k0 += hi
    frac[hi | (frac < snap)] = 0.0
    n = axis.size
    if wrap:
        k0 = k0 % n
        return k0, (k0 + 1) % n, frac
    k0 = np.clip(k0, 0, n - 1)
    return k0, np.minimum(k0 + 1, n - 1), frac


def _sample(p: PolarizedPattern, theta_deg, phi_deg) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bilinear samples of both polarizations; the bracketing
    nodes and fractions are computed once for the two."""
    g = p.grid
    i0, i1, ft = _axis_nodes(theta_deg, g.theta_deg, g.dtheta_deg, wrap=False)
    j0, j1, fp = _axis_nodes(phi_deg, g.phi_deg, g.dphi_deg, wrap=g.phi_spans_circle)
    return tuple((1 - ft) * ((1 - fp) * v[i0, j0] + fp * v[i0, j1])
                 + ft * ((1 - fp) * v[i1, j0] + fp * v[i1, j1])
                 for v in (p.eirp_theta_mw, p.eirp_phi_mw))


def sample_bilinear(p: PolarizedPattern, d: Direction) -> tuple[float, float]:
    """Bilinear-interpolated (EIRP_theta, EIRP_phi) in mW at a direction.

    Exact grid-node queries (within 1e-9 deg) return stored values; phi
    wraps modulo 360 and theta clamps to the sampled rings.
    """
    if p.grid.convention is not Convention.STANDARD:
        raise ValueError("sample_bilinear expects a standard-convention pattern")
    et, ep = _sample(p, [d.theta_deg], [d.phi_deg])
    return float(et[0]), float(ep[0])


def rotate_about_y(p: PolarizedPattern, alpha_deg: float) -> PolarizedPattern:
    """Rotate a pattern about the y-axis by alpha_deg, resampled on its grid.

    Each output direction is mapped through the inverse rotation and the
    source is sampled bilinearly; per-polarization power is transported as
    a scalar (no polarization-basis re-projection).
    """
    if p.grid.convention is not Convention.STANDARD:
        raise ValueError("rotate_about_y expects a standard-convention pattern")
    if alpha_deg == 0.0:
        return p
    g = p.grid
    tt, pp = np.meshgrid(g.theta_deg, g.phi_deg, indexing="ij")
    u = sph_to_unit(tt, pp)
    beta = np.radians(-alpha_deg)
    cb, sb = np.cos(beta), np.sin(beta)
    x = u[..., 0] * cb + u[..., 2] * sb
    z = -u[..., 0] * sb + u[..., 2] * cb
    src = np.stack([x, u[..., 1], z], axis=-1)
    ts, ps = unit_to_sph(src)
    et, ep = (v.reshape(tt.shape) for v in _sample(p, ts.ravel(), ps.ravel()))
    label = f"{p.label} (rotated {alpha_deg:g} deg about y)" if p.label else ""
    return PolarizedPattern(g, et, ep, p.frequency_hz, label)
