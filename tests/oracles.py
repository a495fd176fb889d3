"""Independent numerical oracles used by the tests.

Everything here is deliberately written without reusing the library's
integration paths: closed-form array patterns, fine-grid quadrature,
Monte-Carlo cap integration, and smooth random pattern generators.
"""

from __future__ import annotations

import math

import numpy as np

from cvrpkit.grid import ANGLE_TOL_DEG, AngularGrid, sph_to_unit, unit_to_sph
from cvrpkit.pattern import PolarizedPattern

FOUR_PI = 4.0 * math.pi


def cosine_array_intensity(theta_deg, phi_deg, rows: int = 2, cols: int = 8,
                           spacing_wl: float = 0.5):
    """Closed-form radiation intensity of the uniform boresight cosine array.

    Separable Dirichlet kernels times the cos^2 element power pattern;
    independent of the library's per-element superposition loop.
    """
    theta = np.radians(np.asarray(theta_deg, dtype=float))
    phi = np.radians(np.asarray(phi_deg, dtype=float))
    st = np.sin(theta)
    x = 2.0 * math.pi * spacing_wl * st * np.cos(phi)
    y = 2.0 * math.pi * spacing_wl * st * np.sin(phi)

    def dirichlet(psi, n):
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.sin(n * psi / 2.0) / np.sin(psi / 2.0)
        return np.where(np.abs(np.sin(psi / 2.0)) < 1e-12, float(n), val)

    af2 = dirichlet(x, cols) ** 2 * dirichlet(y, rows) ** 2
    elem2 = np.where(np.degrees(theta) <= 90.0, np.cos(theta) ** 2, 0.0)
    return elem2 * af2


def fine_grid_quadrature(intensity_fn, step_deg: float = 0.1) -> tuple[float, float]:
    """(integral over sphere, peak value) of an intensity function of
    (theta_deg, phi_deg), via a midpoint-style Riemann sum."""
    theta = np.arange(0.0, 180.0 + step_deg / 2, step_deg)
    phi = np.arange(0.0, 360.0, step_deg)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    vals = intensity_fn(tt, pp)
    s = np.sin(np.radians(theta))
    s[0] = 0.0
    s[-1] = 0.0
    d = math.radians(step_deg)
    return d * d * float(np.sum(vals * s[:, None])), float(vals.max())


def lobe_mixture(rng: np.random.Generator):
    """Smooth random pattern: constant floor plus 2-3 exponential lobes.

    Returns a function of unit vectors (..., 3) -> linear power.
    """
    k = int(rng.integers(2, 4))
    centers = sph_to_unit(np.degrees(np.arccos(rng.uniform(-1, 1, k))),
                          rng.uniform(0, 360, k))
    sharpness = rng.uniform(2.0, 12.0, k)
    weights = rng.uniform(0.5, 2.0, k)

    def f(u):
        vals = 0.2 * np.ones(u.shape[:-1])
        for mu, kap, w in zip(centers, sharpness, weights):
            vals = vals + w * np.exp(kap * (u @ mu - 1.0))
        return vals

    return f


def pattern_from_function(f, grid: AngularGrid) -> PolarizedPattern:
    """Sample a unit-vector power function onto a theta-polarized pattern."""
    tt, pp = np.meshgrid(grid.theta_deg, grid.phi_deg, indexing="ij")
    vals = f(sph_to_unit(tt, pp))
    return PolarizedPattern(grid, vals, np.zeros_like(vals), label="synthetic")


def mc_cap_mean(f, center_theta_deg: float, center_phi_deg: float,
                half_angle_deg: float, n_samples: int,
                rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of f over a spherical cap.

    Directions are drawn uniformly on the cap (uniform cos(angle) about
    the center) and f is evaluated exactly at each sample.
    """
    z = rng.uniform(math.cos(math.radians(half_angle_deg)), 1.0, n_samples)
    psi = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    s = np.sqrt(1.0 - z * z)
    local = np.stack([s * np.cos(psi), s * np.sin(psi), z], axis=-1)
    axis = sph_to_unit(center_theta_deg, center_phi_deg)
    helper = (np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9
              else np.array([1.0, 0.0, 0.0]))
    e1 = np.cross(helper, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    pts = local[:, 0:1] * e1 + local[:, 1:2] * e2 + local[:, 2:3] * axis
    samples = f(pts)
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n_samples))


def sample_component_reference(values: np.ndarray, grid: AngularGrid,
                               theta_deg: np.ndarray, phi_deg: np.ndarray) -> np.ndarray:
    """Bilinear sampling of one polarization matrix, as the library wrote
    it when the theta and phi axes each had their own copy of the
    floor/snap/clamp-or-wrap logic. sample_bilinear and rotate_about_y
    must match it bit for bit."""
    t0 = grid.theta_deg[0]
    dt, dp = grid.dtheta_deg, grid.dphi_deg
    n_t, n_p = grid.n_theta, grid.n_phi

    tq = np.clip(np.asarray(theta_deg, dtype=float), grid.theta_deg[0], grid.theta_deg[-1])
    ti = (tq - t0) / dt
    i0 = np.floor(ti).astype(int)
    ft = ti - i0
    snap_t = ANGLE_TOL_DEG / dt
    hi = ft > 1.0 - snap_t
    i0[hi] += 1
    ft[hi] = 0.0
    ft[ft < snap_t] = 0.0
    i0 = np.clip(i0, 0, n_t - 1)
    i1 = np.minimum(i0 + 1, n_t - 1)

    p0 = grid.phi_deg[0]
    pq = np.asarray(phi_deg, dtype=float)
    if grid.phi_spans_circle:
        pj = ((pq - p0) % 360.0) / dp
    else:
        pj = (np.clip(pq, grid.phi_deg[0], grid.phi_deg[-1]) - p0) / dp
    j0 = np.floor(pj).astype(int)
    fp = pj - j0
    snap_p = ANGLE_TOL_DEG / dp
    hj = fp > 1.0 - snap_p
    j0[hj] += 1
    fp[hj] = 0.0
    fp[fp < snap_p] = 0.0
    if grid.phi_spans_circle:
        j0 = j0 % n_p
        j1 = (j0 + 1) % n_p
    else:
        j0 = np.clip(j0, 0, n_p - 1)
        j1 = np.minimum(j0 + 1, n_p - 1)

    v00 = values[i0, j0]
    v01 = values[i0, j1]
    v10 = values[i1, j0]
    v11 = values[i1, j1]
    return ((1 - ft) * ((1 - fp) * v00 + fp * v01)
            + ft * ((1 - fp) * v10 + fp * v11))


def rotate_about_y_reference(p: PolarizedPattern,
                             alpha_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """(EIRP_theta, EIRP_phi) of rotate_about_y(p, alpha_deg), resampled
    with sample_component_reference; the rotation geometry is the library's."""
    g = p.grid
    tt, pp = np.meshgrid(g.theta_deg, g.phi_deg, indexing="ij")
    u = sph_to_unit(tt, pp)
    beta = np.radians(-alpha_deg)
    cb, sb = np.cos(beta), np.sin(beta)
    x = u[..., 0] * cb + u[..., 2] * sb
    z = -u[..., 0] * sb + u[..., 2] * cb
    ts, ps = unit_to_sph(np.stack([x, u[..., 1], z], axis=-1))
    return tuple(sample_component_reference(v, g, ts.ravel(), ps.ravel()).reshape(tt.shape)
                 for v in (p.eirp_theta_mw, p.eirp_phi_mw))
