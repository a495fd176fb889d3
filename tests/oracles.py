"""Independent numerical oracles used by the tests.

Everything here is deliberately written without reusing the library's
integration paths: unit-vector geometry, closed-form array patterns,
direct-sum array factors, fine-grid quadrature, Monte-Carlo cap
integration, full-grid mask tests, smooth random pattern generators and
a writer of distributed-axes pattern files.
"""

from __future__ import annotations

import math

import numpy as np

from cvrpkit.arraysynth import ArraySpec, element_field, steering_weights
from cvrpkit.grid import ANGLE_TOL_DEG, AngularGrid, Direction
from cvrpkit.masks import SphericalMask
from cvrpkit.pattern import PolarizedPattern

FOUR_PI = 4.0 * math.pi


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


def direct_sum_intensity(spec: ArraySpec, theta_deg, phi_deg) -> np.ndarray:
    """Radiation intensity in the directions (theta_deg, phi_deg), with one
    complex exponential per live element: the library's array factor before
    it used Horner's rule, kept as the reference for that recurrence's
    rounding and for the analytic cap reference."""
    w = steering_weights(spec)
    u = sph_to_unit(theta_deg, phi_deg)
    sx, sy = u[..., 0], u[..., 1]
    k_s = 2.0 * math.pi * spec.spacing_wl
    af = np.zeros(sx.shape, dtype=complex)
    for row in range(spec.rows):
        for col in range(spec.cols):
            if w[row, col] == 0:
                continue
            af += w[row, col] * np.exp(1j * k_s * (col * sx + row * sy))
    field = element_field(spec.element, theta_deg) * np.abs(af)
    return field ** 2


def window_membership_reference(m: SphericalMask, grid: AngularGrid) -> np.ndarray:
    """Node-center membership of a window mask, tested cell by cell on the
    meshgrid of the axes, as the library did before it tested the axes."""
    tt, pp = np.meshgrid(grid.theta_deg, grid.phi_deg, indexing="ij")
    in_theta = ((tt >= m.theta_min_deg - ANGLE_TOL_DEG)
                & (tt <= m.theta_max_deg + ANGLE_TOL_DEG))
    rel = (pp - m.phi_min_deg) % 360.0
    in_phi = (rel <= m.phi_extent_deg + ANGLE_TOL_DEG) | (rel >= 360.0 - ANGLE_TOL_DEG)
    return in_theta & in_phi


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


def cap_frame(center_theta_deg: float, center_phi_deg: float) -> np.ndarray:
    """Orthonormal frame (e1, e2, axis) as rows, with axis at the cap center."""
    axis = sph_to_unit(center_theta_deg, center_phi_deg)
    helper = (np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9
              else np.array([1.0, 0.0, 0.0]))
    e1 = np.cross(helper, axis)
    e1 /= np.linalg.norm(e1)
    return np.stack([e1, np.cross(axis, e1), axis])


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
    samples = f(local @ cap_frame(center_theta_deg, center_phi_deg))
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n_samples))


def analytic_cap_cvrp(spec: ArraySpec, reference_trp_mw: float, center: Direction,
                      half_angles_deg) -> list[float]:
    """CVRP (mW) of the pattern synthesized on the default 1.5 deg grid over
    caps about a center, from the array-factor formula rather than from
    grid nodes.

    Each cap is integrated in cap-centred coordinates: 64 Gauss-Legendre
    nodes in cos(rho) times 128 equispaced azimuths. The intensity is
    normalized by its Riemann sum on the 1.5 deg grid, the total that
    synthesize_eirp divides by, so the result is the mean EIRP the
    grid pattern would have if it were known between the nodes.
    """
    total, _ = fine_grid_quadrature(lambda t, p: direct_sum_intensity(spec, t, p), 1.5)
    x, wx = np.polynomial.legendre.leggauss(64)
    psi = 2.0 * math.pi * np.arange(128) / 128
    frame = cap_frame(center.theta_deg, center.phi_deg)
    out = []
    for r in half_angles_deg:
        c0 = math.cos(math.radians(r))
        z = c0 + (1.0 - c0) * (x + 1.0) / 2.0
        s = np.sqrt(1.0 - z * z)[:, None]
        local = np.stack(np.broadcast_arrays(s * np.cos(psi), s * np.sin(psi), z[:, None]),
                         axis=-1)
        intensity = direct_sum_intensity(spec, *unit_to_sph(local @ frame))
        mean = float((wx / 2.0) @ intensity.mean(axis=1))
        out.append(reference_trp_mw * FOUR_PI * mean / total)
    return out


def bilinear_nodes_reference(grid: AngularGrid, theta_deg: np.ndarray,
                             phi_deg: np.ndarray):
    """(i0, i1, ft, j0, j1, fp): the bracketing theta rings and phi columns
    of each query and its fractions toward i1 and j1, as the library wrote
    them when the theta and phi axes each had their own copy of the
    floor/snap/clamp-or-wrap logic (phi always wraps on a standard grid)."""
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
    pj = ((pq - p0) % 360.0) / dp
    j0 = np.floor(pj).astype(int)
    fp = pj - j0
    snap_p = ANGLE_TOL_DEG / dp
    hj = fp > 1.0 - snap_p
    j0[hj] += 1
    fp[hj] = 0.0
    fp[fp < snap_p] = 0.0
    j0 = j0 % n_p
    j1 = (j0 + 1) % n_p
    return i0, i1, ft, j0, j1, fp


def sample_component_reference(values: np.ndarray, grid: AngularGrid,
                               theta_deg: np.ndarray, phi_deg: np.ndarray) -> np.ndarray:
    """Bilinear sampling of one polarization matrix at the nodes of
    bilinear_nodes_reference. sample_bilinear and rotate_about_y must
    match it bit for bit."""
    i0, i1, ft, j0, j1, fp = bilinear_nodes_reference(grid, theta_deg, phi_deg)
    v00 = values[i0, j0]
    v01 = values[i0, j1]
    v10 = values[i1, j0]
    v11 = values[i1, j1]
    return ((1 - ft) * ((1 - fp) * v00 + fp * v01)
            + ft * ((1 - fp) * v10 + fp * v11))


def _rotation_sources(g: AngularGrid, alpha_deg: float):
    """Source (theta, phi) of every node of g under a rotation by alpha_deg
    about y; the rotation geometry is the library's."""
    tt, pp = np.meshgrid(g.theta_deg, g.phi_deg, indexing="ij")
    u = sph_to_unit(tt, pp)
    beta = np.radians(-alpha_deg)
    cb, sb = np.cos(beta), np.sin(beta)
    x = u[..., 0] * cb + u[..., 2] * sb
    z = -u[..., 0] * sb + u[..., 2] * cb
    ts, ps = unit_to_sph(np.stack([x, u[..., 1], z], axis=-1))
    return ts.ravel(), ps.ravel()


def rotate_about_y_reference(p: PolarizedPattern,
                             alpha_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """(EIRP_theta, EIRP_phi) of rotate_about_y(p, alpha_deg), resampled
    with sample_component_reference."""
    g = p.grid
    ts, ps = _rotation_sources(g, alpha_deg)
    return tuple(sample_component_reference(v, g, ts, ps).reshape(v.shape)
                 for v in (p.eirp_theta_mw, p.eirp_phi_mw))


def rotated_measured_reference(p: PolarizedPattern, alpha_deg: float) -> np.ndarray:
    """Measured mask of rotate_about_y(p, alpha_deg): an output cell is
    measured when each of its four bracketing source nodes either is
    measured or has a bilinear weight of exactly zero."""
    g = p.grid
    i0, i1, ft, j0, j1, fp = bilinear_nodes_reference(g, *_rotation_sources(g, alpha_deg))
    src = np.ones((g.n_theta, g.n_phi), dtype=bool) if p.measured is None else p.measured
    out = np.ones(i0.shape, dtype=bool)
    for i, wi in ((i0, 1 - ft), (i1, ft)):
        for j, wj in ((j0, 1 - fp), (j1, fp)):
            out &= src[i, j] | (wi * wj == 0.0)
    return out.reshape(src.shape)


def distributed_axes(dtheta_deg: float, dphi_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """The theta (-180..180-dtheta) and phi (0..180) axes of distributed
    (roll-over turntable) pattern files."""
    n_t, n_p = round(180.0 / dtheta_deg), round(180.0 / dphi_deg)
    return np.arange(2 * n_t) * dtheta_deg - 180.0, np.arange(n_p + 1) * dphi_deg


def write_distributed(path, dtheta_deg: float, dphi_deg: float, et: np.ndarray,
                      ep: np.ndarray, measured: np.ndarray | None = None,
                      rng: np.random.Generator | None = None, label: str = "dist"):
    """Write mW arrays on the distributed axes as a distributed pattern
    file, one row per measured cell, theta-major or shuffled by rng.

    Returns the arrays as a reader parses the file's dBm text (unlisted
    cells 0) and the file line number of each listed cell (i, j)."""
    theta, phi = distributed_axes(dtheta_deg, dphi_deg)
    if measured is None:
        measured = np.ones(et.shape, dtype=bool)
    cells = list(zip(*map(np.ndarray.tolist, np.nonzero(measured))))
    if rng is not None:
        rng.shuffle(cells)
    head = ["# format_version: cvrp-pattern/1", "# convention: distributed",
            f"# dtheta_deg: {dtheta_deg!r}", f"# dphi_deg: {dphi_deg!r}", f"# label: {label}",
            "theta_deg,phi_deg,eirp_theta_dbm,eirp_phi_dbm"]
    read = np.zeros((2,) + et.shape)
    body, lines = [], {}
    for (i, j) in cells:
        dbm = ["-inf" if v <= 0 else format(10.0 * math.log10(v), ".12g")
               for v in (et[i, j], ep[i, j])]
        read[:, i, j] = [10.0 ** (float(x) / 10.0) for x in dbm]
        lines[i, j] = len(head) + len(body) + 1
        body.append(f"{float(theta[i])!r},{float(phi[j])!r},{dbm[0]},{dbm[1]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head + body) + "\n")
    return read[0], read[1], lines
