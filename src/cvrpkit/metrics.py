"""Radiated-power metrics: TRP, PRP, CVRP, and FoV sweeps.

Patterns live on the standard grid, which always covers the full sphere;
unmeasured cells count as 0 mW. Every metric is the grid's quadrature
(AngularGrid.integrate). TRP integrates the total EIRP over the sphere.
CVRP divides the masked power by the mask's area fraction: the same
quadrature over per-ring member counts, over that of the whole sphere
(n_phi per ring). A full-sphere mask has exactly those counts, so its
area fraction is exactly 1.0 and full-sphere CVRP equals TRP bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ANGLE_TOL_DEG, FOUR_PI, AngularGrid, Direction
from .masks import MaskKind, SphericalMask, _cap_distance_deg, membership
from .pattern import PolarizedPattern, sample_bilinear

#: Cap half-angles of the default FoV sweep (degrees); 0 means point FoV.
DEFAULT_FOV_SWEEP = (180.0, 165.0, 150.0, 135.0, 120.0, 105.0, 90.0,
                     60.0, 45.0, 30.0, 21.0, 15.0, 9.0, 6.0, 3.0, 0.0)

#: PRP theta bands (theta1, theta2) in degrees.
PRP_PRESETS = {
    "uhrp": (0.0, 90.0),
    "n75prp": (60.0, 90.0),
    "nhprp": (60.0, 120.0),
}


def _check_fovs(fovs: list[float]) -> None:
    """The sweep FoV rule: one or more half-angles, strictly decreasing,
    within [0, 180] deg."""
    if not fovs:
        raise ValueError("a sweep needs at least one FoV")
    if not all(0.0 <= f <= 180.0 for f in fovs):  # NaN fails too
        raise ValueError("sweep FoVs must lie in [0, 180] degrees")
    if any(b >= a for a, b in zip(fovs, fovs[1:])):
        raise ValueError("sweep FoVs must be strictly decreasing (no duplicates)")


@dataclass(frozen=True)
class CvrpSweep:
    """Ordered (FoV half-angle, CVRP) pairs for one pattern."""

    entries: tuple[tuple[float, float], ...]
    pattern_label: str = ""

    def __post_init__(self):
        _check_fovs([f for f, _ in self.entries])
        if any(v < 0 for _, v in self.entries):
            raise ValueError("CVRP values must be non-negative")
        object.__setattr__(self, "entries", tuple((float(f), float(v))
                                                  for f, v in self.entries))

    @property
    def fov_deg(self) -> tuple[float, ...]:
        return tuple(f for f, _ in self.entries)

    @property
    def cvrp_mw(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)


def _area_fraction(member: np.ndarray, grid: AngularGrid) -> float:
    """Quadrature weight of the member cells over that of the sphere."""
    w_mask = grid.integrate(member.sum(axis=1))
    if w_mask <= 0.0:
        return 0.0
    w_full = grid.integrate(np.full(grid.n_theta, grid.n_phi))
    return w_mask / w_full  # exactly 1.0 when every cell is a member


def _describe(m: SphericalMask) -> str:
    if m.kind is MaskKind.CAP:
        return f"a {m.half_angle_deg:g} deg cap at ({m.center.theta_deg:g}, {m.center.phi_deg:g})"
    return (f"the window theta {m.theta_min_deg:g}..{m.theta_max_deg:g}, phi "
            f"{m.phi_min_deg:g}..{m.phi_min_deg + m.phi_extent_deg:g} deg")


def _masked_cvrp(grid: AngularGrid, total_mw: np.ndarray, member: np.ndarray,
                 m: SphericalMask) -> float:
    """CVRP over the member cells of mask m, which the errors name."""
    if m.solid_angle_sr < 1e-12:
        raise ValueError(f"{_describe(m)} has a degenerate solid angle")
    area_scale = _area_fraction(member, grid)
    if area_scale <= 0.0:
        raise ValueError(f"{_describe(m)} covers no grid cells with nonzero quadrature "
                         f"weight on a {grid.dtheta_deg:g} x {grid.dphi_deg:g} deg grid")
    power = grid.integrate(np.where(member, total_mw, 0.0).sum(axis=1))
    return power / (FOUR_PI * area_scale)


def effective_solid_angle(m: SphericalMask, grid: AngularGrid) -> float:
    """Solid angle of the mask as resolved by the grid's node-center cells.

    Scaled so that the full sphere maps to exactly 4*pi; this is the
    normalization area used by cvrp.
    """
    return FOUR_PI * _area_fraction(membership(m, grid), grid)


def cvrp(p: PolarizedPattern, m: SphericalMask) -> float:
    """Constrained-view radiated power (mW) over a mask.

    A full-sphere mask reproduces trp(p) exactly; the point FoV is
    cvrp_point.
    """
    return _masked_cvrp(p.grid, p.total_mw, membership(m, p.grid), m)


def trp(p: PolarizedPattern) -> float:
    """Total radiated power (mW): full-sphere Riemann sum over 4*pi."""
    return p.grid.integrate(p.total_mw.sum(axis=1)) / FOUR_PI


def prp(p: PolarizedPattern, theta1_deg: float, theta2_deg: float) -> float:
    """Partial radiated power (mW) over a theta band, normalized by 4*pi.

    Rings straddling a band edge enter with the fraction of their theta
    cell inside the band, so band integrals match their analytic values
    to O(step^2).
    """
    if not (0.0 <= theta1_deg < theta2_deg <= 180.0):
        raise ValueError("need 0 <= theta1 < theta2 <= 180 degrees")
    g = p.grid
    half = g.dtheta_deg / 2.0
    lo = np.maximum(g.theta_deg - half, theta1_deg)
    hi = np.minimum(g.theta_deg + half, theta2_deg)
    frac = np.clip((hi - lo) / g.dtheta_deg, 0.0, 1.0)
    return g.integrate(frac * p.total_mw.sum(axis=1)) / FOUR_PI


def prp_preset(p: PolarizedPattern, name: str) -> float:
    try:
        t1, t2 = PRP_PRESETS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown PRP preset {name!r}; "
                         f"choose from {sorted(PRP_PRESETS)}") from None
    return prp(p, t1, t2)


def cvrp_point(p: PolarizedPattern, center: Direction) -> float:
    """Point-FoV CVRP (mW): the EIRP at the observation point, i.e. the
    sum of both bilinearly sampled polarizations."""
    return sum(sample_bilinear(p, center))


def cvrp_sweep(p: PolarizedPattern, center: Direction,
               half_angles_deg=DEFAULT_FOV_SWEEP) -> CvrpSweep:
    """CVRP over a list of cap half-angles (0 means the point FoV).

    Cap distances and the total power are computed once for all FoVs."""
    fovs = [float(f) for f in half_angles_deg]
    _check_fovs(fovs)
    dist = _cap_distance_deg(center, p.grid)
    total = p.total_mw
    entries = []
    for f in fovs:
        if f == 0.0:
            val = cvrp_point(p, center)
        else:
            val = _masked_cvrp(p.grid, total, dist <= f + ANGLE_TOL_DEG,
                               SphericalMask.cap(center, f))
        entries.append((f, val))
    return CvrpSweep(tuple(entries), pattern_label=p.label)
