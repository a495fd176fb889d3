"""Reference planar phased-array synthesizer.

Builds directivity patterns for a uniformly excited rows x cols lattice of
cosine or Huygens (cardioid) elements with progressive-phase steering in
the horizontal broadside plane, optional failed elements, and scales
them to an EIRP pattern matched to a reference TRP.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .grid import FOUR_PI, AngularGrid, Direction
from .pattern import PolarizedPattern


class ElementModel(enum.Enum):
    COSINE = "cosine"
    HUYGENS = "huygens"


def beam_angle_deg(beam_index: int) -> float:
    """Scan angle of beam k in 1..21: -45 deg + 4.5 deg * (k - 1)."""
    if not 1 <= beam_index <= 21:
        raise ValueError("beam index must be in 1..21")
    return -45.0 + 4.5 * (beam_index - 1)


@dataclass(frozen=True)
class ArraySpec:
    """Planar array geometry, element model, steering, and failures.

    Elements are numbered 1-based, row-major: 1..cols is the first row.
    Columns run along the steering (x) axis, rows along y.
    """

    element: ElementModel
    rows: int = 2
    cols: int = 8
    spacing_wl: float = 0.5
    scan_angle_deg: float = 0.0
    failed_elements: frozenset[int] = frozenset()
    frequency_hz: float = 28e9

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array needs at least one row and one column")
        if not 0 < self.spacing_wl < math.inf:  # NaN fails too
            raise ValueError(f"element spacing spacing_wl must be positive and finite, "
                             f"got {self.spacing_wl:g}")
        if not -45.0 <= self.scan_angle_deg <= 45.0:
            raise ValueError("scan angle must be within [-45, 45] degrees")
        failed = frozenset(int(i) for i in self.failed_elements)
        n = self.rows * self.cols
        if any(i < 1 or i > n for i in failed):
            raise ValueError(f"failed element indices must be in 1..{n}")
        object.__setattr__(self, "failed_elements", failed)

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    @property
    def beam_direction(self) -> Direction:
        """Direction the steering_weights phases point the beam: theta |scan|
        in the phi = 0 plane, or the phi = 180 plane for a negative scan."""
        scan = self.scan_angle_deg
        return Direction(abs(scan), 180.0 if scan < 0 else 0.0)

    def element_position_wl(self, index: int) -> tuple[float, float]:
        """(x, y) lattice position in wavelengths of a 1-based element index."""
        row, col = divmod(index - 1, self.cols)
        return col * self.spacing_wl, row * self.spacing_wl

    def describe(self) -> str:
        fe = ",".join(str(i) for i in sorted(self.failed_elements)) or "none"
        return (f"{self.rows}x{self.cols} {self.element.value} array, "
                f"scan {self.scan_angle_deg:g} deg, FE {fe}")


@dataclass(frozen=True)
class SynthesisResult:
    pattern: PolarizedPattern
    spec: ArraySpec
    reference_trp_mw: float


def element_field(model: ElementModel, theta_deg) -> np.ndarray:
    """Element field amplitude vs polar angle from broadside.

    cosine: cos(theta) for theta <= 90 deg, zero behind;
    Huygens: cardioid (1 + cos(theta)) / 2 everywhere.
    """
    theta_deg = np.asarray(theta_deg, dtype=float)
    c = np.cos(np.radians(theta_deg))
    if model is ElementModel.COSINE:
        return np.where(theta_deg <= 90.0, c, 0.0)
    return (1.0 + c) / 2.0


def steering_weights(spec: ArraySpec) -> np.ndarray:
    """Unit-magnitude progressive-phase weights, zero for failed elements.

    Returned as a (rows, cols) complex matrix; both rows share column
    phases -2*pi*spacing*n*sin(scan_angle).
    """
    n = np.arange(spec.cols)
    phase = -2.0 * math.pi * spec.spacing_wl * n * math.sin(math.radians(spec.scan_angle_deg))
    w = np.tile(np.exp(1j * phase), (spec.rows, 1))
    w.flat[[idx - 1 for idx in spec.failed_elements]] = 0.0  # 1-based, row-major
    return w


def _radiation_intensity(spec: ArraySpec, grid: AngularGrid) -> np.ndarray:
    """|element field x array factor|^2. The array factor, the sum of w[r, c] ex^c ey^r
    with ex = exp(jk sx) and ey = exp(jk sy), is evaluated by Horner's rule over
    the columns of each row, then over the rows; zero (failed) weights are skipped."""
    w = steering_weights(spec)
    if not np.any(w):
        raise ValueError("all elements failed; pattern is identically zero")
    st = np.sin(np.radians(grid.theta_deg))[:, None]
    phi = np.radians(grid.phi_deg)
    k_s = 2.0 * math.pi * spec.spacing_wl
    ex = np.exp(1j * k_s * (st * np.cos(phi)))
    ey = np.exp(1j * k_s * (st * np.sin(phi)))
    af = np.zeros(ex.shape, dtype=complex)
    row_sum = np.empty_like(af)
    for row in w[::-1]:
        af *= ey
        row_sum.fill(0.0)
        for c in row[::-1]:
            row_sum *= ex
            if c:
                row_sum += c
        af += row_sum
    field = element_field(spec.element, grid.theta_deg)[:, None]
    return field ** 2 * (af.real ** 2 + af.imag ** 2)


def synthesize_directivity(spec: ArraySpec,
                           grid: AngularGrid | None = None) -> np.ndarray:
    """Directivity matrix (dBi) on the grid: the EIRP in dBm of a 1 mW
    reference TRP, since directivity is EIRP over TRP. Null cells are -inf."""
    d_lin = synthesize_eirp(spec, 1.0, grid).pattern.eirp_theta_mw
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(d_lin)


def synthesize_eirp(spec: ArraySpec, reference_trp_mw: float,
                    grid: AngularGrid | None = None) -> SynthesisResult:
    """EIRP pattern in mW: |element field x array factor|^2 scaled by
    4*pi / (its grid quadrature) times the reference TRP.

    All power goes to the theta polarization; trp uses the same quadrature,
    so trp(pattern) matches the reference. Failed-element specs keep the
    same reference, modeling TRP-matched fault comparisons.
    """
    if not 0 < reference_trp_mw < math.inf:  # NaN fails too
        raise ValueError("reference TRP must be positive and finite")
    if grid is None:
        grid = AngularGrid.standard()
    intensity = _radiation_intensity(spec, grid)
    total = grid.integrate(intensity.sum(axis=1))
    # scale the array first: near the float maximum only nonzero cells
    # overflow (to inf, which PolarizedPattern rejects); nulls stay 0
    with np.errstate(over="ignore"):
        eirp_theta = (intensity * (FOUR_PI / total)) * reference_trp_mw
    pattern = PolarizedPattern(grid, eirp_theta, np.zeros_like(eirp_theta),
                               spec.frequency_hz, label=spec.describe())
    return SynthesisResult(pattern, spec, reference_trp_mw)
