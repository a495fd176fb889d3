"""Sweep comparison for faulty-element screening.

Compares CVRP sweeps of a reference and a test pattern in dB and flags
pairs whose narrow-FoV divergence exceeds a threshold. The default
threshold is 0.5 dB; it is a configurable screening value, not an
uncertainty-calibrated one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .metrics import CvrpSweep

DEFAULT_THRESHOLD_DB = 0.5
DB_FLOOR = -200.0  # dBm floor for zero linear power


def to_dbm(mw: float) -> float:
    """10*log10(mW), floored at -200 dBm."""
    if mw <= 0:
        return DB_FLOOR
    return max(10.0 * math.log10(mw), DB_FLOOR)


@dataclass(frozen=True)
class SweepComparison:
    fov_deg: tuple[float, ...]
    ref_cvrp_db: tuple[float, ...]
    test_cvrp_db: tuple[float, ...]
    delta_db: tuple[float, ...]
    threshold_db: float

    @property
    def flags(self) -> tuple[bool, ...]:
        """Per FoV, whether |delta| exceeds the threshold: the screening rule."""
        return tuple(abs(d) > self.threshold_db for d in self.delta_db)

    @property
    def max_abs_delta_db(self) -> float:
        return max(abs(d) for d in self.delta_db)

    @property
    def divergence_fov_deg(self) -> float | None:
        """The widest flagged FoV (FoVs are sorted decreasing), or None."""
        return next((f for f, flag in zip(self.fov_deg, self.flags) if flag), None)

    @property
    def flagged(self) -> bool:
        return any(self.flags)


def compare_sweeps(ref: CvrpSweep, test: CvrpSweep,
                   threshold_db: float = DEFAULT_THRESHOLD_DB) -> SweepComparison:
    """Per-FoV dB deltas (test - ref), flagged where |delta| exceeds threshold."""
    if not 0 < threshold_db < math.inf:  # NaN fails too
        raise ValueError(f"threshold must be positive and finite, got {threshold_db:g} dB")
    if ref.fov_deg != test.fov_deg:
        raise ValueError("sweeps must share identical FoV lists")
    ref_db = tuple(to_dbm(v) for v in ref.cvrp_mw)
    test_db = tuple(to_dbm(v) for v in test.cvrp_mw)
    delta = tuple(t - r for t, r in zip(test_db, ref_db))
    return SweepComparison(ref.fov_deg, ref_db, test_db, delta, threshold_db)
