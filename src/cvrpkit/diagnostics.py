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
    max_abs_delta_db: float
    divergence_fov_deg: float | None
    flagged: bool
    threshold_db: float


def compare_sweeps(ref: CvrpSweep, test: CvrpSweep,
                   threshold_db: float = DEFAULT_THRESHOLD_DB) -> SweepComparison:
    """Per-FoV dB deltas (test - ref) and the widest FoV exceeding threshold."""
    if threshold_db <= 0:
        raise ValueError("threshold must be positive")
    if ref.fov_deg != test.fov_deg:
        raise ValueError("sweeps must share identical FoV lists")
    ref_db = tuple(to_dbm(v) for v in ref.cvrp_mw)
    test_db = tuple(to_dbm(v) for v in test.cvrp_mw)
    delta = tuple(t - r for t, r in zip(test_db, ref_db))
    divergence = None
    for fov, d in zip(ref.fov_deg, delta):  # FoVs are sorted decreasing
        if abs(d) > threshold_db:
            divergence = fov
            break
    return SweepComparison(
        fov_deg=ref.fov_deg,
        ref_cvrp_db=ref_db,
        test_cvrp_db=test_db,
        delta_db=delta,
        max_abs_delta_db=max(abs(d) for d in delta),
        divergence_fov_deg=divergence,
        flagged=divergence is not None,
        threshold_db=threshold_db,
    )

