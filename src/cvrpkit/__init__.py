"""Radiated-power figures of merit for directive antennas.

Computes TRP, PRP, and constrained-view radiated power (CVRP) from
polarized far-field EIRP patterns, synthesizes reference planar
phased-array patterns (steering, element failures), rotates and regrids
patterns, and compares FoV sweeps for fault screening.
"""

from .arraysynth import (
    ArraySpec,
    ElementModel,
    SynthesisResult,
    beam_angle_deg,
    element_field,
    steering_weights,
    synthesize_directivity,
    synthesize_eirp,
)
from .diagnostics import SweepComparison, compare_sweeps, to_dbm
from .grid import AngularGrid, Convention, Direction
from .masks import SphericalMask
from .metrics import (
    DEFAULT_FOV_SWEEP,
    PRP_PRESETS,
    CvrpSweep,
    cvrp,
    cvrp_point,
    cvrp_sweep,
    effective_solid_angle,
    prp,
    prp_preset,
    trp,
)
from .pattern import (
    PolarizedPattern,
    fill_unmeasured,
    isotropic,
    remap_to_standard,
    rotate_about_y,
    sample_bilinear,
)
from .patternio import read_pattern, read_sweep_csv, write_pattern, write_sweep_csv

__version__ = "0.1.0"
