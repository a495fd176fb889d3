import pytest

from cvrpkit import (
    ArraySpec,
    CvrpSweep,
    ElementModel,
    compare_sweeps,
    cvrp_sweep,
    synthesize_eirp,
    to_dbm,
)
from cvrpkit.diagnostics import DB_FLOOR, DEFAULT_THRESHOLD_DB


def beam_sweep(failed=frozenset(), scan=0.0, fovs=(180.0, 90.0, 30.0, 9.0, 0.0)):
    spec = ArraySpec(element=ElementModel.COSINE, scan_angle_deg=scan,
                     failed_elements=failed)
    return cvrp_sweep(synthesize_eirp(spec, 1.0).pattern, spec.beam_direction, fovs)


class TestToDbm:
    def test_known_values(self):
        assert to_dbm(1.0) == 0.0
        assert to_dbm(100.0) == pytest.approx(20.0)
        assert to_dbm(0.5) == pytest.approx(-3.0103, abs=1e-4)

    def test_zero_floors(self):
        assert to_dbm(0.0) == DB_FLOOR
        assert to_dbm(-1.0) == DB_FLOOR

    def test_tiny_value_floors(self):
        assert to_dbm(1e-30) == DB_FLOOR


class TestCompareSweeps:
    def test_self_comparison_clean(self):
        s = beam_sweep()
        cmp = compare_sweeps(s, s)
        assert cmp.max_abs_delta_db == 0.0
        assert not cmp.flagged
        assert cmp.divergence_fov_deg is None
        assert cmp.threshold_db == DEFAULT_THRESHOLD_DB

    def test_antisymmetry(self):
        ref = beam_sweep()
        test = beam_sweep(failed=frozenset({7}))
        fwd = compare_sweeps(ref, test)
        rev = compare_sweeps(test, ref)
        for a, b in zip(fwd.delta_db, rev.delta_db):
            assert a == pytest.approx(-b, abs=1e-12)
        assert fwd.flagged == rev.flagged

    def test_constant_offset(self):
        ref = CvrpSweep(((90.0, 1.0), (30.0, 0.5)))
        test = CvrpSweep(((90.0, 2.0), (30.0, 1.0)))
        cmp = compare_sweeps(ref, test)
        for d in cmp.delta_db:
            assert d == pytest.approx(3.0103, abs=1e-4)
        assert cmp.flagged
        assert cmp.divergence_fov_deg == 90.0  # widest exceeding FoV reported

    def test_threshold_monotonicity(self):
        ref = beam_sweep(scan=-45.0)
        test = beam_sweep(failed=frozenset({14, 7}), scan=-45.0)
        loose = compare_sweeps(ref, test, threshold_db=50.0)
        tight = compare_sweeps(ref, test, threshold_db=0.05)
        assert not loose.flagged
        assert tight.flagged
        # deltas do not depend on the threshold
        assert loose.delta_db == tight.delta_db

    def test_mismatched_fovs_rejected(self):
        a = CvrpSweep(((90.0, 1.0), (30.0, 1.0)))
        b = CvrpSweep(((90.0, 1.0), (21.0, 1.0)))
        with pytest.raises(ValueError, match="identical FoV"):
            compare_sweeps(a, b)

    def test_bad_threshold_rejected(self):
        s = CvrpSweep(((90.0, 1.0),))
        with pytest.raises(ValueError):
            compare_sweeps(s, s, threshold_db=0.0)

