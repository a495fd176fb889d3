import math

import numpy as np
import pytest

from cvrpkit import (
    DEFAULT_FOV_SWEEP,
    PRP_PRESETS,
    CvrpSweep,
    PolarizedPattern,
    SphericalMask,
    cvrp,
    cvrp_point,
    cvrp_sweep,
    effective_solid_angle,
    prp,
    prp_preset,
    sample_bilinear,
    trp,
)
from cvrpkit.grid import AngularGrid, Direction

from oracles import (
    fine_grid_quadrature,
    lobe_mixture,
    mc_cap_mean,
    pattern_from_function,
    sph_to_unit,
)

FOUR_PI = 4.0 * math.pi


class TestTrp:
    def test_isotropic_unit(self, iso_pattern):
        # the node sum of sin(theta) undershoots 2 by O(step^2)
        assert trp(iso_pattern) == pytest.approx(1.0, rel=1e-4)

    def test_cosine_squared_closed_form(self, std_grid):
        # EIRP = cos^2(theta) on the front hemisphere integrates to 1/6
        tt = np.broadcast_to(std_grid.theta_deg[:, None],
                             (std_grid.n_theta, std_grid.n_phi))
        et = np.where(tt <= 90.0, np.cos(np.radians(tt)) ** 2, 0.0)
        p = PolarizedPattern(std_grid, et, np.zeros_like(et))
        assert trp(p) == pytest.approx(1.0 / 6.0, rel=2e-4)

    def test_against_fine_grid_oracle(self, rng):
        f = lobe_mixture(rng)
        p = pattern_from_function(f, AngularGrid.standard())
        oracle, _ = fine_grid_quadrature(
            lambda t, ph: f(sph_to_unit(t, ph)), step_deg=0.1)
        assert trp(p) == pytest.approx(oracle / FOUR_PI, rel=5e-4)

    def test_polarizations_add(self, std_grid):
        shape = (std_grid.n_theta, std_grid.n_phi)
        a = np.full(shape, 0.3)
        b = np.full(shape, 0.7)
        both = PolarizedPattern(std_grid, a, b)
        t_only = PolarizedPattern(std_grid, a, np.zeros(shape))
        p_only = PolarizedPattern(std_grid, np.zeros(shape), b)
        assert trp(both) == pytest.approx(trp(t_only) + trp(p_only), rel=1e-12)

    def test_synthesized_reference_preserved(self, cosine_boresight):
        assert trp(cosine_boresight.pattern) == pytest.approx(
            cosine_boresight.reference_trp_mw, rel=1e-12)


class TestPrp:
    def test_full_band_equals_trp_exactly(self, rng):
        f = lobe_mixture(rng)
        p = pattern_from_function(f, AngularGrid.standard())
        assert prp(p, 0.0, 180.0) == trp(p)

    def test_isotropic_presets(self, iso_pattern):
        assert prp_preset(iso_pattern, "uhrp") == pytest.approx(0.5, rel=1e-3)
        assert prp_preset(iso_pattern, "n75prp") == pytest.approx(0.25, rel=1e-3)
        assert prp_preset(iso_pattern, "nhprp") == pytest.approx(0.5, rel=1e-3)

    def test_preset_table(self):
        assert PRP_PRESETS["uhrp"] == (0.0, 90.0)
        assert PRP_PRESETS["n75prp"] == (60.0, 90.0)
        assert PRP_PRESETS["nhprp"] == (60.0, 120.0)

    def test_isotropic_band_closed_form(self, iso_pattern):
        # band (0, 45): (1 - cos 45) / 2 of total power
        expect = (1.0 - math.cos(math.radians(45.0))) / 2.0
        assert prp(iso_pattern, 0.0, 45.0) == pytest.approx(expect, rel=1e-4)

    def test_complementary_bands_sum_to_trp(self, rng):
        f = lobe_mixture(rng)
        p = pattern_from_function(f, AngularGrid.standard())
        # split mid-cell so no ring is shared
        total = prp(p, 0.0, 60.75) + prp(p, 60.75, 180.0)
        assert total == pytest.approx(trp(p), rel=1e-12)

    def test_invalid_band_rejected(self, iso_pattern):
        for t1, t2 in [(-1.0, 90.0), (90.0, 90.0), (100.0, 90.0), (0.0, 181.0)]:
            with pytest.raises(ValueError):
                prp(iso_pattern, t1, t2)

    def test_unknown_preset_rejected(self, iso_pattern):
        with pytest.raises(ValueError, match="unknown PRP preset"):
            prp_preset(iso_pattern, "half")


class TestCvrp:
    @pytest.mark.parametrize("mask", [
        SphericalMask.full_sphere(),
        SphericalMask.cap(Direction(0.0, 77.0), 180.0),
        SphericalMask.cap(Direction(180.0, 0.0), 180.0),
        SphericalMask.cap(Direction(90.0, 359.9), 180.0),
        SphericalMask.cap(Direction(47.3, 211.7), 180.0),
    ], ids=["full_sphere", "cap_theta0", "cap_theta180", "cap_phi359.9", "cap_generic"])
    def test_full_sphere_is_trp_bitwise(self, rng, mask):
        for _ in range(5):
            f = lobe_mixture(rng)
            p = pattern_from_function(f, AngularGrid.standard())
            assert cvrp(p, mask) == trp(p)

    def test_isotropic_flat_over_caps(self, iso_pattern):
        # every cap returns exactly the same value as the full sphere
        full = trp(iso_pattern)
        for beta in (3.0, 9.0, 30.0, 90.0, 150.0, 180.0):
            m = SphericalMask.cap(Direction(47.0, 200.0), beta)
            assert cvrp(iso_pattern, m) == pytest.approx(full, rel=1e-12)

    def test_scale_equivariance(self, rng):
        f = lobe_mixture(rng)
        g = AngularGrid.standard()
        p = pattern_from_function(f, g)
        p10 = PolarizedPattern(g, 10.0 * p.eirp_theta_mw, 10.0 * p.eirp_phi_mw)
        m = SphericalMask.cap(Direction(60.0, 30.0), 40.0)
        assert cvrp(p10, m) == pytest.approx(10.0 * cvrp(p, m), rel=1e-12)

    def test_single_cell_closed_form(self, std_grid):
        shape = (std_grid.n_theta, std_grid.n_phi)
        et = np.zeros(shape)
        i, j = 40, 80  # theta 60, phi 120
        et[i, j] = 5.0
        p = PolarizedPattern(std_grid, et, np.zeros(shape))
        m = SphericalMask.cap(Direction(60.0, 120.0), 10.0)
        dom = math.radians(1.5) ** 2
        s = math.sin(math.radians(60.0))
        expect = dom * 5.0 * s / effective_solid_angle(m, std_grid)
        assert cvrp(p, m) == pytest.approx(expect, rel=1e-12)

    def test_partition_additivity(self, rng):
        # three phi slices with mid-cell boundaries partition a window;
        # power integrals (cvrp * effective area) must add exactly
        f = lobe_mixture(rng)
        g = AngularGrid.standard()
        p = pattern_from_function(f, g)
        cuts = (-0.75, 120.75, 240.75, 359.25)
        parts = [SphericalMask.window(30.75, 89.25, a, b)
                 for a, b in zip(cuts, cuts[1:])]
        union = SphericalMask.window(30.75, 89.25, cuts[0], cuts[-1])
        total = math.fsum(cvrp(p, m) * effective_solid_angle(m, g) for m in parts)
        assert total == pytest.approx(
            cvrp(p, union) * effective_solid_angle(union, g), rel=1e-12)

    def test_window_matches_cap_at_pole(self, iso_pattern):
        # a polar cap and the equivalent theta-band window select the
        # same nodes, so CVRP agrees exactly
        cap = SphericalMask.cap(Direction(0.0, 0.0), 30.0)
        win = SphericalMask.window(0.0, 30.0, 0.0, 360.0)
        assert cvrp(iso_pattern, cap) == cvrp(iso_pattern, win)

    def test_monte_carlo_spot_check(self, rng):
        grid = AngularGrid.standard(0.125, 0.125)
        for _ in range(2):
            f = lobe_mixture(rng)
            beta = rng.uniform(30.0, 150.0)
            ct = math.degrees(math.acos(rng.uniform(-1, 1)))
            cp = rng.uniform(0, 360)
            p = pattern_from_function(f, grid)
            val = cvrp(p, SphericalMask.cap(Direction(ct, cp), beta))
            mc, se = mc_cap_mean(f, ct, cp, beta, 200_000, rng)
            assert abs(val - mc) <= 4.0 * se + 5e-4 * mc

    def test_empty_window_names_window_and_grid(self, iso_pattern):
        # only the zero-weight pole ring lies within theta 0..1
        with pytest.raises(ValueError, match=r"^the window theta 0\.\.1, phi 10\.\.20 deg "
                                             r"covers no grid cells .* on a 1\.5 x 1\.5 deg grid$"):
            cvrp(iso_pattern, SphericalMask.window(0.0, 1.0, 10.0, 20.0))

    def test_point_equals_combined_eirp(self, cosine_boresight, rng):
        p = cosine_boresight.pattern
        for _ in range(20):
            d = Direction(rng.uniform(0, 180), rng.uniform(0, 360))
            assert cvrp_point(p, d) == sum(sample_bilinear(p, d))


class TestEffectiveSolidAngle:
    def test_full_sphere_exact(self, std_grid):
        m = SphericalMask.full_sphere()
        assert effective_solid_angle(m, std_grid) == FOUR_PI
        for step in (0.5, 3.0, 15.0):
            g = AngularGrid.standard(step, step)
            assert effective_solid_angle(m, g) == FOUR_PI

    def test_cap_near_analytic(self, std_grid):
        for beta in (30.0, 60.0, 90.0, 120.0):
            m = SphericalMask.cap(Direction(75.0, 40.0), beta)
            assert effective_solid_angle(m, std_grid) == pytest.approx(
                m.solid_angle_sr, rel=0.02)

    def test_refinement_converges(self):
        m = SphericalMask.cap(Direction(75.0, 40.0), 20.0)
        err = []
        for step in (3.0, 1.5, 0.75):
            g = AngularGrid.standard(step, step)
            err.append(abs(effective_solid_angle(m, g) - m.solid_angle_sr))
        assert err[2] < err[0]


class TestSweep:
    def test_default_sweep_shape(self, iso_pattern):
        s = cvrp_sweep(iso_pattern, Direction(0.0, 0.0))
        assert s.fov_deg == DEFAULT_FOV_SWEEP
        assert len(s.cvrp_mw) == 16
        np.testing.assert_allclose(s.cvrp_mw, 1.0, rtol=1e-3)
        # every cap entry matches the full-sphere value to rounding noise
        np.testing.assert_allclose(s.cvrp_mw[:-1], trp(iso_pattern), rtol=1e-12)

    def test_zero_entry_is_point_value(self, cosine_boresight):
        p = cosine_boresight.pattern
        c = Direction(0.0, 0.0)
        s = cvrp_sweep(p, c, (180.0, 30.0, 0.0))
        assert s.cvrp_mw[-1] == cvrp_point(p, c)
        assert s.cvrp_mw[0] == trp(p)

    @pytest.mark.parametrize("center", [(0.0, 0.0), (180.0, 0.0), (45.0, 350.0),
                                        (90.0, 0.0), (120.0, 181.5)])
    @pytest.mark.parametrize("step, fovs", [
        (1.5, DEFAULT_FOV_SWEEP),
        # caps narrower than one 15 deg cell cover no nodes and are rejected
        (15.0, (180.0, 120.0, 60.0, 30.0, 0.0)),
    ])
    def test_matches_single_mask_path(self, step, fovs, center):
        # the one-pass sweep thresholds one distance field; every cap entry
        # must agree with an independent cvrp over that cap
        g = AngularGrid.standard(step, step)
        p = pattern_from_function(lobe_mixture(np.random.default_rng(7)), g)
        c = Direction(*center)
        s = cvrp_sweep(p, c, fovs)
        assert s.fov_deg == fovs
        for f, v in s.entries:
            if f > 0.0:
                assert v == pytest.approx(cvrp(p, SphericalMask.cap(c, f)),
                                          rel=1e-12)
        assert s.cvrp_mw[0] == trp(p)

    def test_label_carried(self, cosine_boresight):
        s = cvrp_sweep(cosine_boresight.pattern, Direction(0, 0), (90.0, 30.0))
        assert s.pattern_label == cosine_boresight.pattern.label

    def test_non_decreasing_order_rejected(self, iso_pattern):
        with pytest.raises(ValueError, match="decreasing"):
            cvrp_sweep(iso_pattern, Direction(0, 0), (30.0, 90.0))
        with pytest.raises(ValueError, match="decreasing"):
            cvrp_sweep(iso_pattern, Direction(0, 0), (30.0, 30.0))

    def test_empty_fov_list_rejected(self, iso_pattern):
        with pytest.raises(ValueError, match="^a sweep needs at least one FoV$"):
            cvrp_sweep(iso_pattern, Direction(0, 0), ())

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="^a sweep needs at least one FoV$"):
            CvrpSweep(())

    def test_sweep_dataclass_validation(self):
        with pytest.raises(ValueError, match="decreasing"):
            CvrpSweep(((30.0, 1.0), (90.0, 1.0)))
        with pytest.raises(ValueError, match="non-negative"):
            CvrpSweep(((90.0, 1.0), (30.0, -0.5)))
