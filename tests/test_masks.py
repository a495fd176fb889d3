import math

import numpy as np
import pytest

from cvrpkit import SphericalMask, apply_mask, window_bounds
from cvrpkit.grid import Direction
from cvrpkit.masks import MaskKind, membership

FOUR_PI = 4.0 * math.pi


class TestSolidAngles:
    def test_full_sphere(self):
        assert SphericalMask.full_sphere().solid_angle_sr == FOUR_PI

    def test_cap_closed_form(self):
        m = SphericalMask.cap(Direction(0, 0), 60.0)
        assert m.solid_angle_sr == pytest.approx(2 * math.pi * (1 - 0.5), rel=1e-12)

    def test_hemisphere_cap(self):
        m = SphericalMask.cap(Direction(37, 101), 90.0)
        assert m.solid_angle_sr == pytest.approx(2 * math.pi, rel=1e-12)

    def test_cap_180_is_full_sphere_area(self):
        m = SphericalMask.cap(Direction(0, 0), 180.0)
        assert m.solid_angle_sr == FOUR_PI

    def test_window_closed_form(self):
        m = SphericalMask.window(30.0, 90.0, 10.0, 100.0)
        expect = math.radians(90.0) * (math.cos(math.radians(30)) - 0.0)
        assert m.solid_angle_sr == pytest.approx(expect, rel=1e-12)

    def test_cap_rejects_bad_angles(self):
        with pytest.raises(ValueError):
            SphericalMask.cap(Direction(0, 0), 0.0)
        with pytest.raises(ValueError):
            SphericalMask.cap(Direction(0, 0), 181.0)


class TestWindowBounds:
    def test_centered_window(self):
        m = window_bounds(Direction(90.0, 180.0), 60.0, 40.0)
        assert m.theta_min_deg == 60.0
        assert m.theta_max_deg == 120.0
        assert m.phi_min_deg == 160.0
        assert m.phi_max_deg == 200.0

    def test_theta_clamped_at_pole(self):
        m = window_bounds(Direction(10.0, 0.0), 60.0, 90.0)
        assert m.theta_min_deg == 0.0
        assert m.theta_max_deg == 40.0

    def test_phi_wraps(self):
        m = window_bounds(Direction(90.0, 10.0), 30.0, 60.0)
        assert m.phi_min_deg == pytest.approx(340.0)
        assert m.phi_extent_deg == pytest.approx(60.0)

    def test_degenerate_theta_rejected(self):
        with pytest.raises(ValueError):
            window_bounds(Direction(0.0, 0.0), 0.0, 90.0)


class TestMembership:
    def test_cap_at_pole(self, std_grid):
        mem = membership(SphericalMask.cap(Direction(0, 0), 30.0), std_grid)
        inside = std_grid.theta_deg <= 30.0 + 1e-9
        assert np.array_equal(mem, np.broadcast_to(inside[:, None], mem.shape))

    def test_cap_boundary_node_included(self, std_grid):
        mem = membership(SphericalMask.cap(Direction(0, 0), 30.0), std_grid)
        i = np.where(std_grid.theta_deg == 30.0)[0][0]
        assert mem[i].all()
        assert not mem[i + 1].any()

    def test_window_phi_wrap(self, std_grid):
        m = SphericalMask.window(60.0, 120.0, 350.0, 370.0)
        mem = membership(m, std_grid)
        j_in = np.where(std_grid.phi_deg == 355.5)[0][0]
        j_in2 = np.where(std_grid.phi_deg == 4.5)[0][0]
        j_out = np.where(std_grid.phi_deg == 180.0)[0][0]
        i = np.where(std_grid.theta_deg == 90.0)[0][0]
        assert mem[i, j_in] and mem[i, j_in2]
        assert not mem[i, j_out]

    def test_full_sphere_all_true(self, std_grid):
        assert membership(SphericalMask.full_sphere(), std_grid).all()


class TestApplyMask:
    def test_zeroes_outside_only(self, iso_pattern):
        m = SphericalMask.cap(Direction(0, 0), 45.0)
        masked = apply_mask(iso_pattern, m)
        mem = membership(m, iso_pattern.grid)
        assert np.all(masked.total_mw[mem] == 1.0)
        assert np.all(masked.total_mw[~mem] == 0.0)

    def test_full_sphere_returns_same_object(self, iso_pattern):
        assert apply_mask(iso_pattern, SphericalMask.full_sphere()) is iso_pattern

    def test_kind_enum(self):
        assert SphericalMask.cap(Direction(0, 0), 10.0).kind is MaskKind.CAP
        assert SphericalMask.window(0, 90, 0, 90).kind is MaskKind.WINDOW
