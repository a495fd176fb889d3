import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvrpkit import SphericalMask
from cvrpkit.grid import AngularGrid, Direction
from cvrpkit.masks import MaskKind, membership

from oracles import window_membership_reference

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

    def test_solid_angle_cannot_be_passed(self):
        with pytest.raises(TypeError):
            SphericalMask(MaskKind.CAP, center=Direction(0, 0), half_angle_deg=30.0,
                          solid_angle_sr=1.0)


_CAP = dict(center=Direction(10, 20), half_angle_deg=30.0)
_WINDOW = dict(theta_min_deg=30.0, theta_max_deg=90.0, phi_min_deg=10.0, phi_extent_deg=90.0)


class TestConstructor:
    def test_raw_masks_equal_factory_masks(self):
        assert SphericalMask(MaskKind.CAP, **_CAP) == SphericalMask.cap(Direction(10, 20), 30.0)
        assert (SphericalMask(MaskKind.WINDOW, **{**_WINDOW, "phi_min_deg": 370.0})
                == SphericalMask.window(30.0, 90.0, 10.0, 100.0))

    @pytest.mark.parametrize("kind, geometry, message", [
        (MaskKind.CAP, {"half_angle_deg": 30.0}, "cap mask takes exactly center, half_angle_deg"),
        (MaskKind.CAP, {**_CAP, "half_angle_deg": 0.0}, r"half-angle must be in \(0, 180\]"),
        (MaskKind.CAP, {**_CAP, "half_angle_deg": 181.0}, r"half-angle must be in \(0, 180\]"),
        (MaskKind.CAP, {**_CAP, "half_angle_deg": math.nan}, r"half-angle must be in \(0, 180\]"),
        (MaskKind.CAP, {**_CAP, "phi_extent_deg": 90.0}, "cap mask takes exactly"),
        (MaskKind.WINDOW, {**_WINDOW, "theta_min_deg": 90.0, "theta_max_deg": 30.0},
         "theta_min < theta_max"),
        (MaskKind.WINDOW, {**_WINDOW, "phi_extent_deg": 0.0}, r"phi extent must be in \(0, 360\]"),
        (MaskKind.WINDOW, {**_WINDOW, "phi_extent_deg": 360.5}, r"phi extent must be in \(0, 360\]"),
        (MaskKind.WINDOW, {**_WINDOW, "phi_min_deg": math.inf}, "phi_min must be finite"),
        (MaskKind.WINDOW, {**_WINDOW, "phi_min_deg": None}, "window mask takes exactly"),
    ], ids=["cap_without_center", "half_angle_0", "half_angle_181", "half_angle_nan",
            "cap_with_window_field", "reversed_theta", "phi_extent_0", "phi_extent_360.5",
            "phi_min_inf", "window_without_phi_min"])
    def test_raw_constructor_validates(self, kind, geometry, message):
        with pytest.raises(ValueError, match=message):
            SphericalMask(kind, **geometry)


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

    def test_kind_enum(self):
        assert SphericalMask.cap(Direction(0, 0), 10.0).kind is MaskKind.CAP
        assert SphericalMask.window(0, 90, 0, 90).kind is MaskKind.WINDOW


_GRIDS = {step: AngularGrid.standard(step, step) for step in (0.5, 1.5, 15.0)}


@st.composite
def grid_windows(draw):
    """A standard grid and a window on it whose edges are often grid nodes,
    or within or just beyond the node tolerance of one."""
    step = draw(st.sampled_from(sorted(_GRIDS)))

    def angle(lo, hi):
        node = st.integers(math.ceil(lo / step), math.floor(hi / step)).map(lambda k: k * step)
        near = st.tuples(node, st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9]))
        return draw(st.one_of(node, near.map(sum), st.floats(lo, hi)))

    t1, t2 = sorted((angle(-10.0, 190.0), angle(-10.0, 190.0)))
    assume(max(t1, 0.0) < min(t2, 180.0))
    phi_min = angle(-720.0, 720.0)
    extent = draw(st.one_of(st.just(360.0), st.floats(0.0, 360.0, exclude_min=True),
                            st.integers(1, round(360.0 / step)).map(lambda k: k * step)))
    phi_max = phi_min + extent
    assume(0.0 < phi_max - phi_min <= 360.0)  # a tiny extent can round away
    return _GRIDS[step], SphericalMask.window(t1, t2, phi_min, phi_max)


@settings(max_examples=200, deadline=None)
@given(grid_windows())
def test_window_membership_matches_meshgrid_reference(case):
    grid, m = case
    assert np.array_equal(membership(m, grid), window_membership_reference(m, grid))
