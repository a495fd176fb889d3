import numpy as np
import pytest

from cvrpkit.grid import (
    AngularGrid,
    Direction,
    angular_distance_deg,
)

from oracles import sph_to_unit, unit_to_sph


def test_standard_factory_spans_sphere():
    g = AngularGrid.standard()
    assert g.n_theta == 121
    assert g.n_phi == 240
    assert g.theta_deg[0] == 0.0
    assert g.theta_deg[-1] == 180.0
    assert g.phi_deg[-1] == 358.5


@pytest.mark.parametrize("dtheta, dphi", [(0.0, 1.5), (1.5, 0.0), (-1.5, 1.5), (float("nan"), 1.5),
                                          (float("inf"), 1.5), (1.5, float("inf"))])
def test_standard_factory_rejects_non_positive_step(dtheta, dphi):
    with pytest.raises(ValueError, match="steps must be positive and finite"):
        AngularGrid.standard(dtheta, dphi)


@pytest.mark.parametrize("dtheta, dphi, message", [
    (70.0, 90.0, "dtheta_deg=70 must divide 180 degrees"),
    (90.0, 7.0, "dphi_deg=7 must divide 360 degrees"),
])
def test_standard_step_must_divide_circle(dtheta, dphi, message):
    with pytest.raises(ValueError, match=message):
        AngularGrid.standard(dtheta, dphi)


def test_axes_derive_from_steps():
    with pytest.raises(TypeError):
        AngularGrid(1.5 * np.arange(121), 1.5 * np.arange(240), 1.5, 1.5)
    g = AngularGrid.standard()
    with pytest.raises(ValueError, match="read-only"):
        g.theta_deg[1] = 3.1


def test_grids_compare_and_hash_by_steps():
    assert AngularGrid.standard() == AngularGrid(1.5, 1.5)
    assert hash(AngularGrid.standard()) == hash(AngularGrid(1.5, 1.5))
    assert AngularGrid(1.5, 1.5) != AngularGrid(1.5, 3.0)
    assert AngularGrid(1.5, 1.5) != AngularGrid(3.0, 1.5)
    assert len({AngularGrid.standard(), AngularGrid(1.5, 1.5), AngularGrid(3.0, 3.0)}) == 2


def test_cell_count_bounded():
    # 0.05 deg steps: 3601 x 7200 cells, within 2**25
    g = AngularGrid(0.05, 0.05)
    assert g.n_theta * g.n_phi == 25_927_200
    with pytest.raises(ValueError, match=r"a 0\.04 x 0\.04 deg grid has 40\d{6} cells, "
                                         r"more than the limit of 33554432"):
        AngularGrid(0.04, 0.04)
    with pytest.raises(ValueError, match="more than the limit"):
        AngularGrid(5e-324, 1.5)  # 180 / step overflows to inf


def test_direction_normalization():
    d = Direction(0.0, 370.0)
    assert d.theta_deg == 0.0
    assert d.phi_deg == 10.0
    d = Direction(180.0, -90.0)
    assert d.theta_deg == 180.0
    assert d.phi_deg == 270.0
    # within the angle tolerance theta snaps onto the poles
    assert Direction(-1e-10, 0.0).theta_deg == 0.0
    assert Direction(180.0 + 1e-10, 0.0).theta_deg == 180.0


@pytest.mark.parametrize("theta, phi", [
    (-5.0, 370.0), (200.0, -90.0), (-1e-8, 0.0), (180.0 + 1e-8, 0.0),
    (float("nan"), 0.0), (float("inf"), 0.0), (0.0, float("nan")),
    (0.0, float("inf")), (0.0, float("-inf")),
])
def test_direction_out_of_range_rejected(theta, phi):
    with pytest.raises(ValueError, match=r"theta in \[0, 180\] deg and a finite phi"):
        Direction(theta, phi)


def test_unit_vector_round_trip():
    rng = np.random.default_rng(1)
    theta = rng.uniform(1.0, 179.0, 200)
    phi = rng.uniform(0.0, 360.0, 200)
    t2, p2 = unit_to_sph(sph_to_unit(theta, phi))
    np.testing.assert_allclose(t2, theta, atol=1e-10)
    np.testing.assert_allclose(p2, phi, atol=1e-10)


def test_angular_distance_basics():
    assert angular_distance_deg(0.0, 0.0, 0.0, 123.0) == pytest.approx(0.0, abs=1e-9)
    assert angular_distance_deg(90.0, 0.0, 90.0, 90.0) == pytest.approx(90.0)
    assert angular_distance_deg(0.0, 0.0, 180.0, 0.0) == pytest.approx(180.0)
