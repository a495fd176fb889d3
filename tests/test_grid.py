import numpy as np
import pytest

from cvrpkit.grid import (
    AngularGrid,
    Convention,
    Direction,
    _axes,
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


@pytest.mark.parametrize("theta, phi", [
    (np.arange(61) * 1.5, np.arange(240) * 1.5),         # theta 0..90
    (30.0 + np.arange(61) * 1.5, np.arange(240) * 1.5),  # theta 30..120
    (np.arange(121) * 1.5, np.arange(120) * 1.5),        # phi 0..178.5
    (np.arange(121) * 1.5, 10.0 + np.arange(240) * 1.5),  # phi shifted
])
def test_standard_grid_is_full_sphere(theta, phi):
    with pytest.raises(ValueError, match="standard convention requires the full sphere"):
        AngularGrid(theta, phi, 1.5, 1.5, Convention.STANDARD)
    # shifted into the distributed range, the same partial axes are refused too
    with pytest.raises(ValueError, match="distributed convention requires the full sphere"):
        AngularGrid(theta - 90.0, phi[phi <= 180.0], 1.5, 1.5, Convention.DISTRIBUTED)


@pytest.mark.parametrize("theta0, phi0, dphi, message", [
    (-170.5, 0.0, 1.5, "distributed convention requires the full sphere"),  # offset theta
    (-180.0, 0.5, 1.5, "distributed convention requires the full sphere"),  # offset phi
    (-180.0, 0.0, 7.0, "dphi_deg=7 must divide 180 degrees"),
])
def test_distributed_grid_is_full_sphere(theta0, phi0, dphi, message):
    theta = theta0 + 1.5 * np.arange(240)
    phi = np.arange(phi0, 180.0 + 1e-9, dphi)
    with pytest.raises(ValueError, match=message):
        AngularGrid(theta, phi, 1.5, dphi, Convention.DISTRIBUTED)
    g = AngularGrid(-180.0 + 1.5 * np.arange(240), 1.5 * np.arange(121), 1.5, 1.5,
                    Convention.DISTRIBUTED)
    assert (g.theta_deg[-1], g.phi_deg[-1]) == (178.5, 180.0)


def test_non_equispaced_rejected():
    theta = 1.5 * np.arange(121)
    theta[2] = 3.1
    with pytest.raises(ValueError, match="standard convention requires the full sphere"):
        AngularGrid(theta, 1.5 * np.arange(240), 1.5, 1.5)


def test_convention_range_enforced():
    theta = np.array([0.0, 90.0, 180.0, 270.0])
    phi = np.array([0.0, 90.0, 180.0])
    with pytest.raises(ValueError, match="standard"):
        AngularGrid(theta, phi, 90.0, 90.0, Convention.STANDARD)
    # same axes are fine as distributed after shifting theta
    AngularGrid(theta - 180.0, phi, 90.0, 90.0, Convention.DISTRIBUTED)


@pytest.mark.parametrize("convention", list(Convention))
def test_cell_count_bounded(convention):
    # 0.05 deg steps: 3601 x 7200 or 7200 x 3601 cells, within 2**25
    g = AngularGrid(*_axes(0.05, 0.05, convention), 0.05, 0.05, convention)
    assert g.n_theta * g.n_phi == 25_927_200
    with pytest.raises(ValueError, match=r"a 0\.04 x 0\.04 deg grid has 40\d{6} cells, "
                                         r"more than the limit of 33554432"):
        _axes(0.04, 0.04, convention)
    with pytest.raises(ValueError, match="more than the limit"):
        _axes(5e-324, 1.5, convention)  # 180 / step overflows to inf


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
