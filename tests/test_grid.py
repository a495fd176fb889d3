import numpy as np
import pytest

from cvrpkit.grid import (
    AngularGrid,
    Convention,
    Direction,
    angular_distance_deg,
    sph_to_unit,
    unit_to_sph,
)


def test_standard_factory_spans_sphere():
    g = AngularGrid.standard()
    assert g.n_theta == 121
    assert g.n_phi == 240
    assert g.theta_deg[0] == 0.0
    assert g.theta_deg[-1] == 180.0
    assert g.phi_deg[-1] == 358.5
    assert g.phi_spans_circle


@pytest.mark.parametrize("dtheta, dphi", [(0.0, 1.5), (1.5, 0.0), (-1.5, 1.5), (float("nan"), 1.5)])
def test_standard_factory_rejects_non_positive_step(dtheta, dphi):
    with pytest.raises(ValueError, match="steps must be positive"):
        AngularGrid.standard(dtheta, dphi)


def test_non_equispaced_rejected():
    theta = np.array([0.0, 1.5, 3.1])
    with pytest.raises(ValueError, match="equispaced"):
        AngularGrid(theta, np.array([0.0, 1.5]), 1.5, 1.5)


def test_convention_range_enforced():
    theta = np.array([0.0, 90.0, 180.0, 270.0])
    phi = np.array([0.0, 90.0])
    with pytest.raises(ValueError, match="standard"):
        AngularGrid(theta, phi, 90.0, 90.0, Convention.STANDARD)
    # same axes are fine as distributed after shifting theta
    AngularGrid(theta - 180.0, phi, 90.0, 90.0, Convention.DISTRIBUTED)


def test_direction_normalization():
    d = Direction(-5.0, 370.0)
    assert d.theta_deg == 0.0
    assert d.phi_deg == 10.0
    d = Direction(200.0, -90.0)
    assert d.theta_deg == 180.0
    assert d.phi_deg == 270.0


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
